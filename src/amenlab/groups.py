"""Computable groups with an explicit enumeration of elements by naturals.

A group element is represented everywhere as its index (a plain ``int``)
in the group's fixed enumeration; index 0 is always the identity.  Each
concrete group supplies an invertible codec between indices and canonical
integer coordinates, the composition law on coordinates, and a fixed
ordered symmetric generating set used for Cayley adjacency.  Cayley walks
step coordinate tuples with ``steps``, so they decode or pack an index once
per member rather than once per neighbour.  ``pack_coords`` is straight-line
for d <= 3, ``steps`` and ``compose`` for z, z2 and h3; the rest loop.

The enumeration, computed only by :func:`pack_coords` and its inverse
:func:`unpack_coords`, or by their int64 array forms for indices below
``INDEX_ARRAY_LIMIT`` = 2**62, composes two standard ingredients:

* zigzag coding per coordinate, sending 0, +1, -1, +2, -2, ... to
  0, 1, 2, 3, 4, ...;
* the Cantor pairing function, folded right-to-left over the zigzagged
  coordinates when there is more than one.

Coordinates are reliable up to +/- 2**40; arithmetic leaving that range
raises :class:`CoordinateRangeError` instead of returning an element of a
different group than the caller asked for.  Arrays of coordinate rows are
composed by :func:`compose_rows` and packed by :func:`pack_rows`, the one
place that picks int64 where nothing can wrap and Python ints otherwise;
:func:`translate_right` packs a set's right translates by many centers at
once through both.  The scalar :func:`set_product` serves small sets.
The scalar decode is memoised (4096 entries, about 1 MB for rank-3
coordinates near 2**40); windows bypass it: an index set through
:meth:`ComputableGroup.decode_array`, and :class:`Runs` through
``Runs.sites``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt, prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

COORD_LIMIT = 1 << 40
INDEX_ARRAY_LIMIT = 1 << 62

FiniteSubset = tuple  # sorted, duplicate-free tuple of element indices


class CoordinateRangeError(ArithmeticError):
    """Coordinate left the supported range (documented bound: 2**40)."""


def pack_coords(coords: Sequence[int]) -> int:
    """Index of a coordinate tuple or list: zigzag each entry, then fold right-to-left
    with the Cantor pairing (x, y) -> (x + y)(x + y + 1)/2 + y, in straight lines up
    to 3 entries.  Unchecked: ``encode`` and every ``compose`` range-check first."""
    n = len(coords)
    if n == 1:
        c, = coords
        return 2 * c - 1 if c > 0 else -2 * c
    if n == 2:
        x, y = coords
        acc = 2 * y - 1 if y > 0 else -2 * y
    elif n == 3:
        x, y, z = coords
        acc = 2 * z - 1 if z > 0 else -2 * z
        s = acc + (2 * y - 1 if y > 0 else -2 * y)
        acc = s * (s + 1) // 2 + acc
    else:
        it = reversed(coords)
        c = next(it)
        acc = 2 * c - 1 if c > 0 else -2 * c
        for c in it:
            s = acc + (2 * c - 1 if c > 0 else -2 * c)
            acc = s * (s + 1) // 2 + acc
        return acc
    s = acc + (2 * x - 1 if x > 0 else -2 * x)
    return s * (s + 1) // 2 + acc


def pack_coords_array(coords: Sequence[np.ndarray]) -> np.ndarray:
    """pack_coords over int64 arrays, ``coords[k]`` holding coordinate k and
    all of them broadcasting together.  The caller keeps every index below
    INDEX_ARRAY_LIMIT, which keeps each partial fold and product inside int64,
    or passes object arrays of Python ints (``pack_rows``)."""
    acc = _zigzag(coords[-1])
    for c in reversed(coords[:-1]):
        s = acc + _zigzag(c)
        acc = s * (s + 1) // 2 + acc
    return acc


def _zigzag(c: np.ndarray) -> np.ndarray:
    """2c - 1 where c > 0, else -2c (the zigzag of ``pack_coords``), in one new
    array.  np.abs or a bool operand would touch numpy loops that no other
    step does, and mapping their code raises a small job's peak RSS."""
    z = c * -2
    return np.subtract(-1, z, out=z, where=c > 0)


def _extremes(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """Lists of the least and of the greatest coordinate per axis of nonempty int64
    rows (last axis); ``Runs.bounds`` reads them.  A reduction across C-contiguous
    rows runs one inner loop per row, so from 128 rows on (measured) columns go alone."""
    flat = rows.reshape(-1, rows.shape[-1])
    if len(flat) < 128:
        return flat.min(axis=0).tolist(), flat.max(axis=0).tolist()
    return [int(col.min()) for col in flat.T], [int(col.max()) for col in flat.T]


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """pack_coords over the last axis of nonempty int64 coordinate rows: int64
    indices while the signed far corner packs below INDEX_ARRAY_LIMIT, else
    Python ints in an object array.  Nothing wraps."""
    # an index grows with each zigzagged coordinate; pack the larger on each axis
    far = pack_coords([hi if 2 * hi - 1 > -2 * lo else lo for lo, hi in zip(*_extremes(rows))])
    cols = np.moveaxis(rows, -1, 0)
    return pack_coords_array(list(cols if far < INDEX_ARRAY_LIMIT else cols.astype(object)))


def sorted_indices(rows: np.ndarray) -> FiniteSubset:
    """The sorted indices of n >= 1 distinct (n, d) int64 coordinate rows."""
    index = pack_rows(rows)
    index.sort()
    return tuple(index.tolist())


def compose_rows(group: ComputableGroup, a: np.ndarray, b: np.ndarray, reach=0) -> np.ndarray:
    """a*b over nonempty int64 coordinate arrays (last axis), broadcasting, as
    int64 rows.  ``reach`` (an int, or an array broadcasting with the leading
    axes of the products) makes each product the head of a run whose last site
    is head + reach on the last axis; that site is range-checked too.

    Both laws are sums and products of coordinates, so the law applied to the
    largest |coordinate| on each axis of a and of b bounds every product.
    Inside +/-2**40 the products are composed in int64; otherwise on Python
    ints with every entry checked, raising CoordinateRangeError as ``compose``
    does.  Nothing wraps.
    """
    far = [tuple(max(-lo, hi) for lo, hi in zip(*_extremes(x))) for x in (a, b)]
    try:
        *_, top = group.compose(*far)
        _check_range((top + int(np.max(reach)),))
    except CoordinateRangeError:  # the bound leaves the range: compose on Python ints
        out = group.compose_array(a.astype(object), b.astype(object))
        _check_range(out.ravel().tolist())
        _check_range((out[..., -1] + reach).ravel().tolist())
        return out.astype(np.int64)
    return group.compose_array(a, b)


def translate_right(group: ComputableGroup, sites: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row k of the (m, n) result packs F*c = {f*c : f in F} for F the (n, d)
    coordinate rows ``sites`` and c the row ``centers[k]``, both nonempty;
    exact, in int64 or on Python ints as ``compose_rows`` and ``pack_rows`` choose."""
    return pack_rows(compose_rows(group, sites[None], centers[:, None]))


@lru_cache(maxsize=1 << 12)
def unpack_coords(index: int, d: int) -> tuple[int, ...]:
    """Coordinate tuple of length d at ``index``; inverse of pack_coords.
    Memoised: a scalar walk or set product decodes each index once, and the
    bound keeps a window decoded site by site from filling memory."""
    out = []
    for _ in range(d - 1):
        w = (isqrt(8 * index + 1) - 1) // 2
        y = index - w * (w + 1) // 2
        n = w - y
        out.append((n + 1) // 2 if n & 1 else -(n // 2))
        index = y
    out.append((index + 1) // 2 if index & 1 else -(index // 2))
    return tuple(out)


def unpack_coords_array(index: np.ndarray, d: int) -> np.ndarray:
    """unpack_coords over int64 indices in [0, INDEX_ARRAY_LIMIT), one row of
    the (n, d) result per index.  A float sqrt guesses each Cantor diagonal w;
    exact triangular numbers correct it by one either way."""
    out = np.empty((len(index), d), dtype=np.int64)
    for k in range(d - 1):
        w = ((np.sqrt(8.0 * index + 1.0) - 1.0) / 2.0).astype(np.int64)
        w -= _triangle(w) > index
        w += _triangle(w + 1) <= index
        index = index - _triangle(w)
        out[:, k] = w - index
    out[:, -1] = index
    # undo the zigzag; arithmetic rather than bit operations keeps the set of
    # numpy loops small, and each new loop adds code pages to peak RSS
    return np.where(out % 2 == 1, (out + 1) // 2, out // -2)


def _triangle(w: np.ndarray) -> np.ndarray:
    # w(w+1)/2 with the even factor halved first, so no product passes int64
    return np.where(w % 2 == 1, w * ((w + 1) // 2), (w // 2) * (w + 1))


def _check_range(coords: Iterable[int]) -> None:
    for c in coords:
        if c > COORD_LIMIT or c < -COORD_LIMIT:
            raise CoordinateRangeError(
                f"coordinate {c} outside supported range +/-2**40")


class ComputableGroup:
    """Base class: index codec, composition law, fixed generating set."""

    name: str  # upper-cased, the prefix of element text (``Z2:(1,0)``)
    dimension: int
    generator_coords: tuple[tuple[int, ...], ...]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return tuple(self.encode(s) for s in self.generator_coords)

    # -- coordinate law, supplied by subclasses ---------------------------

    def compose(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of a*b; raises CoordinateRangeError outside +/-2**40,
        so callers may pack the result without checking it again.  On z, z2 and
        h3, one chained comparison per coordinate; ``_check_range`` only to raise."""
        raise NotImplementedError

    def steps(self, c: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Coordinates of s*c for s in the fixed generator order.  Each step
        range-checks only the coordinates it moves; together they raise
        CoordinateRangeError exactly where some ``compose(s, c)`` would."""
        raise NotImplementedError

    def invert_coords(self, a: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def compose_array(self, a, b):
        """Composition on ndarrays of coordinates (last axis), broadcasting.

        Only valid when every product stays inside the coordinate range.  Both
        shipped laws satisfy (a + k*e_d)*(b + m*e_d) = a*b + (k+m)*e_d for the
        last axis e_d, so a run times a run is a run (``Runs``).
        """
        raise NotImplementedError

    # -- element codec -----------------------------------------------------

    def decode(self, g: int) -> tuple[int, ...]:
        if g < 0:
            raise ValueError("element indices are naturals")
        return unpack_coords(g, self.dimension)

    def decode_array(self, F: Iterable[int]) -> np.ndarray:
        """The (n, d) int64 coordinate rows of F, in F's order: one array decode
        when every index is in [0, INDEX_ARRAY_LIMIT), else ``decode`` per site
        (ValueError on a negative index).  A coordinate past int64 raises
        CoordinateRangeError; it never wraps or becomes a float."""
        sites = F if isinstance(F, (list, tuple)) else list(F)
        if sites and 0 <= min(sites) and max(sites) < INDEX_ARRAY_LIMIT:
            return unpack_coords_array(np.array(sites, dtype=np.int64), self.dimension)
        rows = [self.decode(g) for g in sites]
        try:
            return np.array(rows, dtype=np.int64).reshape(len(rows), self.dimension)
        except OverflowError:
            raise CoordinateRangeError("a window coordinate does not fit int64") from None

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self.dimension:
            raise ValueError(f"{self.name} elements have {self.dimension} coordinates")
        _check_range(coords)
        return pack_coords(coords)

    # -- group operations on indices ----------------------------------------

    @property
    def identity(self) -> int:
        return 0

    def multiply(self, g: int, h: int) -> int:
        # both operands before either decode can fill the memo
        if g < 0 or h < 0:
            raise ValueError("element indices are naturals")
        d = self.dimension
        return pack_coords(self.compose(unpack_coords(g, d), unpack_coords(h, d)))

    def inverse(self, g: int) -> int:
        return self.encode(self.invert_coords(self.decode(g)))

    def neighbors(self, g: int) -> list[int]:
        """Cayley neighbors s*g for s in the fixed generator order."""
        return [pack_coords(n) for n in self.steps(self.decode(g))]

    # -- canonical text form -------------------------------------------------

    def format_elements(self, F: Iterable[int]) -> list[str]:
        """The text of each index of F, in F's order, from one ``decode_array``:
        ``Z:-3`` on the line, ``Z2:(1,-2)`` elsewhere."""
        form = ",".join(["{}"] * self.dimension)
        form = f"{self.name.upper()}:" + (form if self.dimension == 1 else f"({form})")
        return [form.format(*row) for row in self.decode_array(F).tolist()]

    def parse_elements(self, lines: Iterable[str]) -> Iterator[tuple[int, ...]]:
        """Each line's element text (``Z:3`` also as ``Z:(3)``) as range-checked coordinates,
        lazily: the first bad line raises ValueError or CoordinateRangeError, and no later
        line is read."""
        form = r"\((-?\d+(?:,-?\d+)*)\)" + (r"|(-?\d+)" if self.dimension == 1 else "")
        match = re.compile(rf"{self.name.upper()}:(?:{form})").fullmatch
        for text in lines:
            m = match(text.strip())
            if m is None:
                raise ValueError(f"cannot parse {text!r} as an element of {self.name}")
            coords = tuple(map(int, m[m.lastindex].split(",")))  # the one group that matched
            if len(coords) != self.dimension:
                raise ValueError(f"{self.name} elements have {self.dimension} coordinates")
            _check_range(coords)
            yield coords

    def __repr__(self) -> str:
        return f"<group {self.name}>"


class Zd(ComputableGroup):
    """Free abelian group of rank d with unit steps as generators."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d >= 1")
        self.dimension = d
        self.name = "z" if d == 1 else f"z{d}"
        self.generator_coords = tuple(
            tuple(sign if k == axis else 0 for k in range(d))
            for axis in range(d) for sign in (1, -1))

    def compose(self, a, b):
        d = self.dimension
        if d == 1:
            out = (a[0] + b[0],)
            if -COORD_LIMIT <= out[0] <= COORD_LIMIT:
                return out
        elif d == 2:
            (x, y), (u, v) = a, b
            out = x, y = x + u, y + v
            if -COORD_LIMIT <= x <= COORD_LIMIT and -COORD_LIMIT <= y <= COORD_LIMIT:
                return out
        else:
            out = tuple(x + y for x, y in zip(a, b))
        _check_range(out)
        return out

    def steps(self, c):
        """Straight-line for d <= 2, a loop over the axes for d >= 3; each axis
        range-checks its own coordinate, calling ``_check_range`` only to raise."""
        d = self.dimension
        if d == 1:
            x, = c
            if not -COORD_LIMIT < x < COORD_LIMIT:
                _check_range((x + 1, x - 1))
            return [(x + 1,), (x - 1,)]
        if d == 2:
            x, y = c
            if not (-COORD_LIMIT < x < COORD_LIMIT and -COORD_LIMIT < y < COORD_LIMIT):
                _check_range((x + 1, x - 1, y + 1, y - 1))
            return [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        out = []
        for k, x in enumerate(c):
            if not -COORD_LIMIT < x < COORD_LIMIT:
                _check_range((x + 1, x - 1))
            head, tail = c[:k], c[k + 1:]
            out.append(head + (x + 1,) + tail)
            out.append(head + (x - 1,) + tail)
        return out

    def invert_coords(self, a):
        return tuple(-x for x in a)

    def compose_array(self, a, b):
        return a + b


class Heisenberg(ComputableGroup):
    """Discrete Heisenberg group on integer triples (a, b, c).

    Composition convention:
        (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b')
    which gives the inverse (-a, -b, a*b - c).  Generators are the two
    standard horizontal elements and their inverses, in the fixed order
    x, x^-1, y, y^-1.
    """

    dimension = 3
    name = "h3"
    generator_coords = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def compose(self, a, b):
        (x, y, z), (u, v, w) = a, b
        out = x, y, z = x + u, y + v, z + w + x * v
        if not (-COORD_LIMIT <= x <= COORD_LIMIT and -COORD_LIMIT <= y <= COORD_LIMIT
                and -COORD_LIMIT <= z <= COORD_LIMIT):
            _check_range(out)
        return out

    def steps(self, c):
        # x^+-1 (a, b, z) = (a +- 1, b, z +- b) and y^+-1 (a, b, z) = (a, b +- 1, z);
        # |z + b| and |z - b| both stay in range iff |z| + |b| does
        a, b, z = c
        if not (-COORD_LIMIT < a < COORD_LIMIT and -COORD_LIMIT < b < COORD_LIMIT
                and abs(z) + abs(b) <= COORD_LIMIT):
            _check_range((a + 1, a - 1, b + 1, b - 1, z + b, z - b))
        return [(a + 1, b, z + b), (a - 1, b, z - b), (a, b + 1, z), (a, b - 1, z)]

    def invert_coords(self, a):
        return (-a[0], -a[1], a[0] * a[1] - a[2])

    def compose_array(self, a, b):
        return np.stack(
            (
                a[..., 0] + b[..., 0],
                a[..., 1] + b[..., 1],
                a[..., 2] + b[..., 2] + a[..., 0] * b[..., 1],
            ),
            axis=-1,
        )


_GROUPS: dict[str, ComputableGroup] = {}


def get_group(spec: str) -> ComputableGroup:
    """Group registry keyed by the short names used on the command line.

    Accepts ``z``, ``z2``, ``z3``, ... (any positive rank) and ``h3``.
    Instances are shared.
    """
    key = spec.strip().lower()
    if key not in _GROUPS:
        if key == "h3":
            _GROUPS[key] = Heisenberg()
        elif key == "z":
            _GROUPS[key] = Zd(1)
        elif re.fullmatch(r"z\d+", key):
            _GROUPS[key] = Zd(int(key[1:]))
        else:
            raise ValueError(f"unknown group {spec!r} (expected z, z2, ..., or h3)")
    return _GROUPS[key]


# -- finite subsets of a group -------------------------------------------

def normalize_subset(elements: Iterable[int]) -> FiniteSubset:
    """Sorted duplicate-free tuple of element indices."""
    out = sorted(set(elements))
    if out and out[0] < 0:
        raise ValueError("element indices are naturals")
    return tuple(out)


def subset_from_mask(mask: int) -> FiniteSubset:
    """Finite subset number ``mask``: element indices at the 1-bits of mask."""
    if mask < 0:
        raise ValueError("mask must be a natural")
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def set_product(group: ComputableGroup, A: Iterable[int], B: Iterable[int]) -> frozenset:
    """The set A*B = {a*b : a in A, b in B}."""
    bs = [group.decode(b) for b in B]
    compose = group.compose
    return frozenset(pack_coords(compose(aa, bb)) for aa in map(group.decode, A) for bb in bs)


def generator_boundary(group: ComputableGroup, T: Iterable[int]) -> frozenset:
    """ST \\ T for the group's fixed generating set S."""
    return frozenset(map(pack_coords, boundary_coords(group, decode_subset(group, T))))


def decode_subset(group: ComputableGroup, T: Iterable[int]) -> frozenset:
    """The coordinate tuples of the members of T, each decoded once."""
    return frozenset(map(group.decode, frozenset(T)))


def boundary_coords(group: ComputableGroup, coords: frozenset) -> set:
    """ST \\ T in coordinates, for T given by its coordinate set."""
    steps = group.steps
    return {n for c in coords for n in steps(c) if n not in coords}


@dataclass(frozen=True, eq=False)
class Runs:
    """A window as disjoint runs: run k is heads[k] + j*e_d for j < lengths[k],
    e_d the last axis, heads an (r, d) int64 array; every site lies within
    +/-2**40.  ``len`` counts the sites; ``sites`` and iteration list them."""

    heads: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return sum(self.lengths.tolist())

    def __iter__(self):
        return map(pack_coords, self.sites().tolist())

    def sites(self) -> np.ndarray:
        """The (n, d) int64 coordinate rows of the sites, in run order."""
        # column-major, so each coordinate is one contiguous column
        cols = np.repeat(self.heads.T, self.lengths, axis=1)
        # a site's place in its run: its position less that of its run's first
        # site, added in place so that no second full column is alive at once
        cols[-1] += np.arange(cols.shape[1])
        if len(self.lengths) > 1:  # one run, as every window of the line, needs no offsets
            cols[-1] -= np.repeat(np.cumsum(self.lengths) - self.lengths, self.lengths)
        return cols.T

    def indices(self) -> FiniteSubset:
        return sorted_indices(self.sites())

    def bounds(self) -> tuple[list[int], list[int]]:
        """The least and the greatest coordinate on each axis over all sites: the
        heads' ``_extremes``, save that the top of the last axis is head + length - 1."""
        lo, hi = _extremes(self.heads)
        hi[-1] = int((self.heads[:, -1] + self.lengths).max()) - 1
        return lo, hi


def runs_union(*parts: Runs) -> Runs:
    """The union of runs, overlapping or not, as disjoint maximal runs in
    coordinate order, by one argsort of mixed-radix keys that leave a gap
    after each line.  Keys are int64 below 2**62 and Python ints past it, so
    the union is exact at any spread within +/-2**40."""
    heads = np.concatenate([p.heads for p in parts])
    lengths = np.concatenate([p.lengths for p in parts])
    lo, hi = Runs(heads, lengths).bounds()
    spans = [h - l + 1 for l, h in zip(lo, hi)]
    spans[-1] += 1  # the gap after each line
    wide = prod(spans) > 1 << 62
    key = np.zeros(len(heads), dtype=object if wide else np.int64)
    for k, span in enumerate(spans):
        key *= span
        key += heads[:, k] - lo[k]
    order = np.argsort(key)
    start = key[order]
    reach = np.maximum.accumulate(start + lengths[order])  # the end of all runs so far
    first = np.flatnonzero(np.concatenate(([True], start[1:] > reach[:-1])))
    last = np.append(first[1:], len(start)) - 1
    return Runs(heads[order[first]], np.array(reach[last] - start[first], dtype=np.int64))


def runs_of(group: ComputableGroup, F) -> Runs:
    """F itself when it is Runs, else the nonempty index set F as Runs,
    decoded once; a site past +/-2**40 raises CoordinateRangeError."""
    if isinstance(F, Runs):
        return F
    c = group.decode_array(F)
    if not len(c):
        raise ValueError("window must be nonempty")
    _check_range((int(c.min()), int(c.max())))
    return runs_union(Runs(c, np.ones(len(c), dtype=np.int64)))


def walk(group: ComputableGroup, inside: Callable[[tuple], bool]) -> list[tuple]:
    """Depth-first Cayley walk from the identity; the coordinate tuples of the
    members it reaches, in order.

    ``inside(c)`` receives coordinates and is asked once, on each vertex's
    first visit.  The walk continues only through members, pushing a
    member's ``steps`` in reverse so that they pop in generator order, as a
    recursive walk would visit them.  No index is decoded or packed.
    """
    steps = group.steps
    members: list[tuple] = []
    visited: set[tuple] = set()
    stack = [(0,) * group.dimension]
    while stack:
        c = stack.pop()
        if c in visited:
            continue
        visited.add(c)
        if inside(c):
            members.append(c)
            stack.extend(reversed(steps(c)))
    return members


def is_connected_with_identity(group: ComputableGroup, T: Iterable[int]) -> bool:
    """True iff T contains the identity and is path-connected in the Cayley graph."""
    tset = frozenset(T)
    # a negative index is no element, so no walk reaches it
    coords = frozenset(unpack_coords(g, group.dimension) for g in tset if g >= 0)
    return group.identity in tset and len(walk(group, coords.__contains__)) == len(tset)
