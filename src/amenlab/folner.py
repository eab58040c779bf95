"""Folner sequences: built-in box families, exact defect and temperedness
measurements, modesty evidence, and the first-fit search for almost
invariant sets.

Defects and temperedness witnesses are exact rationals so tests can assert
equality instead of arguing about tolerances.  Temperedness can only ever
be certified on a prefix; the returned value is the least witness K for
the examined indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Callable

import numpy as np

from .complexity import freq_length, selfdelim_length
from .errors import BudgetExceededError
from .groups import (
    ComputableGroup,
    CoordinateRangeError,
    FiniteSubset,
    Heisenberg,
    INDEX_ARRAY_LIMIT,
    decode_subset,
    normalize_subset,
    pack_coords,
    pack_coords_array,
    set_product,
    subset_from_mask,
    translate_left,
)
from .setcodec import EncodingDomainError, encode_connected
from .symbolic import binary_alphabet


@dataclass(frozen=True)
class FolnerSequence:
    """A window family i -> F_i with nonempty members of nondecreasing size."""

    group: ComputableGroup
    name: str
    start: int
    member: Callable[[int], FiniteSubset]

    def subset(self, i: int) -> FiniteSubset:
        if i < self.start:
            raise ValueError(f"{self.name} starts at index {self.start}")
        F = self.member(i)
        if not F:
            raise ValueError(f"{self.name} produced an empty member at {i}")
        return F

    def indices(self, upto: int) -> range:
        if upto < self.start:
            raise ValueError(f"{self.name} starts at index {self.start}")
        return range(self.start, upto + 1)


@dataclass(frozen=True)
class DefectReport:
    """Per-generator invariance defects of one window, exact."""

    index: int
    size: int
    defects: tuple  # (generator element index, Fraction) in generator order
    max_defect: Fraction


def _box(group: ComputableGroup, n: int) -> FiniteSubset:
    """The box of side n, built anew on each call; nothing is cached."""
    sides = (n, n, n * n) if isinstance(group, Heisenberg) else (n,) * group.dimension
    # zigzag and Cantor pairing grow in each nonnegative coordinate, so the
    # far corner holds the largest index; encode range-checks it first
    if group.encode(tuple(s - 1 for s in sides)) >= INDEX_ARRAY_LIMIT:
        return normalize_subset(group.encode(c) for c in product(*map(range, sides)))
    axes = np.meshgrid(*(np.arange(s, dtype=np.int64) for s in sides),
                       indexing="ij", sparse=True)
    index = pack_coords_array(axes).ravel()
    index.sort()
    return tuple(index.tolist())


def builtin_families(group: ComputableGroup) -> dict[str, FolnerSequence]:
    """The shipped families: ``boxes`` (side i) and ``dyadic`` (side 2^i).

    Boxes are [0,n)^d; the Heisenberg box is [0,n) x [0,n) x [0,n^2), which
    keeps the vertical extent in step with the commutator growth.
    """
    return {
        "boxes": FolnerSequence(group, "boxes", 1, lambda i: _box(group, i)),
        "dyadic": FolnerSequence(group, "dyadic", 0, lambda i: _box(group, 1 << i)),
    }


# -- almost-invariance ---------------------------------------------------


def defect(group: ComputableGroup, F, g: int) -> Fraction:
    """|gF \\ F| / |F|, exact."""
    Fset = frozenset(F)
    if not Fset:
        raise ValueError("empty window")
    shifted = translate_left(group, g, Fset)
    return Fraction(len(shifted - Fset), len(Fset))


def generator_defect_counts(group: ComputableGroup, F) -> tuple[int, ...]:
    """|sF \\ F| for each s in the fixed generator order, in one pass.

    F is decoded once; each site's ``steps`` are tested against the
    coordinate set, so no translate is built per generator.
    """
    coords = decode_subset(group, F)
    if not coords:
        raise ValueError("empty window")
    # s*c is injective in c, so column s holds |F| distinct sites of sF
    return tuple(len(coords) - len(coords.intersection(column))
                 for column in zip(*map(group.steps, coords)))


def defect_report(seq: FolnerSequence, i: int) -> DefectReport:
    F = frozenset(seq.subset(i))
    counts = generator_defect_counts(seq.group, F)
    pairs = tuple((g, Fraction(k, len(F))) for g, k in zip(seq.group.generators, counts))
    return DefectReport(i, len(F), pairs, max(v for _, v in pairs))


def product_size(group: ComputableGroup, A, B) -> int:
    """|A*B|, exact, in O(|A| x runs(B)) time and memory.

    A run of B is a maximal set of sites sharing b_1..b_{d-1} with
    consecutive b_d.  On both shipped laws a fixed a maps a run onto one
    interval of the last axis (a_d + b_d on z^d, c + c' + a_1*b_2' on h3),
    so |A*B| is the union length of |A| x runs(B) intervals on mixed-radix
    int64 keys; duplicate sites only overlap.  Where a coordinate may leave
    +/-2**40 or a key pass 2**62 (near that cap, d >= 2), the generic set
    product answers, raising CoordinateRangeError where A*B leaves the range.
    """
    d = group.dimension
    try:
        a, b = group.decode_array(A), group.decode_array(B)
        # both shipped laws are sums and products of coordinates, so the law
        # applied to the per-axis maxima of |a| and |b| bounds every |a*b|
        # coordinate; compose raises CoordinateRangeError past 2**40
        group.compose(_abs_max(a), _abs_max(b))
        b = b[np.lexsort(b.T[::-1])]
        cut = np.any(b[1:, :-1] != b[:-1, :-1], axis=1) | (np.diff(b[:, -1]) != 1)
        first = np.flatnonzero(np.concatenate(([True], cut)))
        heads = group.compose_array(a[:, None, :], b[first][None, :, :]).reshape(-1, d)
    except (NotImplementedError, ValueError, OverflowError, CoordinateRangeError):
        return len(set_product(group, A, B))
    runs = np.diff(first, append=len(b))
    lo, hi = heads.min(axis=0), heads.max(axis=0)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    spans[-1] += int(runs.max()) - 1  # room for the longest run past the last head
    if prod(spans) > 1 << 62:  # leaves int64 headroom for the fold below
        return len(set_product(group, A, B))
    start = heads[:, 0] - lo[0]
    for k in range(1, d):
        start *= spans[k]
        start += heads[:, k] - lo[k]
    order = np.argsort(start)
    start, end = start[order], (start + np.tile(runs, len(a)))[order]
    reach = np.maximum.accumulate(end)  # each interval adds what it reaches past all before it
    return int((reach - np.maximum(start, np.concatenate((start[:1], reach[:-1])))).sum())


def _abs_max(coords) -> tuple[int, ...]:
    return tuple(max(-int(lo), int(hi)) for lo, hi in zip(coords.min(axis=0), coords.max(axis=0)))


def temperedness_witnesses(seq: FolnerSequence, upto: int):
    """Yield (i, |F_i|, K_i) for every index i past the first, where K_i is the
    least witness K with |U_{j<i'} F_j^-1 F_i'| <= K |F_i'| for all i' <= i.
    Raises ValueError, on the first step, unless ``upto`` passes the first index.

    Uses U_j (F_j^-1 F_i) = (U_j F_j^-1) F_i, so the growing union is
    maintained once instead of per pair.
    """
    if upto <= seq.start:
        raise ValueError("need at least two indices to witness temperedness")
    group = seq.group
    inv_union: set[int] = set()
    best = Fraction(0)
    for i in seq.indices(upto):
        Fi = seq.subset(i)
        if inv_union:
            best = max(best, Fraction(product_size(group, inv_union, Fi), len(Fi)))
            yield i, len(Fi), best
        inv_union.update(group.inverse(f) for f in Fi)


def temperedness_constant(seq: FolnerSequence, upto: int) -> Fraction:
    """Least witness K with |U_{j<i} F_j^-1 F_i| <= K |F_i| on the prefix."""
    return max(c for _, _, c in temperedness_witnesses(seq, upto))


def modest_search(group: ComputableGroup, i: int, cap: int = 1_000_000) -> FiniteSubset:
    """First finite subset F (bitmask enumeration order) with |F| > i whose
    defect under every element of index < i stays below 1/(i+1).

    The comparison |gF \\ F| * (i+1) < |F| is exact integer arithmetic.
    """
    if i < 0:
        raise ValueError("i must be a natural")
    for mask in range(1, cap + 1):
        F = subset_from_mask(mask)
        if len(F) <= i:
            continue
        Fset = frozenset(F)
        n = len(Fset)
        ok = True
        for g in range(i):
            shifted = translate_left(group, g, Fset)
            if (i + 1) * len(shifted - Fset) >= n:
                ok = False
                break
        if ok:
            return F
    raise BudgetExceededError(f"modest_search({group.name}, i={i}) hit cap {cap}", work=cap)


# -- description length ---------------------------------------------------


def _delta_bits(F: FiniteSubset) -> int:
    bits = selfdelim_length(len(F))
    prev = None
    for g in F:
        bits += selfdelim_length(g if prev is None else g - prev)
        prev = g
    return bits


def _box_bits(group: ComputableGroup, F: FiniteSubset):
    coords = [group.decode(g) for g in F]
    lows = [min(c[k] for c in coords) for k in range(group.dimension)]
    highs = [max(c[k] for c in coords) for k in range(group.dimension)]
    volume = 1
    for lo, hi in zip(lows, highs):
        volume *= hi - lo + 1
    if volume != len(F):
        return None
    return sum(
        selfdelim_length(pack_coords((lo,))) + selfdelim_length(hi - lo + 1)
        for lo, hi in zip(lows, highs)
    )


def description_bits(group: ComputableGroup, F) -> int:
    """Upper bound on the description length of F in bits.

    Minimum over the decodable encoders that apply: the connected-set codec
    string, that string recompressed with the frequency coder (boundary
    zeros are rare in almost-invariant sets, so this lands near
    |F|*H(o(1))), a coordinate-box descriptor, and a sorted-index delta
    code as the catch-all.
    """
    F = normalize_subset(F)
    candidates = [_delta_bits(F)]
    if F:
        box = _box_bits(group, F)
        if box is not None:
            candidates.append(box)
        try:
            stream = encode_connected(group, F)
        except EncodingDomainError:
            pass
        else:
            candidates.append(len(stream))
            candidates.append(freq_length(binary_alphabet(), stream))
    return min(candidates)


def series_tail(sizes, eps) -> object:
    """Partial sum of 2^(-eps*|F_i|) over the given sizes.

    Exact Fraction when every exponent eps*size is an integer; float
    otherwise (an irrational power has no exact rational form).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    exponents = [eps * s for s in sizes]
    if all(e.denominator == 1 for e in exponents):
        return sum((Fraction(1, 2 ** int(e)) for e in exponents), Fraction(0))
    return sum(2.0 ** float(-e) for e in exponents)
