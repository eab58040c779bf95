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
from math import prod
from operator import sub
from typing import Callable, Union

import numpy as np

from .complexity import FREQ_BLOCK, _class_size, freq_length, selfdelim_length
from .errors import BudgetExceededError
from .groups import (
    ComputableGroup,
    CoordinateRangeError,
    FiniteSubset,
    Heisenberg,
    Runs,
    _check_range,
    compose_rows,
    pack_coords,
    runs_of,
    runs_union,
    set_product,
    subset_from_mask,
)
from .setcodec import EncodingDomainError, encode_coords
from .symbolic import binary_alphabet

DEFAULT_CAP = 1_000_000  # masks modest_search may enumerate


def inverse_runs(group: ComputableGroup, runs: Runs) -> Runs:
    """The inverses of the sites of ``runs``: on both shipped laws the inverse
    of a run is the run headed by the inverse of its last site.  Heads are
    inverted in Python ints, and raise where ``inverse`` would on a site."""
    heads = []
    for *prefix, last, n in np.column_stack((runs.heads, runs.lengths)).tolist():
        h = group.invert_coords((*prefix, last + n - 1))
        _check_range((*h, h[-1] + n - 1))
        heads.append(h)
    return Runs(np.array(heads, dtype=np.int64).reshape(-1, group.dimension), runs.lengths)


@dataclass(frozen=True)
class FolnerSequence:
    """A window family i -> F_i with nonempty members of nondecreasing size.
    ``member(i)`` gives window i as Runs (the box families read them off
    their sides) or as an index set; ``subset`` and ``runs`` read either."""

    group: ComputableGroup
    name: str
    start: int
    member: Callable[[int], Union[Runs, FiniteSubset]]

    def _member(self, i: int):
        if i < self.start:
            raise ValueError(f"{self.name} starts at index {self.start}")
        F = self.member(i)
        if not len(F):
            raise ValueError(f"{self.name} produced an empty member at {i}")
        return F

    def subset(self, i: int) -> FiniteSubset:
        F = self._member(i)
        return F.indices() if isinstance(F, Runs) else F

    def runs(self, i: int) -> Runs:
        return runs_of(self.group, self._member(i))

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


def _box_runs(group: ComputableGroup, n: int) -> Runs:
    """The box of side n from its sides alone: n^(d-1) runs of length m, heads
    in C order over the first d-1 sides.  The heads are column-major, written
    one contiguous block per axis, and the far corner is range-checked before
    anything is allocated."""
    *prefix, m = (n, n, n * n) if isinstance(group, Heisenberg) else (n,) * group.dimension
    _check_range((n - 1, m - 1))  # every prefix side is n
    # a few array writes, not np.indices and np.full: those are numpy helpers
    # written in Python, and their fixed cost was most of a small box's build
    d = group.dimension
    cols = np.zeros((d, *prefix), dtype=np.int64)  # the last axis stays 0
    for k in range(d - 1):
        cols[k] = np.arange(n).reshape(n, *(1,) * (d - 2 - k))
    lengths = np.empty(cols[0].size, dtype=np.int64)
    lengths.fill(m)
    return Runs(cols.reshape(d, -1).T, lengths)


def builtin_families(group: ComputableGroup) -> dict[str, FolnerSequence]:
    """The shipped families: ``boxes`` (side i) and ``dyadic`` (side 2^i).

    Boxes are [0,n)^d; the Heisenberg box is [0,n) x [0,n) x [0,n^2), which
    keeps the vertical extent in step with the commutator growth.  Both
    give their windows as runs from the sides, built anew on each request
    and never cached; an index tuple is read off the runs (``Runs.indices``).
    """
    return {
        "boxes": FolnerSequence(group, "boxes", 1, lambda i: _box_runs(group, i)),
        "dyadic": FolnerSequence(group, "dyadic", 0, lambda i: _box_runs(group, 1 << i)),
    }


# -- almost-invariance ---------------------------------------------------


def defect(group: ComputableGroup, F, g: int) -> Fraction:
    """|gF \\ F| / |F|, exact."""
    Fset = frozenset(F)
    if not Fset:
        raise ValueError("empty window")
    shifted = set_product(group, (g,), Fset)
    return Fraction(len(shifted - Fset), len(Fset))


def generator_defect_counts(group: ComputableGroup, F) -> tuple[int, ...]:
    """|sF \\ F| for each s in the fixed generator order; F is Runs or an
    index set, read as runs once.  As s*(h + k*e_d) = s*h + k*e_d (see
    ``compose_array``), sF is F's runs with their heads moved by s
    (``compose_rows``, which raises CoordinateRangeError where some s*f
    leaves +/-2**40), and |sF \\ F| = |sF u F| - |F|."""
    if not len(F):
        raise ValueError("empty window")
    runs = runs_of(group, F)
    size, counts = len(runs), []
    for s in np.array(group.generator_coords, dtype=np.int64):
        shifted = Runs(compose_rows(group, s, runs.heads, runs.lengths - 1), runs.lengths)
        counts.append(len(runs_union(shifted, runs)) - size)
    return tuple(counts)


def defect_report(seq: FolnerSequence, i: int) -> DefectReport:
    """The defects of window i, read by ``seq.runs``: a box family builds none."""
    F = seq.runs(i)
    size, counts = len(F), generator_defect_counts(seq.group, F)
    pairs = tuple((g, Fraction(k, size)) for g, k in zip(seq.group.generators, counts))
    return DefectReport(i, size, pairs, max(v for _, v in pairs))


def product_size(group: ComputableGroup, A, B) -> int:
    """|A*B|, exact, in O(runs(A) x runs(B)) time; A and B are index sets or
    Runs, and an empty operand gives 0.

    On both shipped laws a run of A (length la) times a run of B (length lb)
    is the run of length la + lb - 1 headed by the product of the heads (see
    ``compose_array``).  Run pairs are composed by ``compose_rows`` 2**18 at a
    time and each chunk is merged into one running union, so memory follows
    the union; an operand site or a product past +/-2**40 raises
    CoordinateRangeError.  Nothing wraps.
    """
    if not (len(A) and len(B)):
        return 0
    a, b = runs_of(group, A), runs_of(group, B)
    d, step = group.dimension, max(1, (1 << 18) // len(b.heads))
    union = None
    for k in range(0, len(a.heads), step):
        lengths = a.lengths[k:k + step, None] + b.lengths - 1
        heads = compose_rows(group, a.heads[k:k + step, None], b.heads[None], lengths - 1)
        chunk = Runs(heads.reshape(-1, d), lengths.ravel())
        union = runs_union(chunk) if union is None else runs_union(union, chunk)
    return len(union)


def temperedness_witnesses(seq: FolnerSequence, upto: int):
    """Yield (i, |F_i|, K_i) for every index i past the first, where K_i is the
    least witness K with |U_{j<i'} F_j^-1 F_i'| <= K |F_i'| for all i' <= i.
    Raises ValueError, on the first step, unless ``upto`` passes the first index.

    Uses U_j (F_j^-1 F_i) = (U_j F_j^-1) F_i, so the growing union is
    maintained once instead of per pair, as disjoint runs merged after each
    window.  Windows are read by ``seq.runs``: a box family builds none.
    """
    if upto <= seq.start:
        raise ValueError("need at least two indices to witness temperedness")
    group = seq.group
    inv_union = None
    best = Fraction(0)
    for i in seq.indices(upto):
        Fi = seq.runs(i)
        if inv_union is not None:
            best = max(best, Fraction(product_size(group, inv_union, Fi), len(Fi)))
            yield i, len(Fi), best
        inv = inverse_runs(group, Fi)
        inv_union = inv if inv_union is None else runs_union(inv_union, inv)


def temperedness_constant(seq: FolnerSequence, upto: int) -> Fraction:
    """Least witness K with |U_{j<i} F_j^-1 F_i| <= K |F_i| on the prefix."""
    return max(c for _, _, c in temperedness_witnesses(seq, upto))


def modest_search(group: ComputableGroup, i: int, cap: int = DEFAULT_CAP) -> FiniteSubset:
    """First finite subset F (bitmask enumeration order) with |F| > i whose
    defect under every element of index < i stays below 1/(i+1), exactly."""
    if i < 0:
        raise ValueError("i must be a natural")
    for mask in range(1, cap + 1):
        F = subset_from_mask(mask)
        if len(F) > i and all(defect(group, F, g) * (i + 1) < 1 for g in range(i)):
            return F
    raise BudgetExceededError(f"modest_search({group.name}, i={i}) hit cap {cap}", work=cap)


# -- description length ---------------------------------------------------


def _delta_bits(F: FiniteSubset) -> int:
    # the count's frame, then one frame of 2 * bit_length + 2 bits per index gap
    return (selfdelim_length(len(F)) + 2 * len(F)
            + 2 * sum(map(int.bit_length, map(sub, F, (0, *F)))))


def _box_bits(runs: Runs):
    lows, highs = runs.bounds()
    if prod(hi - lo + 1 for lo, hi in zip(lows, highs)) != len(runs):
        return None
    return sum(selfdelim_length(pack_coords((lo,))) + selfdelim_length(hi - lo + 1)
               for lo, hi in zip(lows, highs))


def _stream_floor(group: ComputableGroup, runs: Runs) -> int:
    """A lower bound on both stream candidates of ``description_bits``, from
    |F| ones and |SF \\ F| zeros, the letter counts of the code word of a
    connected identity-containing F.  Exact below one freq block; past it,
    a block (and the tail) holds at least half its symbols in one letter."""
    ones = len(runs)
    ball = np.array(((0,) * group.dimension, *group.generator_coords), dtype=np.int64)
    zeros = product_size(group, Runs(ball, np.ones(len(ball), dtype=np.int64)), runs) - ones
    full, rest = divmod(ones + zeros, FREQ_BLOCK)
    if full:
        # each block's larger count frame, plus at least 2 bits for the other
        half = selfdelim_length(FREQ_BLOCK // 2)
        freq = full * (half + 2) + selfdelim_length((rest + 1) // 2) + 2
    else:
        freq = selfdelim_length(zeros) + selfdelim_length(ones) + _class_size([zeros, ones])[1]
    return min(ones + zeros, freq)


def description_bits(group: ComputableGroup, F) -> int:
    """Upper bound in bits on the description length of F (Runs or an index set).

    Minimum over the decodable encoders that apply: the connected-set codec
    string, that string recompressed with the frequency coder (boundary
    zeros are rare in almost-invariant sets, so this lands near
    |F|*H(o(1))), a coordinate-box descriptor, and a sorted-index delta
    code as the catch-all.  All of them read F's runs (``runs_of``: one
    array decode of an index set).

    The cheap candidates go first: the box descriptor from the run bounds,
    then the delta code only if its floor |frame(n)| + 4n - 2 (every index
    gap after the first is at least 1) is below the box.  A two-part code's
    length depends only on its letter counts (Cover, "Enumerative source
    encoding", IEEE Trans. IT 1973), so ``_stream_floor`` bounds both stream
    candidates from |F| and |SF \\ F| (one ``product_size``); the Cayley walk
    runs only when that floor is below the best cheap candidate, or when
    the product leaves +/-2**40 although F does not.
    """
    if not len(F):
        return _delta_bits(())
    runs = runs_of(group, F)
    n, best = len(runs), _box_bits(runs)
    if best is None or selfdelim_length(n) + 4 * n - 2 < best:
        delta = _delta_bits(runs.indices())
        best = delta if best is None else min(best, delta)
    try:
        if _stream_floor(group, runs) >= best:
            return best
    except CoordinateRangeError:  # the walk only steps through the identity's component
        pass
    try:
        stream = encode_coords(group, frozenset(map(tuple, runs.sites().tolist())))
    except EncodingDomainError:
        return best
    return min(best, len(stream), freq_length(binary_alphabet(), stream))


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
