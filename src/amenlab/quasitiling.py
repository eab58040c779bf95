"""Constructive quasi-tiling: pick tile scales from a window family, then
greedily cover a target set by almost-disjoint tile translates.

The classical argument asks for k scales with k the smallest integer
satisfying (1-eps/2)^k <= eps, each scale (eps/4)-invariant under the one
below it.  Box families grow those scales geometrically (each level is
about 4/eps times the last), so a literal schedule explodes past any desk
budget for small eps.  The planner here grows scales only while the next
level keeps the usable threshold inside a finite horizon, stops early
otherwise, and searches the threshold of its top scale alone.  Each of the
four covering assertions is an exact inequality lhs <= rhs, verified on
every produced cover rather than assumed from the schedule.  Because the
box families start at a singleton tile, the greedy pass at the bottom scale
mops up every remaining point, so the covers are exact and the assertions
hold with room to spare even when fewer scales than the classical k fit.

The greedy pass reads, for each candidate center c in T, the positions in
sorted T of the cells of the translate tile*c; it does no group arithmetic.
Those rows are built per scale, ``CHUNK_CELLS`` cells at a time, by
``groups.translate_right`` of the tile's sites by T's sites, read from its
runs, and located in T's sorted indices, packed the same way (``np.searchsorted``).
The translate works in int64 where nothing can wrap and on Python ints
otherwise, so every window takes this one route and a product past
+/-2**40 raises CoordinateRangeError.  ``verify_cover`` recomputes the
report from T, the tiles' runs and the centers alone, through the same
translate and one sort of all the cells; ``q_count_bound`` reads that recount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from fractions import Fraction
from typing import Optional

import numpy as np

from .folner import FolnerSequence, Runs, product_size, runs_of, runs_union
from .groups import ComputableGroup, CoordinateRangeError, pack_rows, translate_right
from .symbolic import DEFAULT_BUDGET, SFT, admissible_patterns

DEFAULT_HORIZON = 64
CHUNK_CELLS = 1 << 18  # cells translated at once by ``cover`` and ``verify_cover``


class PlanningError(ValueError):
    """The window family cannot supply usable tile scales."""


@dataclass(frozen=True)
class TilingPlan:
    """Tile scales (indices into a window family), threshold, and target eps."""

    eps: Fraction
    scales: tuple
    threshold: int

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "scales", tuple(self.scales))
        if not (0 < self.eps < 1):
            raise ValueError("eps must be in (0, 1)")
        if not self.scales:
            raise ValueError("a plan needs at least one scale")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly increasing")


@dataclass(frozen=True)
class AssertionCheck:
    """One covering assertion, lhs <= rhs, in exact rationals."""

    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class CoverReport:
    """Exact rational evaluation of the four covering assertions; the
    fields are the one list of them, in report order."""

    tiles_inside: AssertionCheck
    residue_small: AssertionCheck
    mass_vs_covered: AssertionCheck
    mass_vs_total: AssertionCheck

    @property
    def all_hold(self) -> bool:
        return all(getattr(self, f.name).holds for f in fields(self))


@dataclass(frozen=True)
class Cover:
    plan: TilingPlan
    scale_centers: dict  # scale index -> tuple of centers, in increasing order
    report: Optional[CoverReport] = field(default=None, kw_only=True)


def scale_count(eps) -> int:
    """Smallest k with (1-eps/2)^k <= eps, by exact rational arithmetic.

    A float estimate of k is moved one step at a time until the exact test
    shrink^k <= eps < shrink^(k-1) holds (or k = 1)."""
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")
    shrink = 1 - eps / 2
    k = max(1, math.ceil(math.log(eps) / math.log1p(-eps / 2)))
    while k > 1 and shrink ** (k - 1) <= eps:
        k -= 1
    while shrink ** k > eps:
        k += 1
    return k


def _padded(seq: FolnerSequence, j: int) -> Runs:
    """The runs of F_j u {1}; the identity joins as a length-1 run only when
    F_j lacks it."""
    return runs_union(seq.runs(j), runs_of(seq.group, (seq.group.identity,)))


def _invariance_defect(seq: FolnerSequence, K: Runs, F_index: int) -> Fraction:
    """|F_j F \\ F| / |F|, exact, for F the window F_index and K the runs
    ``_padded(seq, j)``, which the planner builds once per scale."""
    # KF = (F_j u {1})F = F_j F u F, so |F_j F \ F| = |KF| - |F|
    try:
        F = seq.runs(F_index)
        return Fraction(product_size(seq.group, K, F) - len(F), len(F))
    except CoordinateRangeError as err:
        raise PlanningError(f"{err} while planning on window {F_index} of the {seq.group.name} "
                            f"{seq.name} family: plan to a smaller horizon") from err


def plan(seq: FolnerSequence, eps, horizon: int = DEFAULT_HORIZON) -> TilingPlan:
    """Choose tile scales and a usable threshold inside the horizon.

    Scales start at the family's first window and extend while (a) the
    classical scale count has not been reached, (b) a next index exists at
    which the pairwise (eps/4)-invariance holds, and (c) that index still
    leaves three coverable indices above its threshold inside the horizon.
    The returned threshold N is the largest index <= horizon at which
    (eps/4)-invariance under the top tile fails (so every examined i > N
    passes; indices beyond the horizon are not certified).  It is computed
    for the top scale only: the start scale's threshold is searched for
    only when no second scale is appended.  Windows are read as runs
    (``FolnerSequence.runs``), so a box family builds none here; a window or
    product past +/-2**40 raises PlanningError, which names the window.
    """
    eps = Fraction(eps)
    goal = scale_count(eps)
    if horizon < seq.start:
        raise PlanningError("horizon lies before the family's first index")
    tol = eps / 4
    scales = [seq.start]

    padded = cache(partial(_padded, seq))  # each scale's runs, built once per search

    def threshold_for(j: int) -> int:
        # largest failing index; everything above it up to the horizon passes
        for i in range(horizon, j, -1):
            if _invariance_defect(seq, padded(j), i) > tol:
                return i
        return j

    threshold = None
    while len(scales) < goal:
        nxt = None
        for j in range(scales[-1] + 1, horizon + 1):
            if _invariance_defect(seq, padded(scales[-1]), j) <= tol:
                nxt = j
                break
        if nxt is None:
            break
        n_next = threshold_for(nxt)
        if n_next > horizon - 3:
            break
        scales.append(nxt)
        threshold = n_next
    if threshold is None:
        threshold = threshold_for(seq.start)
    return TilingPlan(eps, tuple(scales), threshold)


def _cell_rows(group: ComputableGroup, tile: Runs, index: np.ndarray, rows: np.ndarray):
    """Yield (k, positions in ``index`` of the cells of tile*index[k]) for each k,
    in increasing order, whose translate lies inside the sorted indices ``index``
    (coordinate ``rows``); none, and no tile sites built, when the tile has more
    sites than ``index``.  Cells are packed by ``translate_right``: nothing wraps."""
    n = len(index)
    if len(tile) > n:
        return
    tile_rows = tile.sites()
    step = max(1, CHUNK_CELLS // len(tile_rows))
    for k in range(0, n, step):
        cells = translate_right(group, tile_rows, rows[k:k + step])
        pos = np.minimum(np.searchsorted(index, cells), n - 1)
        inside = (index[pos] == cells).all(axis=1)
        yield from zip((np.flatnonzero(inside) + k).tolist(), pos[inside].tolist())


def cover(T, tiling: TilingPlan, seq: FolnerSequence) -> Cover:
    """Greedy cover of T (Runs or a nonempty index set), largest scale first.

    Candidate centers are scanned in increasing element order; a center is
    accepted iff its tile lies inside T and at least a (1-eps/2) fraction
    of it is still uncovered.  The pass reads each candidate's cells as
    positions in sorted T against one covered flag per position (see the
    module docstring); T's sites are built once, each tile's at most once per
    scale.  An empty T or a negative index raises ValueError, a product
    past +/-2**40 CoordinateRangeError.  The report of the four assertions
    is attached (covers of sets outside the plan's certified range may fail
    assertion 2; they are reported, not rejected).
    """
    group = seq.group
    rows = runs_of(group, T).sites()
    index = pack_rows(rows)
    order = np.argsort(index)
    index, rows = index[order], rows[order]
    candidates = index.tolist()
    flags = bytearray(len(candidates))  # flags[k]: candidates[k] is covered
    scale_centers: dict = {}
    for j in reversed(tiling.scales):
        tile = seq.runs(j)
        # fresh counts cells, so fresh >= (1 - eps/2)|tile| iff fresh >= need
        need = math.ceil((1 - tiling.eps / 2) * len(tile))
        centers = []
        for k, row in _cell_rows(group, tile, index, rows):
            if len(row) - sum(map(flags.__getitem__, row)) >= need:
                centers.append(candidates[k])
                for p in row:
                    flags[p] = 1
        scale_centers[j] = tuple(centers)
    cov = Cover(tiling, scale_centers)
    return replace(cov, report=verify_cover(T, cov, seq))


def verify_cover(T, cov: Cover, seq: FolnerSequence) -> CoverReport:
    """Recompute the four assertions from T, each tile's runs, the centers
    and the plan's eps alone, exactly; ``cov.report`` is not read.  Each
    scale's centers are translated ``CHUNK_CELLS`` cells at a time; all
    cells, sorted once, are located in T's sorted indices (from T's runs, as
    in ``cover``) and counted with their repeats for the mass and the cells
    outside T, and without them for the union.  An empty T or a negative
    index raises ValueError, a cell past +/-2**40 CoordinateRangeError."""
    group = seq.group
    index = np.sort(pack_rows(runs_of(group, T).sites()))
    eps = cov.plan.eps
    parts = [index[:0]]  # a cover without centers still concatenates
    for j, centers in cov.scale_centers.items():
        if not centers:
            continue
        tile = seq.runs(j).sites()
        at = group.decode_array(centers)
        step = max(1, CHUNK_CELLS // len(tile))
        parts += [translate_right(group, tile, at[k:k + step]).ravel()
                  for k in range(0, len(at), step)]
    cells = np.sort(np.concatenate(parts))
    inside = np.searchsorted(index, cells, "right") > np.searchsorted(index, cells)
    first = np.ones(len(cells), dtype=bool)  # the first of each run of equal cells
    first[1:] = cells[1:] != cells[:-1]
    # Python ints, so that the report holds no numpy scalar
    found, union, hit = (int(np.count_nonzero(m)) for m in (inside, first, first & inside))
    size, mass = len(index), len(cells)
    # in CoverReport's field order
    return CoverReport(
        AssertionCheck(Fraction(mass - found), Fraction(0)),
        AssertionCheck(Fraction(size - hit), eps * size),
        AssertionCheck(Fraction(mass), (1 + eps) * union),
        AssertionCheck(Fraction(mass), (1 + eps) * size),
    )


@dataclass(frozen=True)
class CountingBoundReport:
    """Log-count bound for patterns constrained on the tiles of a cover.

    ``total_bits`` bounds log2 of the number of window patterns whose
    restriction to every placed tile is admissible, with residual sites
    free.  When an entropy value ``h`` is supplied, the report also checks
    total_bits <= ((1+eps)*(h+eps) + eps*log2|A|) * |T|.
    """

    total_bits: float
    per_scale: tuple[tuple[int, int, int, float], ...]  # (scale index, tile size, centers, log2 count)
    residual_sites: int
    residual_bits: float
    window_size: int
    eps_float: float
    h: float | None
    rhs_bits: float | None
    holds: bool | None


def q_count_bound(sft: SFT, T, cover: Cover, seq: FolnerSequence, h: float | None = None,
                  budget: int | None = DEFAULT_BUDGET) -> CountingBoundReport:
    """Per-tile counting bound over a quasi-tiling cover of the window T, at
    the eps of ``cover.plan``.  Every scale with centers counts, in
    increasing order, its tile read as runs (``seq.runs``); the cells outside
    T and the residual sites are those ``verify_cover`` recounts from the
    centers, so a report handed in with the cover is not read.

    Raises ValueError for a cover reaching outside T: a tile there has no
    restriction to the window, so its count bounds nothing."""
    T = runs_of(seq.group, T)
    report = verify_cover(T, cover, seq)
    outside = report.tiles_inside.lhs
    if outside:
        raise ValueError(f"cover places {outside} tile cells outside the window of size {len(T)}")
    asize = sft.alphabet.size
    per_scale = []
    total = 0.0
    for j, centers in sorted(cover.scale_centers.items()):
        if not centers:
            continue
        tile = seq.runs(j)
        size = len(tile)
        count = admissible_patterns(sft, tile, budget=budget)
        if count == 0:
            raise ValueError(f"no admissible pattern on window {j} of size {size}")
        bits = math.log2(count)
        per_scale.append((j, size, len(centers), bits))
        total += bits * len(centers)
    residual = int(report.residue_small.lhs)
    residual_bits = residual * math.log2(asize)
    total += residual_bits
    eps = float(cover.plan.eps)
    rhs = holds = None
    if h is not None:
        rhs = ((1 + eps) * (h + eps) + eps * math.log2(asize)) * len(T)
        holds = total <= rhs
    return CountingBoundReport(
        total_bits=total,
        per_scale=tuple(per_scale),
        residual_sites=residual,
        residual_bits=residual_bits,
        window_size=len(T),
        eps_float=eps,
        h=h,
        rhs_bits=rhs,
        holds=holds,
    )
