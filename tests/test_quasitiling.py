"""Tile planning, greedy covers, and the counting bound they feed."""

import csv
import math
import random
from contextlib import contextmanager
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from amenlab import groups, quasitiling
from amenlab.cli import main
from amenlab.folner import FolnerSequence, builtin_families, product_size
from amenlab.groups import (
    CoordinateRangeError,
    get_group,
    normalize_subset,
    pack_rows,
    set_product,
)
from amenlab.quasitiling import (
    AssertionCheck,
    Cover,
    CoverReport,
    PlanningError,
    TilingPlan,
    _invariance_defect,
    _padded,
    cover,
    plan,
    q_count_bound,
    scale_count,
    verify_cover,
)
from amenlab.setcodec import random_connected_subset
from amenlab.symbolic import golden_mean_sft, parse_sft, SFT, binary_alphabet

Z = get_group("z")
Z2 = get_group("z2")
H3 = get_group("h3")

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def z_boxes():
    return builtin_families(Z)["boxes"]


# -- scale counts ------------------------------------------------------------


def test_scale_count_frozen_values():
    assert scale_count(HALF) == 3
    assert scale_count(QUARTER) == 11
    assert scale_count(Fraction(9, 10)) == 1
    assert scale_count(Fraction(1, 3000)) == 48035
    assert scale_count(Fraction(1, 10**4)) == 184203


def test_scale_count_matches_the_exact_power_loop():
    def by_powers(eps):
        shrink = 1 - eps / 2
        k, power = 1, shrink
        while power > eps:
            power *= shrink
            k += 1
        return k

    rng = random.Random(3000)
    for _ in range(300):
        den = rng.randint(2, 201)
        eps = Fraction(rng.randint(1, den - 1), den)
        assert scale_count(eps) == by_powers(eps), eps


def test_scale_count_matches_log_formula():
    for eps in (HALF, QUARTER, Fraction(1, 8), Fraction(3, 5)):
        expect = math.ceil(math.log(eps) / math.log(1 - eps / 2))
        assert scale_count(eps) == expect


def test_scale_count_domain():
    with pytest.raises(ValueError):
        scale_count(0)
    with pytest.raises(ValueError):
        scale_count(1)


# -- invariance defects -------------------------------------------------------


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_invariance_defect_of_windows_without_the_identity(group):
    boxes = builtin_families(group)["boxes"]
    g = group.generators[0]
    shifted = FolnerSequence(group, "shifted", 1,
                             lambda i: normalize_subset(set_product(group, boxes.subset(i), (g,))))
    for j in range(1, 4):
        K = shifted.subset(j)
        assert group.identity not in K
        for i in range(1, 7):
            F = frozenset(shifted.subset(i))
            want = Fraction(len(set_product(group, K, F) - F), len(F))
            assert _invariance_defect(shifted, _padded(shifted, j), i) == want, (j, i)


@pytest.mark.parametrize("group", [Z, Z2, H3], ids=lambda g: g.name)
def test_invariance_defect_of_box_windows_matches_the_set_product(group):
    # box windows are read as runs from their sides; the oracle builds them
    small = group is H3
    for family, top in (("boxes", 4 if small else 6), ("dyadic", 2 if small else 3)):
        seq = builtin_families(group)[family]
        for j in seq.indices(top):
            for i in seq.indices(top):
                F = frozenset(seq.subset(i))
                want = Fraction(len(set_product(group, seq.subset(j), F) - F), len(F))
                assert _invariance_defect(seq, _padded(seq, j), i) == want, (family, j, i)


# -- planning -----------------------------------------------------------------


def test_plan_z_half_reaches_full_scale_count():
    p = plan(z_boxes(), HALF)
    assert p.scales == (1, 2, 8)
    assert p.threshold == 55


def test_plan_z_quarter_stops_at_horizon():
    # the classical schedule wants 11 scales; level three would need side 16
    # with threshold 239, far past the horizon, so the planner stops at two
    p = plan(z_boxes(), QUARTER)
    assert p.scales == (1, 2)
    assert p.threshold == 15


def test_plan_z2_golden_values():
    seq = builtin_families(Z2)["boxes"]
    p_half = plan(seq, HALF)
    assert p_half.scales == (1, 2)
    assert p_half.threshold == 16
    p_quarter = plan(seq, QUARTER)
    assert p_quarter.scales == (1, 2)
    assert p_quarter.threshold == 32


def test_plan_h3_small_horizon_is_singleton():
    p = plan(builtin_families(H3)["boxes"], HALF, horizon=10)
    assert p.scales == (1,)


def reference_plan(seq, eps, horizon):
    """The planner loop with the start scale's threshold searched up front
    and overwritten whenever a scale is appended."""
    eps = Fraction(eps)
    tol = eps / 4
    goal = scale_count(eps)
    scales = [seq.start]

    def threshold_for(j):
        for i in range(horizon, j, -1):
            if _invariance_defect(seq, _padded(seq, j), i) > tol:
                return i
        return j

    threshold = threshold_for(scales[-1])
    while len(scales) < goal:
        nxt = None
        for j in range(scales[-1] + 1, horizon + 1):
            if _invariance_defect(seq, _padded(seq, scales[-1]), j) <= tol:
                nxt = j
                break
        if nxt is None:
            break
        n_next = threshold_for(nxt)
        if n_next > horizon - 3:
            break
        scales.append(nxt)
        threshold = n_next
    return TilingPlan(eps, tuple(scales), threshold)


# horizons whose windows stay within about 10^4 sites
PLAN_HORIZONS = {
    ("z", "boxes"): (3, 12, 30, 64),
    ("z2", "boxes"): (3, 10, 24, 40),
    ("z3", "boxes"): (3, 6, 10, 14),
    ("h3", "boxes"): (3, 6, 10),
    ("z", "dyadic"): (1, 4, 8),
    ("z2", "dyadic"): (1, 3, 5),
    ("z3", "dyadic"): (1, 2, 4),
    ("h3", "dyadic"): (1, 2, 3),
}


@pytest.mark.parametrize("gid,family", list(PLAN_HORIZONS),
                         ids=[f"{gid}-{family}" for gid, family in PLAN_HORIZONS])
def test_plan_matches_the_reference_loop(gid, family):
    seq = builtin_families(get_group(gid))[family]
    for eps in (HALF, QUARTER, Fraction(1, 8), Fraction(3, 4)):
        for horizon in PLAN_HORIZONS[gid, family]:
            assert plan(seq, eps, horizon) == reference_plan(seq, eps, horizon), (eps, horizon)


def test_plan_searches_only_the_top_scale_threshold(monkeypatch):
    calls = []
    padded = []

    def counting(group, A, B):
        calls.append(len(A))
        return product_size(group, A, B)

    def padding(seq, j):
        padded.append(j)
        return _padded(seq, j)

    monkeypatch.setattr(quasitiling, "product_size", counting)
    monkeypatch.setattr(quasitiling, "_padded", padding)
    assert plan(builtin_families(Z2)["boxes"], QUARTER) == TilingPlan(QUARTER, (1, 2), 32)
    # searching the start scale's threshold too would add 63 calls
    assert len(calls) == 66
    # each K is padded with the identity once, not once per call: the scales 1
    # and 2, and 33, the third scale whose threshold passes the horizon
    assert padded == [1, 2, 33]


def test_plan_validation():
    with pytest.raises(ValueError):
        plan(z_boxes(), Fraction(3, 2))
    with pytest.raises(PlanningError):
        plan(z_boxes(), HALF, horizon=0)


def test_plan_past_the_coordinate_range_names_the_window_and_the_horizon():
    # z dyadic window 40 is in range, but its product with the scale-1 tile is not
    with pytest.raises(PlanningError) as info:
        plan(builtin_families(get_group("z"))["dyadic"], Fraction(1, 4), horizon=40)
    assert isinstance(info.value.__cause__, CoordinateRangeError)
    assert str(info.value) == (
        "coordinate 1099511627790 outside supported range +/-2**40 while planning on "
        "window 40 of the z dyadic family: plan to a smaller horizon")


def test_tiling_plan_invariants():
    with pytest.raises(ValueError):
        TilingPlan(HALF, (), 0)
    with pytest.raises(ValueError):
        TilingPlan(HALF, (2, 2), 0)
    with pytest.raises(ValueError):
        TilingPlan(Fraction(0), (1,), 0)


def test_assertion_check_is_lhs_at_most_rhs():
    assert [f.name for f in fields(AssertionCheck)] == ["lhs", "rhs"]
    assert AssertionCheck(Fraction(1), Fraction(1)).holds
    assert not AssertionCheck(Fraction(3, 2), Fraction(1)).holds


# -- covers --------------------------------------------------------------------


def test_perfect_tiling_interval():
    # freshness demand (1 - eps/2)|tile| = 9.5 forbids any overlap
    seq = z_boxes()
    tiling = TilingPlan(Fraction(1, 10), (10,), 0)
    T = seq.subset(100)
    cov = cover(T, tiling, seq)
    centers = {Z.decode(c)[0] for c in cov.scale_centers[10]}
    assert centers == {10 * k for k in range(10)}
    rep = cov.report
    assert rep.all_hold
    assert rep.residue_small.lhs == 0
    # exact tiling: total tile mass equals the covered region, all of T
    assert rep.mass_vs_covered.lhs == len(T) == 100


def test_cover_z_half_above_threshold():
    seq = z_boxes()
    p = plan(seq, HALF)
    for i in (56, 57, 60):
        cov = cover(seq.subset(i), p, seq)
        assert cov.report.all_hold
        assert cov.report.residue_small.lhs == 0  # singleton scale mops up


def test_cover_z2_quarter_above_threshold():
    seq = builtin_families(Z2)["boxes"]
    p = plan(seq, QUARTER)
    for i in (33, 35):
        cov = cover(seq.subset(i), p, seq)
        assert cov.report.all_hold
        assert cov.report.mass_vs_total.lhs <= cov.report.mass_vs_total.rhs


def test_cover_h3_box_assertions():
    seq = builtin_families(H3)["boxes"]
    p = plan(seq, HALF, horizon=10)
    cov = cover(seq.subset(8), p, seq)
    assert cov.report.all_hold


def test_cover_deterministic():
    seq = z_boxes()
    p = plan(seq, HALF)
    a = cover(seq.subset(60), p, seq)
    b = cover(seq.subset(60), p, seq)
    assert a.scale_centers == b.scale_centers


def test_cover_multiscale_uses_large_tiles():
    seq = z_boxes()
    p = plan(seq, HALF)
    cov = cover(seq.subset(60), p, seq)
    # need = 6 fresh cells per 8-tile, so greedy steps by 6 up to 48,
    # leaving [56, 60) for two 2-tiles; singletons stay idle
    assert sorted(Z.decode(c)[0] for c in cov.scale_centers[8]) == list(range(0, 54, 6))
    assert sorted(Z.decode(c)[0] for c in cov.scale_centers[2]) == [56, 58]
    assert len(cov.scale_centers[1]) == 0
    assert cov.report.residue_small.lhs == 0


def test_empty_cover_report():
    seq = z_boxes()
    tiling = TilingPlan(HALF, (1, 2), 10)
    empty = Cover(tiling, {1: (), 2: ()})
    rep = verify_cover(seq.subset(20), empty, seq)
    assert rep.tiles_inside.holds
    assert not rep.residue_small.holds
    assert rep.mass_vs_covered.holds
    assert rep.mass_vs_total.holds


def test_oversized_tile_reports_failure_without_abort():
    seq = z_boxes()
    tiling = TilingPlan(QUARTER, (10,), 0)
    cov = cover(seq.subset(5), tiling, seq)
    assert cov.scale_centers[10] == ()
    assert not cov.report.residue_small.holds
    assert cov.report.tiles_inside.holds


def reference_verify(T, cov, seq):
    """The per-center verifier: one scalar translate (``set_product``) per
    center, and a Python set of every covered index."""
    group = seq.group
    Tset = frozenset(T)
    eps = cov.plan.eps
    union = set()
    mass = 0
    outside = 0
    for j, centers in cov.scale_centers.items():
        tile = seq.subset(j)
        for c in centers:
            cells = set_product(group, tile, (c,))
            outside += len(cells - Tset)
            union.update(cells)
            mass += len(tile)
    size = len(Tset)
    return CoverReport(
        AssertionCheck(Fraction(outside), Fraction(0)),
        AssertionCheck(Fraction(size - len(union & Tset)), eps * size),
        AssertionCheck(Fraction(mass), (1 + eps) * len(union)),
        AssertionCheck(Fraction(mass), (1 + eps) * size),
    )


def reference_cover(T, tiling, seq):
    """The per-candidate greedy loop: one scalar translate per candidate at
    every scale, tested against the (1 - eps/2)|tile| demand as a Fraction."""
    group = seq.group
    Tset = frozenset(T)
    candidates = sorted(Tset)
    covered = set()
    scale_centers = {}
    for j in reversed(tiling.scales):
        tile = seq.subset(j)
        need = (1 - tiling.eps / 2) * len(tile)
        centers = []
        for c in candidates:
            cells = set_product(group, tile, (c,))
            if not cells <= Tset:
                continue
            fresh = sum(1 for x in cells if x not in covered)
            if fresh >= need:
                centers.append(c)
                covered.update(cells)
        scale_centers[j] = tuple(centers)
    cov = Cover(tiling, scale_centers)
    return replace(cov, report=reference_verify(T, cov, seq))


@contextmanager
def translates(monkeypatch):
    """Record each ``quasitiling.translate_right`` call made inside the block
    as (phase, the indices of its center rows, the dtype of its cells), the
    phase being "verify" inside ``verify_cover`` and "cover" elsewhere."""
    calls = []
    phase = ["cover"]
    translate, verify = quasitiling.translate_right, quasitiling.verify_cover

    def spy_translate(group, sites, centers):
        call = [phase[-1], pack_rows(centers).tolist(), None]  # the rows, also if it raises
        calls.append(call)
        cells = translate(group, sites, centers)
        call[2] = cells.dtype
        return cells

    def spy_verify(*args):
        phase.append("verify")
        try:
            return verify(*args)
        finally:
            phase.pop()

    monkeypatch.setattr(quasitiling, "translate_right", spy_translate)
    monkeypatch.setattr(quasitiling, "verify_cover", spy_verify)
    try:
        yield calls
    finally:
        monkeypatch.setattr(quasitiling, "translate_right", translate)
        monkeypatch.setattr(quasitiling, "verify_cover", verify)


def rows_of(calls, phase):
    """The center rows translated in ``phase``, call after call."""
    return [c for p, rows, _ in calls if p == phase for c in rows]


def assert_plain_report(report):
    """Every lhs and rhs is a Fraction of Python ints, so ``holds`` is a bool."""
    for f in fields(report):
        check = getattr(report, f.name)
        assert type(check.holds) is bool, f.name
        assert {type(x) for c in (check.lhs, check.rhs)
                for x in (c.numerator, c.denominator)} == {int}, f.name


def assert_cover_is_the_reference(monkeypatch, T, tiling, seq):
    """cover equals reference_cover on the centers and every report field (so verify_cover's report equals reference_verify's).  The
    greedy pass translates every candidate row once per scale whose tile
    fits inside T, and verify_cover every center row once, scale by scale."""
    with translates(monkeypatch) as calls:
        got = cover(T, tiling, seq)
    assert got == reference_cover(T, tiling, seq)
    assert_plain_report(got.report)
    fitting = sum(len(seq.subset(j)) <= len(frozenset(T)) for j in tiling.scales)
    assert rows_of(calls, "cover") == sorted(frozenset(T)) * fitting
    assert rows_of(calls, "verify") == [c for cs in got.scale_centers.values() for c in cs]
    return got


COVER_EPS = (HALF, QUARTER, Fraction(1, 8), Fraction(3, 4))
# (group, family, horizon, windows covered)
COVER_FAMILIES = [
    ("z", "boxes", 30, (1, 7, 31, 60)),
    ("z2", "boxes", 24, (1, 5, 17, 25)),
    ("z3", "boxes", 10, (2, 7, 11)),
    ("h3", "boxes", 6, (2, 5, 7)),
    ("z", "dyadic", 6, (0, 3, 7, 9)),
]


@pytest.mark.parametrize("chunk", [1 << 18, 7], ids=["chunk 2^18", "chunk 7"])
@pytest.mark.parametrize("gid,family,horizon,windows", COVER_FAMILIES,
                         ids=[f"{g}-{f}" for g, f, _, _ in COVER_FAMILIES])
def test_cover_matches_the_reference_on_windows(monkeypatch, gid, family, horizon,
                                               windows, chunk):
    # a chunk of 7 cells splits every scale's candidates across many chunks
    monkeypatch.setattr(quasitiling, "CHUNK_CELLS", chunk)
    seq = builtin_families(get_group(gid))[family]
    plans = {plan(seq, eps, horizon) for eps in COVER_EPS}
    # overlapping tiles: (1 - eps/2)|tile| below |tile|, and at an integer
    top = seq.start + 2
    plans |= {TilingPlan(eps, tuple(seq.indices(top)), 0) for eps in (HALF, Fraction(2, 3))}
    for tiling in sorted(plans, key=repr):
        for i in windows:
            assert_cover_is_the_reference(monkeypatch, seq.subset(i), tiling, seq)


@pytest.mark.parametrize("gid", ["z", "z2", "z3", "h3"])
def test_cover_matches_the_reference_on_irregular_windows(monkeypatch, gid):
    group = get_group(gid)
    seq = builtin_families(group)["boxes"]
    g = group.generators[0]
    windows = []
    for size, seed in ((1, 1), (40, 2), (150, 3), (300, 4)):
        T = random_connected_subset(group, size, seed)
        windows += [T, set_product(group, T, (g,))]
    box = seq.subset(40 if group is Z else 4)
    windows += [box[::3] + box[1::3],  # holed: every third site gone
                set_product(group, box, (group.generators[-1],)),
                set_product(group, set_product(group, box, (g,)), (g,))]
    assert any(group.identity not in frozenset(T) for T in windows)
    for eps in (HALF, QUARTER):
        for scales in ((1, 2), (1, 3), (2,), (1, 2, 3)):
            tiling = TilingPlan(eps, scales, 0)
            for T in windows:
                assert_cover_is_the_reference(monkeypatch, T, tiling, seq)
            # an empty window is refused, as every window reader refuses it
            with pytest.raises(ValueError, match="window must be nonempty"):
                cover((), tiling, seq)


@pytest.mark.parametrize("gid", ["z", "z2", "h3"])
def test_cover_with_a_tile_larger_than_the_window_matches_the_reference(monkeypatch, gid):
    seq = builtin_families(get_group(gid))["boxes"]
    for T in (seq.subset(1), seq.subset(2), random_connected_subset(seq.group, 2, 9)):
        for scales in ((3,), (1, 6)):
            cov = assert_cover_is_the_reference(monkeypatch, T, TilingPlan(QUARTER, scales, 0), seq)
            assert cov.scale_centers[scales[-1]] == ()


def test_cover_builds_no_sites_of_a_tile_larger_than_the_window(monkeypatch):
    # z dyadic: the tiles of scales 16 and 32 have 2**16 and 2**32 sites, T has
    # 1,024; the spy refuses to build any site list longer than T
    seq = builtin_families(Z)["dyadic"]
    T = seq.runs(10)
    built = []
    sites = groups.Runs.sites

    def spy_sites(runs):
        built.append(len(runs))
        assert len(runs) <= len(T), "sites of a tile that cannot fit"
        return sites(runs)

    monkeypatch.setattr(groups.Runs, "sites", spy_sites)
    tiling = TilingPlan(QUARTER, (0, 1, 4, 8, 16, 32), 0)
    cov = cover(T, tiling, seq)
    assert cov.scale_centers[16] == cov.scale_centers[32] == ()
    assert max(built) == len(T) == 1024
    fitting = cover(T, TilingPlan(QUARTER, (0, 1, 4, 8), 0), seq)
    assert {j: cov.scale_centers[j] for j in (0, 1, 4, 8)} == fitting.scale_centers
    assert cov.report == fitting.report


def test_cover_near_the_coordinate_range_takes_the_one_route(monkeypatch):
    # a site at -(2**40 - 1) puts the law's bound for the 3-site tile past
    # 2**40 although every product stays in range: compose_rows checks each
    # product on Python ints, and every row is still translated once per scale
    seq = z_boxes()
    far = [Z.encode((-(1 << 40) + 1 + k,)) for k in range(5)]
    T = seq.subset(20) + tuple(far)
    for eps in (HALF, QUARTER):
        cov = assert_cover_is_the_reference(monkeypatch, T, TilingPlan(eps, (1, 3), 0), seq)
        assert set(far) & set(cov.scale_centers[3])
        assert cov.report.residue_small.lhs == 0
    # a product at 2**40 + 1 raises in cover as in the reference, with the
    # same message, in the first translate: the top scale's 21 candidate rows,
    # and verify_cover never runs
    T = seq.subset(20) + (Z.encode(((1 << 40) - 1,)),)
    tiling = TilingPlan(HALF, (1, 3), 0)
    with pytest.raises(CoordinateRangeError) as want:
        reference_cover(T, tiling, seq)
    with translates(monkeypatch) as calls, pytest.raises(CoordinateRangeError) as got:
        cover(T, tiling, seq)
    assert [(phase, rows) for phase, rows, _ in calls] == [("cover", sorted(T))]
    assert str(got.value) == str(want.value) == (
        "coordinate 1099511627777 outside supported range +/-2**40")
    # a negative index is no element: ValueError on both, before any translate
    for run in (reference_cover, cover):
        with translates(monkeypatch) as calls, pytest.raises(
                ValueError, match="element indices are naturals"):
            run((-1, 0, 1), tiling, seq)
        assert calls == []


def test_cover_of_a_window_with_indices_past_2_62_takes_the_one_route(monkeypatch):
    # z7: the box of side 2 packs below 2**62, but (0,...,0,2) does not; cover
    # and verify_cover each pack T, and the greedy pass translates the side-2
    # tile, then the singleton tile, each in int64 only where the far corner
    # packs below 2**62
    z7 = get_group("z7")
    seq = builtin_families(z7)["boxes"]
    box = seq.subset(2)
    assert max(box) < 1 << 62
    line = tuple(z7.encode((0,) * 6 + (k,)) for k in (2, 3))
    assert min(line) >= 1 << 62
    dtypes = []
    real = quasitiling.pack_rows
    monkeypatch.setattr(quasitiling, "pack_rows",
                        lambda rows: dtypes.append(real(rows).dtype) or real(rows))
    wide, narrow = np.dtype(object), np.dtype(np.int64)
    for T, packed, translated in ((box + line, [wide] * 2, [wide] * 2),
                                  (box, [narrow] * 2, [wide, narrow])):
        for eps in (HALF, QUARTER):
            dtypes.clear()
            with translates(monkeypatch) as calls:
                assert_cover_is_the_reference(monkeypatch, T, TilingPlan(eps, (1, 2), 0), seq)
            assert dtypes == packed
            assert [dtype for phase, _, dtype in calls if phase == "cover"] == translated


def test_cover_on_h3_past_the_index_limit_takes_the_one_route(monkeypatch):
    # T's largest |coordinate| per axis is (1, 2**15 - 1, 3) and packs below
    # 2**62; with the side-2 tile's (1, 1, 3) the law gives (2, 2**15, 2**15 + 5),
    # whose far corner packs past 2**62 (the sum (2, 2**15, 6) would not)
    seq = builtin_families(H3)["boxes"]
    T = seq.subset(2) + tuple(H3.encode((0, (1 << 15) - 1, z)) for z in (0, 1))
    for eps in (HALF, QUARTER):
        assert_cover_is_the_reference(monkeypatch, T, TilingPlan(eps, (1, 2), 0), seq)


def test_tile_cli_translates_once_per_center(tmp_path, monkeypatch):
    # the greedy pass translates each of the 1,600 candidate rows once per
    # scale (2 scales), and verify_cover each of the 400 centers once
    out = tmp_path / "tile.csv"
    with translates(monkeypatch) as calls:
        assert main(["tile", "--group", "z2", "--family", "boxes", "--eps", "1/4",
                     "--i", "40", "--out", str(out)]) == 0
    T = builtin_families(Z2)["boxes"].subset(40)
    assert rows_of(calls, "cover") == sorted(T) * 2
    centers = [row[2] for row in csv.reader(out.read_text().splitlines())
               if row[:1] == ["center"]]
    verified = rows_of(calls, "verify")
    assert len(verified) == len(set(verified)) == len(centers) == 400
    assert sorted(Z2.format_elements(verified)) == sorted(centers)


def assert_verify_is_the_reference(T, cov, seq):
    """verify_cover equals reference_verify field for field; the names of
    the assertions that fail."""
    got = verify_cover(T, cov, seq)
    assert got == reference_verify(T, cov, seq)
    assert_plain_report(got)
    return {f.name for f in fields(got) if not getattr(got, f.name).holds}


@pytest.mark.parametrize("chunk", [1 << 18, 7], ids=["chunk 2^18", "chunk 7"])
def test_verify_cover_matches_the_reference_on_hand_built_covers(monkeypatch, chunk):
    # T = [0, 100) tiled exactly by ten 10-tiles; eps = 1/100 leaves no room
    monkeypatch.setattr(quasitiling, "CHUNK_CELLS", chunk)
    seq = z_boxes()
    tiling = TilingPlan(Fraction(1, 100), (1, 10), 0)
    T = seq.subset(100)
    tiles = tuple(Z.encode((10 * k,)) for k in range(10))
    off = Z.encode((100,))  # its tile [100, 110) lies outside T
    cases = [
        (T, {10: tiles, 1: ()}, set(), None),
        # a center moved out of T leaves [90, 100) uncovered
        (T, {10: tiles[:-1] + (off,), 1: ()}, {"tiles_inside", "residue_small"}, (10, 100)),
        (T, {10: tiles[:-1], 1: ()}, {"residue_small"}, (0, 90)),  # a dropped center
        # a duplicated center counts twice in the mass, and outside T twice outside
        (T, {10: tiles + tiles[:1], 1: ()}, {"mass_vs_covered", "mass_vs_total"}, (0, 110)),
        (T, {10: tiles + (off, off), 1: ()},
         {"tiles_inside", "mass_vs_covered", "mass_vs_total"}, (20, 120)),
        # singleton tiles on top of the 10-tiles
        (T, {10: tiles, 1: tiles}, {"mass_vs_covered", "mass_vs_total"}, (0, 110)),
        # empty scales
        (T, {10: (), 1: ()}, {"residue_small"}, (0, 0)),
    ]
    for k, (window, centers, failing, counts) in enumerate(cases):
        cov = Cover(tiling, centers)
        assert assert_verify_is_the_reference(window, cov, seq) == failing, k
        if counts is not None:
            rep = verify_cover(window, cov, seq)
            assert (rep.tiles_inside.lhs, rep.mass_vs_total.lhs) == counts, k
    # an empty T is refused, with and without centers
    for centers in ({10: tiles, 1: ()}, {10: (), 1: ()}):
        with pytest.raises(ValueError, match="window must be nonempty"):
            verify_cover((), Cover(tiling, centers), seq)


def test_verify_cover_past_2_62_matches_the_reference():
    # z7: T mixes a box packed below 2**62 with a line packed past it; the
    # covers duplicate a wide center and reach past T on the wide line
    z7 = get_group("z7")
    seq = builtin_families(z7)["boxes"]
    line = tuple(z7.encode((0,) * 6 + (k,)) for k in (2, 3))
    T = seq.subset(2) + line
    far = z7.encode((0,) * 6 + (5,))
    assert min(line + (far,)) >= 1 << 62
    tiling = TilingPlan(Fraction(1, 100), (1, 2), 0)
    got = cover(T, tiling, seq)
    assert assert_verify_is_the_reference(T, got, seq) == set()
    for centers, failing, outside in (
            # mass 128 + 4 against 1.01 x 130 sites
            ({2: (0,), 1: line + line}, {"mass_vs_covered", "mass_vs_total"}, 0),
            # 126 + 128 + 2 cells outside T, 2 of its 130 sites covered
            ({2: (line[0], far), 1: (far, far)},
             {"tiles_inside", "residue_small", "mass_vs_total"}, 256)):
        cov = Cover(tiling, centers)
        assert assert_verify_is_the_reference(T, cov, seq) == failing
        assert verify_cover(T, cov, seq).tiles_inside.lhs == outside


def test_verify_cover_past_the_coordinate_range_raises_as_the_reference():
    # the 10-tile at 2**40 - 1 reaches 2**40 + 8; the first cell past the
    # range is 2**40 + 1 on both sides
    seq = z_boxes()
    tiling = TilingPlan(HALF, (10,), 0)
    cov = Cover(tiling, {10: (0, Z.encode(((1 << 40) - 1,)))})
    with pytest.raises(CoordinateRangeError) as want:
        reference_verify(seq.subset(20), cov, seq)
    with pytest.raises(CoordinateRangeError) as got:
        verify_cover(seq.subset(20), cov, seq)
    assert str(got.value) == str(want.value) == (
        "coordinate 1099511627777 outside supported range +/-2**40")


# -- counting bound ------------------------------------------------------------


def exact_interval_cover(seq, tiling, side, reach):
    """Hand-built cover of [0, reach) by disjoint [0, side) tiles."""
    centers = tuple(seq.group.encode((side * k,)) for k in range(reach // side))
    return Cover(tiling, {side: centers})


def test_q_bound_full_shift_exact_cover():
    seq = z_boxes()
    full = SFT(Z, binary_alphabet(), ())
    tiling = TilingPlan(Fraction(1, 10), (10,), 0)
    T = seq.subset(100)
    cov = cover(T, tiling, seq)
    rep = q_count_bound(full, T, cov, seq)
    assert rep.residual_sites == 0
    assert abs(rep.total_bits - 100 * math.log2(2)) < 1e-9


def test_q_bound_golden_mean_quarter():
    seq = z_boxes()
    sft = golden_mean_sft()
    tiling = TilingPlan(QUARTER, (10,), 0)
    T = seq.subset(100)
    cov = exact_interval_cover(seq, tiling, 10, 100)
    assert verify_cover(T, cov, seq).all_hold
    h = 0.694242
    rep = q_count_bound(sft, T, cov, seq, h=h)
    # ten tiles, each with fib(12) = 144 admissible words
    assert abs(rep.total_bits - 10 * math.log2(144)) < 1e-9
    assert rep.rhs_bits == pytest.approx(((1.25) * (h + 0.25) + 0.25) * 100)
    assert rep.holds
    assert rep.total_bits <= rep.rhs_bits


def test_q_bound_names_a_tile_without_admissible_patterns():
    seq = z_boxes()
    sft = parse_sft("alphabet 0 1\nZ:0=0\nZ:0=1\n")
    tiling = TilingPlan(QUARTER, (10,), 0)
    cov = exact_interval_cover(seq, tiling, 10, 100)
    with pytest.raises(ValueError, match="no admissible pattern on window 10 of size 10"):
        q_count_bound(sft, seq.subset(100), cov, seq)


def test_q_bound_rejects_a_cover_reaching_outside_the_window():
    # one 4-tile at Z:4 covers {4..7}; only 4 and 5 lie in T = {0..5}
    seq = z_boxes()
    full = SFT(Z, binary_alphabet(), ())
    tiling = TilingPlan(QUARTER, (4,), 0)
    cov = Cover(tiling, {4: (Z.encode((4,)),)})
    with pytest.raises(ValueError,
                       match="cover places 2 tile cells outside the window of size 6"):
        q_count_bound(full, seq.subset(6), cov, seq)


def test_q_bound_recounts_the_sites_the_centers_cover():
    # the full 2-shift on T = [0, 100) has 2**100 patterns, so any bound is at
    # least 100 bits; five 10-tiles on [0, 50) leave 50 residual sites at 1 bit
    seq = z_boxes()
    full = SFT(Z, binary_alphabet(), ())
    T = seq.subset(100)
    tens = tuple(Z.encode((10 * k,)) for k in range(5))
    ones = tuple(Z.encode((k,)) for k in range(50, 100))
    half = Cover(TilingPlan(QUARTER, (10,), 0), {10: tens})
    rep = q_count_bound(full, T, half, seq, h=0.0)
    assert (rep.residual_sites, rep.total_bits, rep.holds) == (50, 100.0, False)
    # the 1-tiles on [50, 100) are counted, also under a plan that lists
    # only scale 10: every scale with centers is a row, in increasing order
    for scales in ((1, 10), (10,)):
        both = Cover(TilingPlan(QUARTER, scales, 0), {10: tens, 1: ones})
        if scales == (1, 10):
            assert verify_cover(T, both, seq).all_hold
        rep = q_count_bound(full, T, both, seq, h=0.0)
        assert [row[:3] for row in rep.per_scale] == [(1, 1, 50), (10, 10, 5)]
        assert (rep.residual_sites, rep.total_bits, rep.holds) == (0, 100.0, False)


def test_q_bound_does_not_read_a_report_handed_in():
    # an all-true report on a cover of [0, 50) is ignored: verify_cover
    # recounts the 50 uncovered sites and the 2 cells past T
    seq = z_boxes()
    full = SFT(Z, binary_alphabet(), ())
    tiling = TilingPlan(QUARTER, (10,), 0)
    fake = CoverReport(*(AssertionCheck(Fraction(0), Fraction(0)),) * 4)
    assert fake.all_hold
    tens = tuple(Z.encode((10 * k,)) for k in range(5))
    cov = Cover(tiling, {10: tens}, report=fake)
    rep = q_count_bound(full, seq.subset(100), cov, seq, h=0.0)
    assert (rep.residual_sites, rep.total_bits, rep.holds) == (50, 100.0, False)
    assert verify_cover(seq.subset(100), cov, seq).residue_small.lhs == 50
    reaching = Cover(tiling, {10: (Z.encode((92,)),)}, report=fake)
    with pytest.raises(ValueError,
                       match="cover places 2 tile cells outside the window of size 100"):
        q_count_bound(full, seq.subset(100), reaching, seq)


def test_cover_takes_its_report_by_keyword_only():
    # a covered set in the third place is refused, not kept as the report
    tiling = TilingPlan(QUARTER, (10,), 0)
    with pytest.raises(TypeError):
        Cover(tiling, {10: ()}, frozenset())
    assert Cover(tiling, {10: ()}).report is None
