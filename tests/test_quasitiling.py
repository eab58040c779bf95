"""Tile planning, greedy covers, and the counting bound they feed."""

import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from amenlab import quasitiling
from amenlab.folner import FolnerSequence, builtin_families, product_size
from amenlab.groups import get_group, normalize_subset, set_product, translate_right
from amenlab.quasitiling import (
    AssertionCheck,
    Cover,
    PlanningError,
    TilingPlan,
    _invariance_defect,
    _padded,
    cover,
    plan,
    scale_count,
    verify_cover,
)
from amenlab.symbolic import golden_mean_sft, parse_sft, q_count_bound, SFT, binary_alphabet

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
                             lambda i: normalize_subset(translate_right(group, boxes.subset(i), g)))
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
    # exact tiling: total tile mass equals the covered region
    assert rep.mass_vs_covered.lhs == len(cov.covered) == 100


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
    assert len(cov.covered) == 60


def test_empty_cover_report():
    seq = z_boxes()
    tiling = TilingPlan(HALF, (1, 2), 10)
    empty = Cover(tiling, {1: (), 2: ()}, frozenset())
    rep = verify_cover(seq.subset(20), tiling, empty, seq)
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


# -- counting bound ------------------------------------------------------------


def exact_interval_cover(seq, tiling, side, reach):
    """Hand-built cover of [0, reach) by disjoint [0, side) tiles."""
    group = seq.group
    centers = tuple(group.encode((side * k,)) for k in range(reach // side))
    covered = frozenset(group.encode((c,)) for c in range(reach))
    return Cover(tiling, {side: centers}, covered)


def test_q_bound_full_shift_exact_cover():
    seq = z_boxes()
    full = SFT(Z, binary_alphabet(), ())
    tiling = TilingPlan(Fraction(1, 10), (10,), 0)
    T = seq.subset(100)
    cov = cover(T, tiling, seq)
    rep = q_count_bound(full, T, tiling, cov, seq)
    assert rep.residual_sites == 0
    assert abs(rep.total_bits - 100 * math.log2(2)) < 1e-9


def test_q_bound_golden_mean_quarter():
    seq = z_boxes()
    sft = golden_mean_sft()
    tiling = TilingPlan(QUARTER, (10,), 0)
    T = seq.subset(100)
    cov = exact_interval_cover(seq, tiling, 10, 100)
    assert verify_cover(T, tiling, cov, seq).all_hold
    h = 0.694242
    rep = q_count_bound(sft, T, tiling, cov, seq, h=h)
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
        q_count_bound(sft, seq.subset(100), tiling, cov, seq)


def test_q_bound_rejects_a_cover_reaching_outside_the_window():
    # one 4-tile at Z:4 covers {4..7}; only 4 and 5 lie in T = {0..5}
    seq = z_boxes()
    full = SFT(Z, binary_alphabet(), ())
    tiling = TilingPlan(QUARTER, (4,), 0)
    c = Z.encode((4,))
    cov = Cover(tiling, {4: (c,)}, translate_right(Z, seq.subset(4), c))
    with pytest.raises(ValueError, match="cover reaches 2 sites outside the window of size 6"):
        q_count_bound(full, seq.subset(6), tiling, cov, seq)
