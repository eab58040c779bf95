"""Window families: defects, temperedness, modesty, search."""

import csv
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenlab import folner, groups
from amenlab.complexity import FREQ_BLOCK, freq_length
from amenlab.errors import BudgetExceededError
from amenlab.folner import (
    DefectReport,
    FolnerSequence,
    Runs,
    inverse_runs,
    product_size,
    runs_of,
    runs_union,
    builtin_families,
    defect,
    defect_report,
    description_bits,
    generator_defect_counts,
    modest_search,
    series_tail,
    temperedness_constant,
    temperedness_witnesses,
)
from amenlab.groups import (
    COORD_LIMIT,
    INDEX_ARRAY_LIMIT,
    CoordinateRangeError,
    get_group,
    is_connected_with_identity,
    normalize_subset,
    set_product,
    subset_from_mask,
)
from amenlab.quasitiling import plan
from amenlab.rng import SplitMix64, derive
from amenlab.setcodec import encode_connected, random_connected_subset
from amenlab.symbolic import binary_alphabet
from reference import reference_box_runs, reference_description_bits

ROOT = Path(__file__).resolve().parent.parent
Z = get_group("z")
Z2 = get_group("z2")
H3 = get_group("h3")


def z_interval(a, b):
    return normalize_subset(Z.encode((k,)) for k in range(a, b))


# -- built-in families --------------------------------------------------


def test_z_boxes_members():
    seq = builtin_families(Z)["boxes"]
    assert seq.subset(3) == z_interval(0, 3)
    assert [len(seq.subset(i)) for i in seq.indices(5)] == [1, 2, 3, 4, 5]


def test_z2_box_sizes_quadratic():
    seq = builtin_families(Z2)["boxes"]
    assert [len(seq.subset(n)) for n in (1, 2, 5, 8)] == [1, 4, 25, 64]


def test_h3_box_sizes_quartic():
    seq = builtin_families(H3)["boxes"]
    assert [len(seq.subset(n)) for n in (1, 2, 3)] == [1, 16, 81]


def test_dyadic_family_shares_boxes():
    fams = builtin_families(Z)
    assert fams["dyadic"].subset(3) == fams["boxes"].subset(8)
    assert fams["dyadic"].start == 0
    assert len(fams["dyadic"].subset(0)) == 1


def _scalar_box(group, sides):
    return normalize_subset(group.encode(c) for c in product(*map(range, sides)))


@pytest.mark.parametrize("name", ["z", "z2", "z3", "z4", "z5", "z6", "h3"])
def test_builtin_members_match_the_scalar_build(name):
    group = get_group(name)
    fams = builtin_families(group)
    sides = (lambda n: (n, n, n * n)) if name == "h3" else (lambda n: (n,) * group.dimension)
    boxes, dyadic = {"z": (200, 12), "z2": (8, 6), "z3": (5, 4), "z4": (4, 3),
                     "z5": (3, 2), "z6": (3, 2), "h3": (6, 3)}[name]
    for i in range(1, boxes + 1):
        assert fams["boxes"].subset(i) == _scalar_box(group, sides(i))
    for i in range(dyadic + 1):
        assert fams["dyadic"].subset(i) == _scalar_box(group, sides(1 << i))


@pytest.mark.parametrize("name", ["z", "z2", "z3", "z4", "z5", "z6", "z7", "h3"])
def test_runs_sites_and_indices_match_the_scalar_pack(monkeypatch, name):
    # boxes, their runs' order of sites, and windows whose largest index
    # passes 2**62: the z6 box of side 3 (far corner of 63 bits) packs on
    # Python ints, the z7 box of side 2 (56 bits) in one int64 array
    group = get_group(name)
    d = group.dimension
    calls = []
    array = groups.pack_coords_array
    monkeypatch.setattr(groups, "pack_coords_array",
                        lambda cols: calls.append(cols[0].dtype) or array(cols))
    rng = SplitMix64(derive(71))
    windows = [folner._box_runs(group, n) for n in (1, 2, 3)]
    for trial in range(6):
        corner = [rng.randrange(41) - 20 for _ in range(d)]
        sides = [1 + rng.randrange(4) for _ in range(d)]
        size = 1 + rng.randrange(30)
        windows.append(runs_of(group, _box(group, corner, sides)))
        windows.append(runs_of(group, random_connected_subset(group, size, trial)))
    wide, packed_as = [], []
    for runs in windows:
        rows = runs.sites()
        assert rows.dtype == np.int64 and rows.shape == (len(runs), d)
        want = [(*h[:-1], h[-1] + k)
                for h, n in zip(runs.heads.tolist(), runs.lengths.tolist()) for k in range(n)]
        assert [tuple(r) for r in rows.tolist()] == want
        packed = [groups.pack_coords(c) for c in want]
        assert list(runs) == packed
        calls.clear()
        assert runs.indices() == normalize_subset(packed)
        (dtype,) = calls
        wide.append(max(packed) >= INDEX_ARRAY_LIMIT)
        packed_as.append(dtype)
        assert dtype == object or not wide[-1]
    # a box holds its far corner, so its largest index picks the dtype exactly
    assert wide[:3] == [False, False, name in ("z6", "z7")]
    assert packed_as[:3] == [object if w else np.int64 for w in wide[:3]]


def test_box_past_the_coordinate_range_raises_before_building():
    # side 2**64 on z: the far corner 2**64 - 1 is range-checked first
    with pytest.raises(CoordinateRangeError, match=r"outside supported range \+/-2\*\*40"):
        builtin_families(Z)["dyadic"].subset(64)


@pytest.mark.parametrize("name", ["z", "z2", "z3", "z4", "z7", "h3"])
def test_box_runs_match_the_np_indices_reference(name):
    # equal values, and the same column-major layout that the column reads
    # (Runs.sites, _extremes, runs_union) and the frontier DP's C row order see;
    # z7 stops at side 9 (9^6 runs), since side 32 would hold 32^6
    group = get_group(name)
    dyadic = 3 if name == "z7" else 5
    for n in sorted({*range(1, 10), *(1 << i for i in range(dyadic + 1))}):
        got, want = folner._box_runs(group, n), reference_box_runs(group, n)
        for a, b in ((got.heads, want.heads), (got.lengths, want.lengths)):
            assert a.dtype == b.dtype == np.int64
            assert (a.shape, a.strides) == (b.shape, b.strides)
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name, n, coord", [
    ("h3", 2**20 + 1, 2**40 + 2**21),  # sides 2**20 in range, height (2**20 + 1)**2 - 1 not
    ("z3", 2**40 + 2, 2**40 + 1),
])
def test_box_runs_range_check_comes_before_any_allocation(monkeypatch, name, n, coord):
    def refuse(*args, **kwargs):
        raise AssertionError("a box array was allocated before the range check")

    for alloc in ("zeros", "empty", "full", "indices", "arange"):
        monkeypatch.setattr(np, alloc, refuse)
    with pytest.raises(CoordinateRangeError) as err:
        folner._box_runs(get_group(name), n)
    assert str(err.value) == f"coordinate {coord} outside supported range +/-2**40"


def test_sequence_index_validation():
    seq = builtin_families(Z)["boxes"]
    with pytest.raises(ValueError):
        seq.subset(0)
    with pytest.raises(ValueError):
        seq.indices(0)
    assert list(seq.indices(3)) == [1, 2, 3]
    assert list(builtin_families(Z).values())[0].name == "boxes"


# -- defects ---------------------------------------------------------------


def test_defect_interval_right_shift():
    F = z_interval(0, 10)
    assert defect(Z, F, Z.encode((1,))) == Fraction(1, 10)
    assert defect(Z, F, Z.identity) == 0


def test_defect_plane_box():
    seq = builtin_families(Z2)["boxes"]
    assert defect(Z2, seq.subset(8), Z2.encode((1, 0))) == Fraction(1, 8)


def test_defect_boxes_exact_one_over_n():
    for group in (Z, Z2):
        seq = builtin_families(group)["boxes"]
        for n in (2, 3, 7, 16):
            rep = defect_report(seq, n)
            assert rep.size == n**group.dimension
            assert all(v == Fraction(1, n) for _, v in rep.defects)
            assert rep.max_defect == Fraction(1, n)


def brute_h3_box_defect(n, gen):
    """Independent oracle: explicit triple arithmetic, no group codec."""
    box = {(a, b, c) for a in range(n) for b in range(n) for c in range(n * n)}
    ga, gb, gc = gen
    shifted = {(ga + a, gb + b, gc + c + ga * b) for (a, b, c) in box}
    return Fraction(len(shifted - box), len(box))


def test_h3_box_defects_match_brute_force():
    seq = builtin_families(H3)["boxes"]
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    for n in (2, 3, 6):
        rep = defect_report(seq, n)
        for (g, got), coords in zip(rep.defects, gens):
            assert got == brute_h3_box_defect(n, coords)
    # closed form for the x-shift at n=6: (n^3 + n(n-1)^2/2) / n^4
    assert defect_report(seq, 6).defects[0][1] == Fraction(97, 432)


def test_h3_max_defect_small_by_n16():
    seq = builtin_families(H3)["boxes"]
    assert defect_report(seq, 16).max_defect < Fraction(1, 10)


@pytest.mark.parametrize("name", ["z", "z2", "z3", "h3"])
def test_generator_defect_counts_match_defect_per_generator(name, monkeypatch):
    group = get_group(name)
    seq = builtin_families(group)["boxes"]
    sides = range(1, 5 if name != "z" else 12)
    windows = [seq.subset(n) for n in sides]
    windows += [random_connected_subset(group, size, seed)
                for size in (1, 2, 7, 40, 150) for seed in range(4)]
    want = [[defect(group, F, s) for s in group.generators] for F in windows]
    # each box once more as the family's runs; no input form takes a Cayley step
    windows += [seq.runs(n) for n in sides]
    want += want[:len(sides)]
    steps = []
    monkeypatch.setattr(group, "steps", lambda c: steps.append(c) or type(group).steps(group, c))
    for F, defects in zip(windows, want):
        counts = generator_defect_counts(group, F)
        assert [Fraction(k, len(F)) for k in counts] == defects
    assert steps == []


def _defect_counts_by_multiply(group, F):
    """|sF \\ F| per generator from one multiply per site and generator, or
    "range" where some s*f leaves the coordinate range."""
    Fset = frozenset(F)
    try:
        return tuple(len({group.multiply(s, f) for f in Fset} - Fset) for s in group.generators)
    except CoordinateRangeError:
        return "range"


@pytest.mark.parametrize("name", ["z", "z3", "h3"])
def test_generator_defect_counts_raise_where_a_per_site_multiply_does(name):
    """Single sites at every mix of 0, +/-3, +/-(2**40 - 1) and +/-2**40 per
    axis, alone and with the identity, and five-site runs that end at +2**40
    or start at -2**40: the counts, or CoordinateRangeError, as per site."""
    group = get_group(name)
    d = group.dimension
    edges = (0, 3, -3, COORD_LIMIT - 1, 1 - COORD_LIMIT, COORD_LIMIT, -COORD_LIMIT)
    windows = []
    for c in product(edges, repeat=d):
        windows += [(group.encode(c),), (group.identity, group.encode(c))]
    for prefix in product(edges, repeat=d - 1):
        for head in (COORD_LIMIT - 4, -COORD_LIMIT):
            windows.append(tuple(group.encode((*prefix, head + k)) for k in range(5)))
    outcomes = set()
    for F in windows:
        want = _defect_counts_by_multiply(group, F)
        for form in (F, runs_of(group, F)):
            try:
                got = generator_defect_counts(group, form)
            except CoordinateRangeError:
                got = "range"
            assert got == want, [group.decode(f) for f in F]
        outcomes.add(want == "range")
    assert outcomes == {True, False}


def test_defect_rejects_empty():
    with pytest.raises(ValueError):
        defect(Z, (), Z.identity)
    with pytest.raises(ValueError, match="empty window"):
        generator_defect_counts(Z, ())


# -- temperedness ---------------------------------------------------------


def brute_tempered(seq, upto):
    group = seq.group
    best = Fraction(0)
    for i in seq.indices(upto):
        if i == seq.start:
            continue
        Fi = seq.subset(i)
        union = set()
        for j in seq.indices(i - 1):
            inv = {group.inverse(f) for f in seq.subset(j)}
            union |= set_product(group, inv, Fi)
        best = max(best, Fraction(len(union), len(Fi)))
    return best


def test_tempered_dyadic_frozen_value():
    seq = builtin_families(Z)["dyadic"]
    got = temperedness_constant(seq, 10)
    # union of (-2^j, 2^i) over j < i peaks at i=10: (3*2^9 - 1)/2^10
    assert got == Fraction(3 * 2**9 - 1, 2**10)
    assert got <= Fraction(3, 2)
    assert got == brute_tempered(seq, 10)


def test_tempered_boxes_frozen_value():
    seq = builtin_families(Z)["boxes"]
    got = temperedness_constant(seq, 20)
    # union over j<i is [-(i-2), i-1], so the ratio is (2i-2)/i; max at i=20
    assert got == Fraction(19, 10)
    assert got == brute_tempered(seq, 20)


def test_tempered_singleton_sequence_is_one():
    seq = FolnerSequence(Z, "dots", 1, lambda i: (Z.identity,))
    assert temperedness_constant(seq, 5) == 1


@pytest.mark.parametrize("name,family,upto", [
    ("z2", "boxes", 7), ("h3", "boxes", 4), ("z2", "dyadic", 3), ("h3", "dyadic", 2),
    ("z3", "boxes", 4)])
def test_tempered_box_families_match_brute_force(name, family, upto):
    seq = builtin_families(get_group(name))[family]
    assert temperedness_constant(seq, upto) == brute_tempered(seq, upto)


@pytest.mark.parametrize("name", ["z2", "h3"])
def test_tempered_custom_families_match_brute_force(name):
    # windows that are not boxes, miss the identity, and sit at negative
    # coordinates, where the h3 inverse shears every run
    group = get_group(name)
    g = group.encode((-3,) * group.dimension)
    blobs = FolnerSequence(group, "blobs", 1, lambda i: normalize_subset(
        set_product(group, (g,), random_connected_subset(group, 4 * i, 7 + i))))
    assert temperedness_constant(blobs, 6) == brute_tempered(blobs, 6)


def test_tempered_and_plan_on_box_families_build_no_window(monkeypatch):
    """Both read box windows as runs from their sides: no index tuple is
    built and no site is inverted one at a time."""
    calls = []
    monkeypatch.setattr(Runs, "indices", lambda runs: calls.append(("indices", len(runs))))
    for group in (Z, Z2, H3):
        monkeypatch.setattr(group, "inverse", lambda g: calls.append(("inverse", g)))
    assert temperedness_constant(builtin_families(Z)["dyadic"], 12) == Fraction(6143, 4096)
    assert temperedness_constant(builtin_families(H3)["boxes"], 6) == Fraction(1625, 324)
    assert temperedness_constant(builtin_families(Z2)["dyadic"], 6) > 1
    assert plan(builtin_families(Z2)["boxes"], Fraction(1, 4)).scales == (1, 2)
    assert plan(builtin_families(H3)["boxes"], Fraction(1, 2), horizon=10).scales == (1,)
    assert calls == []


def test_tempered_needs_two_indices():
    seq = builtin_families(Z)["boxes"]
    with pytest.raises(ValueError):
        temperedness_constant(seq, 1)


def testproduct_size_matches_generic_sets():
    rng = SplitMix64(derive(31))
    for group in (Z, Z2, H3):
        for trial in range(5):
            A = random_connected_subset(group, 1 + rng.randrange(20), seed=trial)
            B = random_connected_subset(group, 1 + rng.randrange(20), seed=trial + 100)
            assert product_size(group, A, B) == len(set_product(group, A, B))


def _operand_mixes(group, A, B):
    """(A, B) with either or both operands given as Runs."""
    return [(runs_of(group, A), B), (A, runs_of(group, B)), (runs_of(group, A), runs_of(group, B))]


def _size_or_range_error(fn, group, A, B):
    try:
        return fn(group, A, B)
    except CoordinateRangeError:
        return "range"


def _random_near(rng, group, n, centre, spread):
    return {
        group.encode(tuple(c + rng.randrange(2 * spread + 1) - spread for c in centre))
        for _ in range(n)
    }


def test_product_size_oracle_up_to_the_coordinate_cap():
    """Exact |A*B| (or the same range error) in z1-z6 and h3, on small
    coordinates, wide spreads and coordinates near 2**40."""
    rng = SplitMix64(derive(47))
    near = COORD_LIMIT - 8
    generic = lambda group, A, B: len(set_product(group, A, B))  # noqa: E731
    outcomes = set()
    for group in [get_group(f"z{d}" if d > 1 else "z") for d in range(1, 7)] + [H3]:
        d = group.dimension
        for trial in range(12):
            scale = (1, 5, 1 << 12, 1 << 30)[trial % 4]
            centre_a = tuple(rng.randrange(2 * scale + 1) - scale for _ in range(d))
            centre_b = tuple(rng.randrange(2 * scale + 1) - scale for _ in range(d))
            if trial >= 8:  # push one axis of each set against the cap
                axis = rng.randrange(d)
                sign = 1 if trial % 2 else -1
                centre_a = centre_a[:axis] + (sign * (near - scale),) + centre_a[axis + 1:]
                centre_b = centre_b[:axis] + (sign * rng.randrange(20),) + centre_b[axis + 1:]
            A = _random_near(rng, group, 1 + rng.randrange(12), centre_a, min(scale, 4))
            B = _random_near(rng, group, 1 + rng.randrange(12), centre_b, scale)
            got = _size_or_range_error(product_size, group, A, B)
            assert got == _size_or_range_error(generic, group, A, B), (group, trial)
            for mixed in _operand_mixes(group, A, B):
                assert _size_or_range_error(product_size, group, *mixed) == got, (group, trial)
            outcomes.add(got == "range")
    assert outcomes == {True, False}


def test_product_size_pinned_cases():
    assert product_size(Z, (), (0,)) == 0 == len(set_product(Z, (), (0,)))
    # an operand site past 2**40 is refused as runs_of refuses it, even where
    # the product would be back in range
    with pytest.raises(CoordinateRangeError):
        product_size(Z, [groups.pack_coords((2**40 + 1,))], [Z.encode((-1,))])
    z4, z5 = get_group("z4"), get_group("z5")
    assert product_size(z4, {0}, {0, z4.encode((2, 0, 0, 0))}) == 2
    assert product_size(z5, {0}, {0, z5.encode((1, 0, 0, 0, 0))}) == 2
    for e in (32, 33):
        A = {H3.encode((2**e, 0, 0))}
        B = {H3.identity, H3.encode((0, 2**e, 0))}
        with pytest.raises(CoordinateRangeError):
            product_size(H3, A, B)


def test_product_size_decodes_only_sets_below_2_62_as_arrays(monkeypatch):
    arrays = []
    unpack = groups.unpack_coords_array
    monkeypatch.setattr(groups, "unpack_coords_array",
                        lambda index, d: arrays.append(index) or unpack(index, d))
    far = [INDEX_ARRAY_LIMIT, INDEX_ARRAY_LIMIT + 7, (1 << 63) + 5]
    for group in (Z2, H3):
        near = [group.encode(c) for c in product(range(-1, 2), repeat=group.dimension)]
        for A, B in ((near, near), (far + near, near), (near, far), (far, far)):
            assert (_size_or_range_error(product_size, group, A, B)
                    == _size_or_range_error(lambda *p: len(set_product(*p)), group, A, B))
    # each pair decodes its sets below 2**62 as arrays, the rest site by site
    assert len(arrays) == 2 * 4
    assert all(a.max() < INDEX_ARRAY_LIMIT for a in arrays)


def _box(group, corner, sides):
    return [group.encode(tuple(c + o for c, o in zip(corner, off)))
            for off in product(*map(range, sides))]


@pytest.fixture
def generic_calls(monkeypatch):
    """Counts product_size's fallbacks to the generic set product."""
    calls = []

    def spy(group, A, B):
        calls.append(group)
        return set_product(group, A, B)

    monkeypatch.setattr(folner, "set_product", spy)
    return calls


def test_product_size_on_runs_of_every_shape(generic_calls):
    """Full boxes, boxes with holes, scattered and duplicate sites, B in
    unsorted order, and h3 products whose a1*b2' shear moves the runs."""
    rng = SplitMix64(derive(53))
    for group in (Z, Z2, get_group("z3"), H3):
        d = group.dimension

        def sites(n, spread):
            return [group.encode(tuple(rng.randrange(2 * spread + 1) - spread for _ in range(d)))
                    for _ in range(n)]

        for trial in range(32):
            corner = [rng.randrange(13) - 6 for _ in range(d)]
            B = _box(group, corner, [1 + rng.randrange(5) for _ in range(d)])
            kind = trial % 4
            if kind == 1:  # box with holes
                B = [b for b in B if rng.randrange(3)] or B[:1]
            elif kind == 2:  # scattered sites
                B = sites(1 + rng.randrange(20), 6)
            elif kind == 3:  # duplicate sites
                B = B + B[rng.randrange(len(B)):]
            if trial % 8 >= 4:  # unsorted
                B = [b for _, b in sorted((rng.next64(), b) for b in B)]
            A = sites(1 + rng.randrange(12), 6)
            if trial % 3 == 0:  # duplicate sites in A
                A = A + A[: 1 + rng.randrange(len(A))]
            want = len(set_product(group, A, B))
            assert product_size(group, A, B) == want, (group, trial)
            for mixed in _operand_mixes(group, A, B):
                assert product_size(group, *mixed) == want, (group, trial)
    # negative a1 shears every run of an h3 box by a1*b2'
    for a in [(-3, 0, 0), (-1, 2, 5), (-7, -4, -9)]:
        A = [H3.encode(a), H3.identity]
        B = _box(H3, (-1, -2, 3), (3, 4, 5))
        assert product_size(H3, A, B) == len(set_product(H3, A, B)), a
    assert generic_calls == []


def test_product_size_wide_keys_fall_back(generic_calls):
    """Box-shaped B near the coordinate cap: every coordinate stays within
    +/-2**40, but the products spread over more than 2**62 keys, which the
    run merge keeps as Python ints; no generic set product is needed."""
    c = COORD_LIMIT - (1 << 32)
    cases = [
        (Z2, [(0, 0), (4 - (1 << 32), 1 << 32)], (c, 0), (4, 3)),
        (Z2, [(0, 0), ((1 << 32) - 4, -(1 << 32))], (-c, 5), (4, 3)),
        (H3, [(0, 0, 0), (1 << 20, -(1 << 20), 1 << 23)], (0, 2, 8 - COORD_LIMIT + (1 << 24)),
         (2, 3, 4)),
    ]
    for group, A, corner, sides in cases:
        A = [group.encode(a) for a in A]
        B = _box(group, corner, sides)
        want = len(set_product(group, A, B))
        assert want == 2 * len(B)
        for mixed in [(A, B)] + _operand_mixes(group, A, B):
            assert product_size(group, *mixed) == want
    assert generic_calls == []


def test_product_size_on_wide_runs_operands_takes_the_one_route(generic_calls):
    # the same near-cap box as above, with B given as Runs: the Python-int
    # keys answer exactly, and a product that leaves +/-2**40 raises from
    # compose_rows; no generic set product is made on either call
    c = COORD_LIMIT - (1 << 32)
    A = [Z2.encode(a) for a in [(0, 0), (4 - (1 << 32), 1 << 32)]]
    B = _box(Z2, (c, 0), (4, 3))
    assert product_size(Z2, A, runs_of(Z2, B)) == len(set_product(Z2, A, B)) == 24
    far = [Z2.encode((1 << 32, 0))]
    with pytest.raises(CoordinateRangeError) as got:
        product_size(Z2, far, runs_of(Z2, B))
    with pytest.raises(CoordinateRangeError) as want:
        set_product(Z2, far, B)
    assert str(got.value) == str(want.value)
    assert generic_calls == []


# -- runs ------------------------------------------------------------------


def _runs_equal(a, b):
    return (a.heads.tolist(), a.lengths.tolist()) == (b.heads.tolist(), b.lengths.tolist())


def _assert_disjoint_maximal(runs, sites):
    """runs holds exactly the given sites, and no two of its runs meet or touch."""
    assert sorted(runs) == sorted(set(sites)) and len(runs) == len(set(sites))
    ends = sorted((tuple(h[:-1]), h[-1], h[-1] + n)
                  for h, n in zip(runs.heads.tolist(), runs.lengths.tolist()))
    assert all(n > 0 for n in runs.lengths.tolist())
    assert all(p[0] != q[0] or p[2] < q[1] for p, q in zip(ends, ends[1:]))


@pytest.mark.parametrize("name", ["z", "z2", "z3", "h3"])
def test_box_runs_from_the_sides_equal_the_runs_of_the_built_window(name):
    group = get_group(name)
    fams = builtin_families(group)
    top = {"z": 40, "z2": 12, "z3": 6, "h3": 5}[name]
    for family, indices in (("boxes", range(1, top + 1)), ("dyadic", range(0, 4))):
        seq = fams[family]
        for i in indices:
            F = seq.subset(i)
            runs = seq.runs(i)
            assert _runs_equal(runs, runs_of(group, F)), (family, i)
            assert runs.heads.dtype == runs.lengths.dtype == np.int64
            assert len(runs) == len(F)
            assert sorted(runs) == list(F)


def test_box_runs_past_the_coordinate_range_raise_before_building():
    with pytest.raises(CoordinateRangeError,
                       match=r"coordinate 18446744073709551615 outside supported range \+/-2\*\*40"):
        builtin_families(Z)["dyadic"].runs(64)
    with pytest.raises(ValueError, match="starts at index 1"):
        builtin_families(Z)["boxes"].runs(0)


def test_runs_of_a_custom_family_come_from_its_members():
    seq = FolnerSequence(Z2, "blobs", 1, lambda i: random_connected_subset(Z2, 5 * i, i))
    for i in range(1, 6):
        assert _runs_equal(seq.runs(i), runs_of(Z2, seq.subset(i)))
    with pytest.raises(ValueError, match="starts at index 1"):
        seq.runs(0)


@pytest.mark.parametrize("name", ["z", "z2", "z3", "h3"])
def test_runs_union_merges_overlapping_touching_and_repeated_runs(name):
    group = get_group(name)
    d = group.dimension
    rng = SplitMix64(derive(61))
    for trial in range(40):
        spread = (2, 6, 1 << 20)[trial % 3]
        sites = [group.encode(tuple(rng.randrange(2 * spread + 1) - spread for _ in range(d)))
                 for _ in range(1 + rng.randrange(30))]
        if trial % 4 == 0:  # whole lines, so that runs touch end to end
            sites += _box(group, (0,) * d, (2,) * (d - 1) + (9,))
        parts = [runs_of(group, sites[k::3]) for k in range(3) if sites[k::3]]
        union = runs_union(*parts)
        _assert_disjoint_maximal(union, sites)
        assert _runs_equal(union, runs_of(group, sites))
        # a set given with repeats and in any order has the same runs
        assert _runs_equal(runs_of(group, sites[::-1] + sites), union)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 5000])
def test_runs_bounds_and_union_agree_with_the_sites(n):
    # run counts either side of the 128-row switch in the per-axis extremes;
    # heads in a small box, so that runs overlap and touch, one run from
    # -2**40 on every axis and one ending at +2**40 (for n = 1, the same run)
    rng = np.random.default_rng(n)
    for d in (1, 2, 3, 7):
        heads = rng.integers(-8, 4, size=(n, d))
        lengths = rng.integers(1, 6, size=n)
        heads[-1] = -COORD_LIMIT
        heads[0, -1] = COORD_LIMIT + 1 - lengths[0]
        runs = Runs(heads, lengths)
        sites = runs.sites()
        assert runs.bounds() == (sites.min(axis=0).tolist(), sites.max(axis=0).tolist())
        assert max(runs.bounds()[1]) == COORD_LIMIT
        want = set(map(tuple, sites.tolist()))
        parts = [Runs(heads[k::2], lengths[k::2]) for k in range(2) if n > k]
        for union in (runs_union(runs), runs_union(*parts)):
            assert set(map(tuple, union.sites().tolist())) == want and len(union) == len(want)
            # disjoint maximal runs in coordinate order: on one line a run
            # starts past the end of the one before it, and never touches it
            rows = [(h[:-1], h[-1], h[-1] + m)
                    for h, m in zip(union.heads.tolist(), union.lengths.tolist())]
            assert rows == sorted(rows)
            assert all(p[0] != q[0] or p[2] < q[1] for p, q in zip(rows, rows[1:]))


@pytest.mark.parametrize("name", ["z2", "z3", "h3"])
def test_runs_union_is_exact_past_int64_keys(name):
    # lines 2**41 apart on two axes: the mixed-radix keys pass 2**62, and the
    # union switches to Python-int keys instead of failing or wrapping
    group = get_group(name)
    d = group.dimension
    lim = COORD_LIMIT
    corners = [(-lim,) * d, (lim,) * (d - 1) + (lim - 4,), (0,) * d,
               (lim,) + (-lim,) * (d - 2) + (3,)]
    sites = [group.encode(c[:-1] + (c[-1] + k,)) for c in corners for k in range(3)]
    sites += [group.encode(corners[2][:-1] + (5,))]
    union = runs_union(*(runs_of(group, sites[k::2]) for k in range(2)))
    _assert_disjoint_maximal(union, sites)
    assert len(union.lengths) == 5
    assert union.heads.dtype == union.lengths.dtype == np.int64


def test_runs_of_refuses_sites_past_the_coordinate_range():
    far = groups.pack_coords((COORD_LIMIT + 1,))
    with pytest.raises(CoordinateRangeError):
        runs_of(Z, [0, far])
    assert len(runs_of(Z, [Z.encode((COORD_LIMIT,)), Z.encode((-COORD_LIMIT,))])) == 2


@pytest.mark.parametrize("name", ["z", "z2", "z3", "h3"])
def test_inverse_runs_match_the_pointwise_inverse(name):
    group = get_group(name)
    d = group.dimension
    rng = SplitMix64(derive(67))
    windows = [random_connected_subset(group, size, seed)
               for size in (1, 5, 30, 80) for seed in range(3)]
    for trial in range(12):  # boxes with negative corners shear the h3 runs
        corner = tuple(rng.randrange(41) - 20 for _ in range(d))
        windows.append(_box(group, corner, [1 + rng.randrange(5) for _ in range(d)]))
    for F in windows:
        inverse = inverse_runs(group, runs_of(group, F))
        pointwise = {group.inverse(f) for f in F}
        assert sorted(inverse) == sorted(pointwise) and len(inverse) == len(pointwise)
        assert _runs_equal(runs_union(inverse), runs_of(group, pointwise))


def test_inverse_runs_raise_where_the_pointwise_inverse_does():
    # (a, b, c)^-1 = (-a, -b, ab - c) on h3: ab = 2**40, so the run c in [0, 2]
    # inverts inside the range and the run c in [-2, 0] leaves it at its far end
    a = 1 << 20
    for c0, fits in ((0, True), (-2, False), (1, True)):
        F = [H3.encode((a, a, c0 + k)) for k in range(3)]
        runs = runs_of(H3, F)
        if fits:
            assert sorted(inverse_runs(H3, runs)) == sorted(H3.inverse(f) for f in F)
            continue
        with pytest.raises(CoordinateRangeError):
            [H3.inverse(f) for f in F]
        with pytest.raises(CoordinateRangeError):
            inverse_runs(H3, runs)


def test_runs_value_counts_and_lists_its_sites():
    runs = Runs(np.array([[0, 5], [-2, -1]], dtype=np.int64), np.array([3, 1], dtype=np.int64))
    assert len(runs) == 4
    assert list(runs) == [Z2.encode(c) for c in [(0, 5), (0, 6), (0, 7), (-2, -1)]]


@pytest.mark.parametrize("name", ["z", "z3", "h3"])
def test_one_run_lists_the_sites_of_its_pieces(name):
    # one run is listed without per-run offsets; its pieces, as several runs, with them
    group = get_group(name)
    head = [-3, 7, -2 ** 40][-group.dimension:]
    one = Runs(np.array([head], dtype=np.int64), np.array([50], dtype=np.int64))
    pieces = Runs(np.array([head, [*head[:-1], head[-1] + 20]], dtype=np.int64),
                  np.array([20, 30], dtype=np.int64))
    want = [(*head[:-1], head[-1] + k) for k in range(50)]
    assert [tuple(r) for r in one.sites().tolist()] == want
    assert one.sites().tolist() == pieces.sites().tolist()


def test_dyadic_temperedness_closed_form_to_16():
    seq = builtin_families(Z)["dyadic"]
    closed = [(i, 2**i, Fraction(3, 2) - Fraction(1, 2**i)) for i in range(1, 17)]
    assert list(temperedness_witnesses(seq, 16)) == closed


def test_dyadic_tempered_cli_to_16_in_bounded_memory():
    # the peak is VmHWM, not ru_maxrss: ru_maxrss keeps the resident set the
    # forked test process had before exec, VmHWM counts only this program
    script = (
        "import sys\n"
        "from amenlab.cli import main\n"
        "code = main(['folner', 'tempered', '--group', 'z', '--family', 'dyadic',"
        " '--upto', '16'])\n"
        "with open('/proc/self/status') as fh:\n"
        "    print('# peak_rss_kb', *[ln.split()[1] for ln in fh if ln.startswith('VmHWM')])\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    rows = list(csv.reader(ln for ln in lines if ln.strip() and not ln.startswith("#")))
    assert rows[0] == ["i", "size", "tempered_num", "tempered_den"]
    closed = [(i, Fraction(3, 2) - Fraction(1, 2**i)) for i in range(1, 17)]
    assert rows[1:] == [[str(i), str(2**i), str(k.numerator), str(k.denominator)]
                        for i, k in closed]
    (peak_kb,) = [int(ln.split()[-1]) for ln in lines if ln.startswith("# peak_rss_kb")]
    assert peak_kb < 200 * 1024


def test_dropped_windows_are_not_retained():
    # each window lives only as long as its caller holds it: after building
    # the z dyadic windows 0..20 one at a time, almost nothing stays resident
    script = (
        "from amenlab.folner import builtin_families\n"
        "from amenlab.groups import get_group\n"
        "def rss_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(next(ln.split()[1] for ln in fh if ln.startswith('VmRSS')))\n"
        "seq = builtin_families(get_group('z'))['dyadic']\n"
        "seq.subset(0)\n"
        "before = rss_kb()\n"
        "for i in range(21):\n"
        "    F = seq.subset(i)\n"
        "    assert len(F) == 1 << i\n"
        "    del F\n"
        "print(rss_kb() - before)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 16 * 1024


# -- modesty -------------------------------------------------------------


def test_geometric_modesty_examples():
    assert is_connected_with_identity(Z, z_interval(0, 3))
    assert not is_connected_with_identity(Z, normalize_subset([Z.encode((0,)), Z.encode((2,))]))
    tromino = normalize_subset(Z2.encode(c) for c in [(0, 0), (1, 0), (0, 1)])
    assert is_connected_with_identity(Z2, tromino)


def test_builtin_members_pass_geometric_check():
    for group in (Z, Z2, H3):
        for seq in list(builtin_families(group).values()):
            for i in (seq.start, seq.start + 1, seq.start + 3):
                assert is_connected_with_identity(group, seq.subset(i))


def test_modest_search_hand_traces():
    assert modest_search(Z, 0) == (0,)
    assert modest_search(Z, 1) == (0, 1)


def test_modest_search_i4_golden_and_recheck():
    F = modest_search(Z, 4)
    assert F == subset_from_mask(2047)
    assert len(F) == 11
    # recompute both defining conditions from scratch
    assert len(F) > 4
    Fset = frozenset(F)
    for g in range(4):
        shifted = {Z.multiply(g, f) for f in Fset}
        assert len(shifted - Fset) * 5 < len(Fset)


def test_modest_search_cap():
    with pytest.raises(BudgetExceededError):
        modest_search(Z, 4, cap=100)


def test_description_bits_singleton_codec():
    assert description_bits(Z, (Z.identity,)) == 3


def test_description_bits_interval_at_most_codec():
    for n in (4, 10, 50):
        assert description_bits(Z, z_interval(0, n)) <= n + 2


def test_description_bits_scattered_pair_delta():
    F = normalize_subset([Z.encode((0,)), Z.encode((1000,))])
    # frame(2) + frame(index 0) + frame(gap 1999) = 6 + 2 + 24
    assert description_bits(Z, F) == 32


def test_description_bits_box_ratio_small():
    seq = builtin_families(Z2)["dyadic"]
    F = seq.subset(6)  # 64 x 64
    assert len(F) == 4096
    assert description_bits(Z2, F) / len(F) < 0.05
    F32 = builtin_families(Z2)["boxes"].subset(32)
    assert description_bits(Z2, F32) / 1024 < 0.05


@pytest.mark.parametrize("name", ["z", "z2", "z3", "h3"])
def test_description_bits_of_runs_equal_those_of_the_index_set(name):
    # boxes, dyadic windows, random connected sets, a box off the identity
    # and a box with a hole, which the box descriptor must not cover
    group = get_group(name)
    d = group.dimension
    fams = builtin_families(group)
    windows = [fams["boxes"].runs(n) for n in (1, 2, 3, 5)]
    windows += [fams["dyadic"].runs(i) for i in range(3)]
    windows += [runs_of(group, random_connected_subset(group, size, seed))
                for size in (1, 7, 40) for seed in range(3)]
    windows.append(runs_of(group, _box(group, (-2,) * d, (3,) * d)))
    holed = [g for g in fams["boxes"].subset(3) if group.decode(g) != (1,) * d]
    windows.append(runs_of(group, holed))
    for runs in windows:
        F = runs.indices()
        assert description_bits(group, runs) == description_bits(group, F)
        assert description_bits(group, runs) == description_bits(group, list(F)[::-1] + list(F))
    assert folner._box_bits(runs_of(group, holed)) is None


def test_description_bits_empty_set():
    assert description_bits(Z, ()) == 2


def test_description_bits_next_to_the_coordinate_limit():
    # SF leaves +/-2**40 although F does not: the stream floor's product
    # raises, and the walk, which never leaves the identity's component,
    # finds the codec inapplicable, so the delta code stands
    for coords, bits in (((0, 2**40), 92), ((0, -2**40), 94), ((0, 1, 2**40), 96)):
        F = normalize_subset(Z.encode((c,)) for c in coords)
        assert description_bits(Z, F) == bits == reference_description_bits(Z, F)


def test_description_bits_stream_floor_is_exact_below_one_block_and_a_floor_past_it():
    # z2 boxes with a hole at (1, 1), connected and holding the identity: the
    # last two code words pass one freq block (65,536 symbols), the one of
    # side 256 by a single full block and a tail
    for side in (3, 40, 200, 256, 300):
        F = normalize_subset(Z2.encode((x, y)) for x in range(side) for y in range(side)
                             if (x, y) != (1, 1))
        stream = encode_connected(Z2, F)
        lengths = (len(stream), freq_length(binary_alphabet(), stream))
        floor = folner._stream_floor(Z2, runs_of(Z2, F))
        assert floor == min(lengths) if len(stream) < FREQ_BLOCK else floor <= min(lengths)


ORACLE = settings(derandomize=True, max_examples=150, deadline=None)
ORACLE_GROUPS = st.sampled_from(["z", "z2", "z3", "h3"])


@ORACLE
@given(ORACLE_GROUPS, st.integers(1, 60), st.integers(0, 2**63 - 1))
def test_description_bits_matches_the_reference_on_connected_sets(name, size, seed):
    group = get_group(name)
    F = random_connected_subset(group, size, seed)
    assert description_bits(group, F) == reference_description_bits(group, F)
    # the same set moved off the identity, where the codec does not apply
    moved = normalize_subset(group.multiply(group.generators[0], f) for f in F)
    assert description_bits(group, moved) == reference_description_bits(group, moved)


@ORACLE
@given(ORACLE_GROUPS, st.sets(st.integers(0, 300), min_size=1, max_size=40))
def test_description_bits_matches_the_reference_on_arbitrary_index_sets(name, F):
    # mostly disconnected, with and without the identity
    group = get_group(name)
    assert description_bits(group, tuple(F)) == reference_description_bits(group, tuple(F))


@ORACLE
@given(st.integers(-50, 50), st.integers(1, 80))
def test_description_bits_matches_the_reference_on_intervals(start, n):
    F = z_interval(start, start + n)
    assert description_bits(Z, F) == reference_description_bits(Z, F)


@pytest.mark.parametrize("name,sides,levels", [
    ("z", 200, 10), ("z2", 24, 5), ("z3", 9, 3), ("z4", 5, 2), ("h3", 5, 2)])
def test_description_bits_matches_the_reference_on_the_families(name, sides, levels):
    group = get_group(name)
    fams = builtin_families(group)
    windows = [fams["boxes"].runs(n) for n in range(1, sides + 1)]
    windows += [fams["dyadic"].runs(i) for i in range(levels + 1)]
    for runs in windows:
        assert description_bits(group, runs) == reference_description_bits(group, runs)


def test_description_bits_where_the_stream_wins():
    # the identity alone where it has at most 4 neighbours (a 6-bit delta code
    # beats the 7-bit word on z3), short intervals of the line and the z2 boxes
    # of side 1 and 2 are described by a code word, below the box and delta codes
    boxes = builtin_families(Z2)["boxes"]
    windows = [(g, (g.identity,)) for g in (Z, Z2, H3)]
    windows += [(Z, z_interval(0, n)) for n in range(1, 9)]
    windows += [(Z2, boxes.runs(1)), (Z2, boxes.runs(2))]
    for group, F in windows:
        runs = runs_of(group, F)
        cheap = min(folner._delta_bits(runs.indices()), folner._box_bits(runs) or 1 << 30)
        assert description_bits(group, F) == reference_description_bits(group, F) < cheap


# -- tail sums ------------------------------------------------------------


def test_series_tail_geometric_exact():
    total = series_tail(range(1, 21), 1)
    assert total == Fraction(2**20 - 1, 2**20)
    assert total < 1


def test_series_tail_empty():
    assert series_tail([], Fraction(1, 2)) == 0


def test_series_tail_dyadic_quarter_pinned():
    sizes = [2**i for i in range(21)]
    total = series_tail(sizes, Fraction(1, 4))
    assert isinstance(total, float)
    assert abs(total - 2.3644247) < 1e-6


def test_series_tail_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        series_tail([1, 2], 0)
