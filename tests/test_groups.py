import hashlib
import random
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenlab import groups
from amenlab.groups import (
    COORD_LIMIT,
    INDEX_ARRAY_LIMIT,
    CoordinateRangeError,
    Heisenberg,
    Zd,
    _extremes,
    compose_rows,
    get_group,
    is_connected_with_identity,
    normalize_subset,
    pack_coords,
    pack_coords_array,
    pack_rows,
    set_product,
    sorted_indices,
    subset_from_mask,
    translate_right,
    unpack_coords,
    unpack_coords_array,
)
from amenlab.folner import (
    builtin_families,
    description_bits,
    generator_defect_counts,
    product_size,
)
from amenlab.rng import SplitMix64
from amenlab.stochastic import parse_measure, sample
from amenlab.symbolic import admissible_patterns, golden_mean_sft
from reference import format_element, parse_element, reference_compose, reference_pack


def test_zigzag_enumeration_prefix():
    # frozen order of the one-dimensional enumeration
    assert [unpack_coords(n, 1)[0] for n in range(7)] == [0, 1, -1, 2, -2, 3, -3]
    for k in range(-50, 51):
        assert unpack_coords(pack_coords((k,)), 1) == (k,)


def test_cantor_pair_roundtrip():
    # both coordinates run over the zigzag values 0..29
    coords = [unpack_coords(n, 1)[0] for n in range(30)]
    for x in coords:
        for y in coords:
            assert unpack_coords(pack_coords((x, y)), 2) == (x, y)
    assert pack_coords((0, 0)) == 0
    # every length from the straight-line forms (1-3) to the loop, as tuples
    # and as the lists Runs iteration passes, near 0 and near and past +/-2**40
    near = [0, 1, -1, 2, COORD_LIMIT - 1, COORD_LIMIT, COORD_LIMIT + 1,
            1 - COORD_LIMIT, -COORD_LIMIT, -1 - COORD_LIMIT]
    rng = SplitMix64(49)
    for d in range(1, 8):
        points = [tuple(near[rng.randrange(len(near))] for _ in range(d)) for _ in range(300)]
        for p in points + [tuple(near[:d]), tuple(near[-d:])]:
            g = reference_pack(p)
            assert pack_coords(p) == pack_coords(list(p)) == g, p
            assert unpack_coords(g, d) == p


def _enumeration_cases():
    rng = SplitMix64(20261018)
    edges = (0, 1, -1, COORD_LIMIT, -COORD_LIMIT, COORD_LIMIT - 1, 1 - COORD_LIMIT)
    for d in range(1, 6):
        for _ in range(300):
            coords = []
            for _ in range(d):
                kind = rng.randrange(3)
                if kind == 0:
                    coords.append(edges[rng.randrange(len(edges))])
                elif kind == 1:
                    coords.append(rng.randrange(201) - 100)
                else:
                    coords.append(rng.randrange(2 * COORD_LIMIT + 1) - COORD_LIMIT)
            yield tuple(coords)


def test_enumeration_pinned():
    # digest of the indices computed before zigzag and Cantor pairing were
    # folded into pack_coords/unpack_coords
    h = hashlib.sha256()
    for coords in _enumeration_cases():
        g = pack_coords(coords)
        assert unpack_coords(g, len(coords)) == coords
        h.update(f"{g}\n".encode())
    assert h.hexdigest() == "e269a97f4c18fc514678b295b83f25d71a048b4956f455230e9a6bac1a47be15"


@pytest.mark.parametrize("name,sides", [
    ("z", (300,)), ("z2", (40, 40)), ("z3", (12, 12, 12)), ("z4", (6, 6, 6, 6)),
    ("z5", (4, 4, 4, 4, 4)), ("h3", (9, 9, 81)),
])
def test_pack_coords_array_matches_scalar_on_boxes(name, sides):
    axes = np.meshgrid(*(np.arange(s, dtype=np.int64) for s in sides),
                       indexing="ij", sparse=True)
    assert pack_coords_array(axes).ravel().tolist() == [
        pack_coords(c) for c in product(*map(range, sides))]


def test_pack_coords_array_matches_scalar_below_2_62():
    # signed coordinates of every magnitude up to 2**40 whose index fits the array form
    rng = SplitMix64(20261019)
    for d in range(1, 6):
        tuples = [(COORD_LIMIT,), (-COORD_LIMIT,)] if d == 1 else []
        top = min(40, 62 >> (d - 1))  # each Cantor fold about doubles the bit length
        while len(tuples) < 300:
            c = tuple(rng.randrange(2 * m + 1) - m
                      for m in (1 << (1 + rng.randrange(top)) for _ in range(d)))
            if pack_coords(c) <= 1 << 62:
                tuples.append(c)
        coords = np.array(tuples, dtype=np.int64).T
        assert pack_coords_array(coords).tolist() == [pack_coords(c) for c in tuples]


def _scalar_or_message(fn, *args):
    try:
        return fn(*args)
    except CoordinateRangeError as e:
        return str(e)


def _rows_or_message(fn, *args):
    try:
        out = fn(*args)
    except CoordinateRangeError as e:
        return str(e)
    return out.dtype, out.tolist()


@pytest.mark.parametrize("name", ["z2", "z7", "h3"])
def test_compose_rows_and_pack_rows_match_the_scalar_law(name):
    """compose_rows gives the scalar compose of every pair, in int64, or raises
    with the message of the first range error, also on a run's last site;
    pack_rows equals pack_coords, in int64 below 2**62 and as Python ints at
    and past it."""
    group = get_group(name)
    d = group.dimension
    rng = SplitMix64(20261020 + d)
    near = COORD_LIMIT - 3

    def rows(n, spread, at=None):
        out = [[rng.randrange(2 * spread + 1) - spread for _ in range(d)] for _ in range(n)]
        if at is not None:  # one axis pushed against the cap, either side
            for r in out:
                r[at] = (near if rng.randrange(2) else -near) + rng.randrange(3)
        return out

    cases = [(rows(5, 6), rows(4, 6)), (rows(3, 1 << 19), rows(3, 1 << 19))]
    cases += [(rows(4, 2, at=k), rows(3, 2)) for k in range(d)]
    cases += [(rows(3, 2), rows(4, 2, at=k)) for k in range(d)]
    if name == "h3":  # the law's product term alone leaves the range
        cases += [([[1 << 20, 0, 0], [-(1 << 20), 0, 0]], [[0, 1 << 20, 0], [0, -(1 << 20), 5]])]
    outcomes = set()
    for a, b in cases:
        # the scalar law pair by pair in row-major order, on runs of 1 + tail sites
        def scalar(tail):
            out = [[list(group.compose(tuple(x), (*y[:-1], y[-1] + tail))) for y in b] for x in a]
            return np.int64, out

        A, B = np.array(a, dtype=np.int64)[:, None], np.array(b, dtype=np.int64)[None]
        want = _scalar_or_message(scalar, 0)
        assert _rows_or_message(compose_rows, group, A, B) == want
        if not isinstance(want, str):
            last = _scalar_or_message(scalar, 2)
            reach = np.full((len(a), len(b)), 2)
            assert _rows_or_message(compose_rows, group, A, B, reach) == (
                last if isinstance(last, str) else want)
            outcomes.add(isinstance(last, str))
        outcomes.add(isinstance(want, str))
    assert outcomes == {True, False}
    # indices either side of 2**62, and coordinates near +/-2**40
    L = INDEX_ARRAY_LIMIT
    below = [list(unpack_coords(g, d)) for g in (0, 1, L - 2, L - 1)]
    above = [list(unpack_coords(g, d)) for g in (L, L + 1, 3 * L)] + rows(3, 2, at=d - 1)
    for r in below + above:
        got = pack_rows(np.array([r], dtype=np.int64))
        assert got.tolist() == [pack_coords(r)]
        assert got.dtype == (np.int64 if r in below else object)
    for part in (below, above, below + above):
        got = pack_rows(np.array(part, dtype=np.int64)[None])
        assert got.shape == (1, len(part)) and got[0].tolist() == [pack_coords(r) for r in part]
        assert sorted_indices(np.array(part, dtype=np.int64)) == tuple(sorted(map(pack_coords, part)))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 4096])
def test_extremes_are_the_axis_bounds_either_side_of_the_column_switch(n):
    rng = np.random.default_rng(n)
    for d in (1, 2, 3):
        rows = rng.integers(-COORD_LIMIT, COORD_LIMIT + 1, size=(n, d))
        want = tuple([f(col) for col in zip(*rows.tolist())] for f in (min, max))
        for x in (rows, np.asfortranarray(rows), rows[::-1], rows.reshape(1, n, d)):
            assert _extremes(x) == want
    # one row past 2**62 moves a large array to Python ints, as a small one
    rows = np.zeros((n, 2), dtype=np.int64)
    rows[n // 2] = unpack_coords(INDEX_ARRAY_LIMIT, 2)
    got = pack_rows(rows)
    assert got.dtype == object and got.tolist() == [pack_coords(r) for r in rows.tolist()]


def test_unpack_coords_array_pinned():
    # random indices, both ends of [0, 2**62) and the triangular numbers near
    # the top, where the float guess of the Cantor diagonal is most often off
    rng = SplitMix64(20261020)
    top = isqrt(2 * INDEX_ARRAY_LIMIT)
    triangles = [w * (w + 1) // 2 for w in range(top - 40, top + 2)]
    edges = [0, 1, INDEX_ARRAY_LIMIT - 1] + [t + e for t in triangles for e in (-1, 0, 1)]
    for d in range(1, 6):
        index = [rng.randrange(INDEX_ARRAY_LIMIT) for _ in range(3000)]
        index += [g for g in edges if 0 <= g < INDEX_ARRAY_LIMIT]
        array = np.array(index, dtype=np.int64)
        coords = unpack_coords_array(array, d)
        assert coords.shape == (len(index), d)
        assert coords.tolist() == [list(unpack_coords(g, d)) for g in index]
        assert pack_coords_array(list(coords.T)).tolist() == index


@pytest.mark.parametrize("name", ["z", "z2", "z3", "h3"])
def test_decode_array_contract(name):
    group = get_group(name)
    d = group.dimension

    def rows(F):
        return [list(unpack_coords(g, d)) for g in F]

    # F's order and its repeats are kept, for every kind of iterable
    F = [5, 0, 5, 3, 0, 12]
    for form in (F, tuple(F), iter(F)):
        got = group.decode_array(form)
        assert got.dtype == np.int64 and got.shape == (len(F), d)
        assert got.tolist() == rows(F)
    # windows straddling 2**62 and 2**63 decode exactly, still as int64
    L = INDEX_ARRAY_LIMIT
    for F in ([L - 2, L, 7, L - 1, L + 1, 7], [3, (1 << 63) + 5, L - 1], [L, L + 9]):
        got = group.decode_array(F)
        assert got.dtype == np.int64 and got.tolist() == rows(F)
    empty = group.decode_array([])
    assert empty.shape == (0, d) and empty.dtype == np.int64
    for F in ([0, -1, 2], [L + 1, -1]):
        with pytest.raises(ValueError, match="element indices are naturals"):
            group.decode_array(F)
    # int64's own ends still fit; one past either end is refused, not wrapped
    # or turned into a float
    ends = [pack_coords((c,) + (0,) * (d - 1)) for c in (2**63 - 1, -2**63)]
    assert group.decode_array(ends)[:, 0].tolist() == [2**63 - 1, -2**63]
    for c in (2**63, -2**63 - 1):
        with pytest.raises(CoordinateRangeError):
            group.decode_array([0, pack_coords((0,) * (d - 1) + (c,))])


def test_windows_past_int64_coordinates_raise_on_every_route():
    # a golden interval of the line at 2**70, far past the documented
    # +/-2**40: counting, Markov sampling, product sizes, defect counts and the
    # description bound all refuse it
    z = get_group("z")
    F = tuple(pack_coords((2**70 + k,)) for k in range(5))
    with pytest.raises(CoordinateRangeError):
        admissible_patterns(golden_mean_sft(), F)
    # counting and Markov sampling read every window as runs, so they refuse
    # +/-2**40 to 2**63 too
    far = tuple(pack_coords((2**50 + k,)) for k in range(5))
    with pytest.raises(CoordinateRangeError):
        admissible_patterns(golden_mean_sft(), far)
    with pytest.raises(CoordinateRangeError):
        sample(parse_measure("markov:[[0.5,0.5],[1,0]]"), far, 1)
    with pytest.raises(CoordinateRangeError):
        sample(parse_measure("markov:[[0.5,0.5],[1,0]]"), F, 1)
    with pytest.raises(CoordinateRangeError):
        product_size(z, F, F)
    # defect counts and the box descriptor read windows as runs
    for route in (generator_defect_counts, description_bits):
        with pytest.raises(CoordinateRangeError):
            route(z, F)


def test_index_at_the_array_limit_stays_exact():
    # INDEX_ARRAY_LIMIT itself is past the array form's range; the scalar
    # codec decodes it and packs it back
    for d in range(1, 6):
        coords = get_group("z" if d == 1 else f"z{d}").decode(INDEX_ARRAY_LIMIT)
        assert coords == unpack_coords(INDEX_ARRAY_LIMIT, d)
        assert pack_coords(coords) == INDEX_ARRAY_LIMIT


def test_identity_is_index_zero():
    for name in ("z", "z2", "z3", "h3"):
        g = get_group(name)
        assert g.identity == 0
        assert g.decode(0) == (0,) * g.dimension
        assert g.multiply(0, 0) == 0


def test_z_generator_order():
    z = get_group("z")
    # S = (+1, -1), so the neighbors of the identity are +1 then -1
    assert [z.decode(n)[0] for n in z.neighbors(0)] == [1, -1]


def test_z2_generator_order():
    z2 = get_group("z2")
    assert [z2.decode(n) for n in z2.neighbors(0)] == [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_heisenberg_product_by_hand():
    h = get_group("h3")
    x = h.encode((1, 0, 0))
    y = h.encode((0, 1, 0))
    # (1,0,0)(0,1,0) = (1,1, 0+0+1*1) = (1,1,1)
    assert h.decode(h.multiply(x, y)) == (1, 1, 1)
    # (0,1,0)(1,0,0) = (1,1, 0+0+0*0) = (1,1,0): witnesses non-commutativity
    assert h.decode(h.multiply(y, x)) == (1, 1, 0)


def test_heisenberg_inverse_formula():
    h = get_group("h3")
    rng = SplitMix64(7)
    for _ in range(200):
        a = tuple(rng.randrange(21) - 10 for _ in range(3))
        g = h.encode(a)
        inv = h.inverse(g)
        assert h.decode(inv) == (-a[0], -a[1], a[0] * a[1] - a[2])
        assert h.multiply(g, inv) == 0
        assert h.multiply(inv, g) == 0


@pytest.mark.parametrize("name", ["z", "z2", "h3"])
def test_group_laws_on_random_triples(name):
    g = get_group(name)
    rng = SplitMix64(11)
    elems = [rng.randrange(5000) for _ in range(40)]
    for i in range(0, 39, 3):
        a, b, c = elems[i], elems[i + 1], elems[i + 2]
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
        assert g.multiply(a, 0) == a
        assert g.multiply(0, a) == a
        assert g.multiply(a, g.inverse(a)) == 0


@pytest.mark.parametrize("name", ["z", "z2", "z3", "h3"])
def test_element_text_roundtrip(name):
    g = get_group(name)
    rng = SplitMix64(3)
    elements = [rng.randrange(10 ** 6) for _ in range(100)]
    assert list(map(g.encode, g.parse_elements(g.format_elements(elements)))) == elements


def test_element_text_forms():
    assert get_group("z").format_elements([get_group("z").encode((-3,))]) == ["Z:-3"]
    z2 = get_group("z2")
    assert z2.format_elements([z2.encode((1, -2))]) == ["Z2:(1,-2)"]
    h = get_group("h3")
    assert h.format_elements([h.encode((0, 1, 5))]) == ["H3:(0,1,5)"]
    with pytest.raises(ValueError):
        list(z2.parse_elements(["Z2:(1,)"]))


TEXT_ORACLE = settings(derandomize=True, max_examples=200, deadline=None)
TEXT_GROUPS = st.sampled_from(["z", "z2", "z3", "z7", "h3"])


def parsed_by_the_oracle(group, lines):
    """The indices the scalar parser gives line by line, then the type and
    message of its first error, if any."""
    out = []
    try:
        for text in lines:
            out.append(parse_element(group, text))
    except (ValueError, ArithmeticError) as err:
        out.append((type(err), str(err)))
    return out


def parsed_in_bulk(group, lines):
    """parsed_by_the_oracle through parse_elements: each tuple packed, in order."""
    out = []
    try:
        for coords in group.parse_elements(lines):
            out.append(pack_coords(coords))
    except (ValueError, ArithmeticError) as err:
        out.append((type(err), str(err)))
    return out


@TEXT_ORACLE
@given(TEXT_GROUPS, st.data())
def test_element_text_matches_the_scalar_oracle_in_range(name, data):
    # coordinates up to +/-2**40; on z2 and above the far corner packs past
    # 2**62, which sends the batch down decode_array's per-site route
    group = get_group(name)
    coord = st.integers(-COORD_LIMIT, COORD_LIMIT)
    tuples = data.draw(st.lists(st.tuples(*[coord] * group.dimension), min_size=1, max_size=20))
    if data.draw(st.booleans()):
        tuples.append((COORD_LIMIT,) * group.dimension)
    F = [group.encode(c) for c in tuples]
    if group.dimension > 1 and tuples[-1] == (COORD_LIMIT,) * group.dimension:
        assert max(F) >= INDEX_ARRAY_LIMIT
    texts = group.format_elements(F)
    assert texts == [format_element(group, g) for g in F]
    assert parsed_in_bulk(group, texts) == parsed_by_the_oracle(group, texts) == F


@TEXT_ORACLE
@given(TEXT_GROUPS, st.lists(st.integers(0, 2 ** 62 - 1) | st.integers(2 ** 62, 2 ** 90),
                             min_size=1, max_size=20))
def test_element_text_matches_the_scalar_oracle_on_indices(name, F):
    # any index, below and past 2**62; one whose coordinates do not fit int64
    # is outside every window, and the bulk form refuses it
    group = get_group(name)
    if max(abs(c) for g in F for c in group.decode(g)) < 2 ** 63:
        assert group.format_elements(F) == [format_element(group, g) for g in F]
    else:
        with pytest.raises(CoordinateRangeError):
            group.format_elements(F)


@st.composite
def element_text(draw, group):
    """Element text of the group: well formed (also ``-0``, ``007``, an
    Arabic-Indic digit, +/-2**40, and ``Z:(3)`` on the line); or well formed
    but for one fault (another prefix, a coordinate too few or too many, the
    parentheses toggled, a coordinate past +/-2**40, a digit string that int()
    reads but the grammar refuses); or plain noise over the grammar's
    characters.  Whitespace may surround any of it."""
    fault = draw(st.sampled_from(["none", "none", "prefix", "arity", "paren", "far", "digits",
                                  "noise"]))
    if fault == "noise":
        return draw(st.text("ZH237:(),-0189 \t٣x", max_size=16))
    d = group.dimension
    good = st.integers(-5, 5).map(str) | st.sampled_from(
        [str(COORD_LIMIT), str(-COORD_LIMIT), "-0", "007", "٣", "-٣1"])
    coords = draw(st.lists(good, min_size=d, max_size=d))
    prefix, paren = group.name.upper(), d > 1 or draw(st.booleans())
    if fault == "prefix":
        prefix = draw(st.sampled_from(["Z", "Z2", "H3", group.name]))
    elif fault == "arity":
        coords = coords[1:] if d > 1 and draw(st.booleans()) else coords + ["1"]
    elif fault == "paren":
        paren = not paren
    elif fault in ("far", "digits"):
        coords[draw(st.integers(0, d - 1))] = draw(st.sampled_from(
            [str(COORD_LIMIT + 1), str(-COORD_LIMIT - 1)] if fault == "far"
            else ["", "-", "+1", "1_0", " 1"]))
    pad = st.sampled_from(["", "", " ", "\t", " \n"])
    body = ",".join(coords)
    return f"{draw(pad)}{prefix}:{'(' * paren}{body}{')' * paren}{draw(pad)}"


@TEXT_ORACLE
@given(TEXT_GROUPS, st.data())
def test_element_text_matches_the_scalar_oracle_on_random_text(name, data):
    # the same lines accepted, with the same elements, until the same first
    # bad line, which raises the same error with the same message
    group = get_group(name)
    lines = data.draw(st.lists(element_text(group), min_size=1, max_size=6))
    assert parsed_in_bulk(group, lines) == parsed_by_the_oracle(group, lines)


def test_coordinate_range_guard():
    z = get_group("z")
    big = z.encode((COORD_LIMIT,))
    with pytest.raises(CoordinateRangeError):
        z.multiply(big, z.encode((1,)))
    h = get_group("h3")
    a = h.encode((1 << 21, 0, 0))
    b = h.encode((0, 1 << 21, 0))
    # c-coordinate picks up a*b' = 2**42 > 2**40
    with pytest.raises(CoordinateRangeError):
        h.multiply(a, b)


def test_subset_from_mask():
    assert subset_from_mask(0) == ()
    assert subset_from_mask(1) == (0,)
    assert subset_from_mask(0b1010) == (1, 3)
    assert subset_from_mask(2047) == tuple(range(11))


def test_normalize_subset():
    assert normalize_subset([5, 1, 1, 0]) == (0, 1, 5)
    with pytest.raises(ValueError):
        normalize_subset([-1])


def test_translate_right_on_z():
    z = get_group("z")
    F = z.decode_array([z.encode((k,)) for k in range(4)])          # [0,4)
    got = translate_right(z, F, z.decode_array([z.encode((2,)), z.encode((-3,))]))
    assert got.shape == (2, 4) and got.dtype == np.int64
    assert [[z.decode(e)[0] for e in row] for row in got.tolist()] == [
        [2, 3, 4, 5], [-3, -2, -1, 0]]


@pytest.mark.parametrize("name", ["z2", "z7", "h3"])
def test_translate_right_rows_are_the_scalar_translates(name):
    # row k of translate_right is set_product(F, (c_k,)), site for site, with
    # the sites and centers in any order; on z7 these translates pack past 2**62
    group = get_group(name)
    d = group.dimension
    rng = random.Random(26 + d)
    box = [group.encode(c) for c in product(range(3), repeat=d)]
    dtypes = set()
    for _ in range(20):
        F = rng.sample(box, rng.randint(1, min(40, len(box))))
        centers = [group.encode(tuple(rng.randint(-4, 4) for _ in range(d)))
                   for _ in range(rng.randint(1, 4))]
        got = translate_right(group, group.decode_array(F), group.decode_array(centers))
        assert got.shape == (len(centers), len(F))
        assert got.tolist() == [[group.multiply(f, c) for f in F] for c in centers]
        assert [frozenset(row) for row in got.tolist()] == [
            set_product(group, F, (c,)) for c in centers]
        dtypes.add(got.dtype)
    assert dtypes == {np.dtype(object if name == "z7" else np.int64)}


def test_translate_left_heisenberg_twists():
    h = get_group("h3")
    x = h.encode((1, 0, 0))
    F = [h.encode((0, b, 0)) for b in range(3)]
    got = sorted(h.decode(e) for e in set_product(h, (x,), F))
    # x*(0,b,0) = (1, b, b)
    assert got == [(1, 0, 0), (1, 1, 1), (1, 2, 2)]


def test_set_product_matches_pairwise():
    z2 = get_group("z2")
    A = [z2.encode((a, 0)) for a in range(3)]
    B = [z2.encode((0, b)) for b in range(3)]
    got = set_product(z2, A, B)
    want = {z2.multiply(a, b) for a in A for b in B}
    assert got == frozenset(want)
    assert len(got) == 9


def test_connectivity_check():
    z = get_group("z")
    interval = [z.encode((k,)) for k in range(5)]
    assert is_connected_with_identity(z, interval)
    gap = [z.encode((k,)) for k in (0, 1, 3)]
    assert not is_connected_with_identity(z, gap)
    no_id = [z.encode((k,)) for k in (1, 2)]
    assert not is_connected_with_identity(z, no_id)
    z2 = get_group("z2")
    box = [z2.encode((a, b)) for a in range(3) for b in range(3)]
    assert is_connected_with_identity(z2, box)
    # a negative index is no element: the walk never reaches it
    assert not is_connected_with_identity(z, interval + [-1])
    assert not is_connected_with_identity(z2, box + [-3])


# -- the scalar decode memo ----------------------------------------------------


@pytest.mark.parametrize("name", ["z", "z2", "z3", "z4", "z5", "h3"])
def test_memoised_decode_matches_the_plain_decode(name):
    group = get_group(name)
    d = group.dimension
    rng = SplitMix64(53)
    edge = [sign * (COORD_LIMIT + k) for sign in (1, -1) for k in range(-2, 3)]
    points = [tuple(edge[rng.randrange(len(edge))] for _ in range(d)) for _ in range(200)]
    indices = [rng.randrange(1 << 64) for _ in range(200)] + list(map(pack_coords, points))
    hits = unpack_coords.cache_info().hits
    for g in indices:
        want = unpack_coords.__wrapped__(g, d)
        assert group.decode(g) == want == group.decode(g), g  # a miss, then a hit
    assert unpack_coords.cache_info().hits >= hits + len(indices)
    assert [group.decode(pack_coords(p)) for p in points] == points


def test_negative_index_is_refused_before_the_memo():
    unpack_coords.cache_clear()
    for name in ("z", "z2", "z3", "z4", "h3"):
        group = get_group(name)
        for call, args in [(group.decode, (-1,)), (group.multiply, (-1, 0)),
                           (group.multiply, (0, -1)), (group.multiply, (-2, -1)),
                           (group.neighbors, (-1,)), (group.inverse, (-1,))]:
            with pytest.raises(ValueError, match="element indices are naturals"):
                call(*args)
    info = unpack_coords.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 0)


def test_memo_stays_bounded_on_a_window_decoded_site_by_site():
    z2 = get_group("z2")
    F = builtin_families(z2)["dyadic"].subset(8)
    assert len(F) == 1 << 16
    coords = [z2.decode(g) for g in F]
    info = unpack_coords.cache_info()
    assert info.maxsize == 1 << 12 and info.currsize <= info.maxsize
    assert coords == list(map(tuple, z2.decode_array(F).tolist()))


def _coords_near_cap(rng, d):
    """Small coordinates mixed with ones next to +/-2**20 (where h3's a*b'
    term reaches the cap) and next to +/-2**40, on either side of it."""
    out = []
    for _ in range(d):
        kind = rng.randrange(3)
        base = 0 if kind == 0 else 1 << 20 if kind == 1 else COORD_LIMIT
        out.append((rng.randrange(7) - 3 + base) * (1 if rng.randrange(2) else -1))
    return tuple(out)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CoordinateRangeError:
        return CoordinateRangeError


def _message_outcome(fn, *args):
    """fn(*args), or CoordinateRangeError with its message."""
    try:
        return fn(*args)
    except CoordinateRangeError as exc:
        return CoordinateRangeError, str(exc)


def _reference_multiply(group, g, h):
    d = group.dimension
    a, b = unpack_coords.__wrapped__(g, d), unpack_coords.__wrapped__(h, d)
    return reference_pack(reference_compose(group, a, b))


def _edge_points(d):
    """Every point whose coordinates are 0 or within 1 of +/-2**40; past four
    axes, every such point with at most two coordinates off 0."""
    edge = (COORD_LIMIT - 1, COORD_LIMIT, COORD_LIMIT + 1,
            1 - COORD_LIMIT, -COORD_LIMIT, -1 - COORD_LIMIT)
    points = product((0,) + edge, repeat=d)
    return [p for p in points if d <= 4 or sum(map(bool, p)) <= 2]


@pytest.mark.parametrize("name", ["z", "z2", "z3", "z4", "z7", "h3"])
def test_neighbors_match_multiply_near_the_cap(name, monkeypatch):
    """compose (both orders, with each generator), multiply, inverse, steps and
    neighbors against the reference law on random points and every edge point:
    the same value, or CoordinateRangeError with the same message.  A step
    raises for the first coordinate its check reaches, which is the message
    of the law at one of the raising generators.  Every steps, and compose on
    z, z2 and h3 (the straight-line laws), calls the range check only to raise."""
    group = get_group(name)
    d = group.dimension
    straight = name in ("z", "z2", "h3")
    real_check, checks = groups._check_range, []

    def spy(coords):
        checks.append(coords)
        return real_check(coords)

    def checked(fn, *args, only_to_raise=True):
        del checks[:]
        got = _message_outcome(fn, *args)
        if only_to_raise:
            assert not checks or got[0] is CoordinateRangeError, (fn, args)
        return got

    monkeypatch.setattr(groups, "_check_range", spy)
    rng = SplitMix64(41)
    points = [_coords_near_cap(rng, d) for _ in range(400)] + _edge_points(d)
    raised = 0
    for p in points:
        g = reference_pack(p)
        assert pack_coords(p) == g
        laws = []
        for s, sg in zip(group.generator_coords, group.generators):
            for a, b, x, y in ((s, p, sg, g), (p, s, g, sg)):
                law = _message_outcome(reference_compose, group, a, b)
                assert checked(group.compose, a, b, only_to_raise=straight) == law, (a, b)
                want = law if law[0] is CoordinateRangeError else reference_pack(law)
                assert checked(group.multiply, x, y, only_to_raise=straight) == want, (a, b)
            laws.append(_message_outcome(reference_compose, group, s, p))
        # the inverse's coordinates times the identity: range-checked as the law checks
        inverse = _message_outcome(lambda: reference_pack(
            reference_compose(group, group.invert_coords(p), (0,) * d)))
        assert _message_outcome(group.inverse, g) == inverse, p
        stepped, neighbors = checked(group.steps, p), checked(group.neighbors, g)
        failed = [law for law in laws if law[0] is CoordinateRangeError]
        if failed:
            raised += 1
            assert stepped in failed and neighbors in failed, p
        else:
            assert stepped == laws
            assert neighbors == list(map(reference_pack, laws))
    assert 0 < raised < len(points)


def _h3_points_where_c_plus_minus_b_crosses_the_cap():
    """(a, b, c) with |c| + |b| just below, at and just past 2**40, where only
    the x steps' c +- b term can leave the range."""
    out = []
    for b in (0, 1, -1, 5, -3, 1 << 20, -(1 << 20), (1 << 39) + 7):
        for delta in range(-2, 3):
            for sign in (1, -1):
                out.append((sign * 3, b, sign * (COORD_LIMIT - abs(b) + delta)))
    return out


@pytest.mark.parametrize("name", ["z", "z2", "z3", "z7", "h3"])
def test_steps_pack_to_multiply_near_the_cap(name):
    group = get_group(name)
    rng = SplitMix64(47)
    points = [_coords_near_cap(rng, group.dimension) for _ in range(400)]
    if name == "h3":
        points += _h3_points_where_c_plus_minus_b_crosses_the_cap()
    raised = 0
    for p in points:
        g = pack_coords(p)
        want = [_outcome(_reference_multiply, group, s, g) for s in group.generators]
        if CoordinateRangeError in want:
            raised += 1
            with pytest.raises(CoordinateRangeError):
                group.steps(group.decode(g))
        else:
            assert [pack_coords(n) for n in group.steps(group.decode(g))] == want
    assert 0 < raised < len(points)


def test_set_products_match_pairwise_multiply_on_h3_near_the_cap():
    h = get_group("h3")
    rng = SplitMix64(43)
    outcomes = set()
    for _ in range(400):
        A = [pack_coords(_coords_near_cap(rng, 3)) for _ in range(1 + rng.randrange(2))]
        B = [pack_coords(_coords_near_cap(rng, 3)) for _ in range(1 + rng.randrange(2))]
        want = _outcome(lambda: frozenset(h.multiply(a, b) for a in A for b in B))
        outcomes.add(want is CoordinateRangeError)
        assert _outcome(set_product, h, A, B) == want
        assert _outcome(set_product, h, (A[0],), B) == _outcome(
            lambda: frozenset(h.multiply(A[0], b) for b in B))
        want = _outcome(lambda: frozenset(h.multiply(a, B[0]) for a in A))
        assert _outcome(set_product, h, A, (B[0],)) == want
        assert _outcome(lambda: frozenset(translate_right(
            h, h.decode_array(A), h.decode_array(B[:1]))[0].tolist())) == want
    assert outcomes == {True, False}
