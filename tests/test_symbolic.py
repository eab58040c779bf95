import math
import random

import pytest

from amenlab.errors import BudgetExceededError
from amenlab.groups import get_group
from amenlab.symbolic import (
    Alphabet,
    CellularMap,
    PartialConfiguration,
    SFT,
    admissible_patterns,
    apply_cellular,
    binary_alphabet,
    cont,
    golden_mean_sft,
    iter_admissible,
    parse_sft,
    restrict,
    topological_entropy_estimate,
    transfer_matrix_count,
    translate,
)

Z = get_group("z")
Z2 = get_group("z2")


def zc(k):
    return Z.encode((k,))


def interval(n):
    return [zc(k) for k in range(n)]


# -- oracles ---------------------------------------------------------------

def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def hard_square_count(w, h):
    """Row-profile dynamic program: independent-set counts on the w x h grid."""
    rows = [m for m in range(1 << w) if not (m & (m << 1))]
    counts = {m: 1 for m in rows}
    for _ in range(h - 1):
        nxt = {}
        for m in rows:
            nxt[m] = sum(c for r, c in counts.items() if not (r & m))
        counts = nxt
    return sum(counts.values())


def hard_squares_sft():
    one_right = PartialConfiguration({Z2.encode((0, 0)): "1", Z2.encode((1, 0)): "1"})
    one_up = PartialConfiguration({Z2.encode((0, 0)): "1", Z2.encode((0, 1)): "1"})
    return SFT(Z2, binary_alphabet(), (one_right, one_up))


def box2(n):
    return [Z2.encode((a, b)) for a in range(n) for b in range(n)]


# -- alphabet / configurations ----------------------------------------------

def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    assert Alphabet(("a", "b", "c")).index("c") == 2


def test_cont_uses_index_order():
    t = PartialConfiguration({zc(0): "a", zc(1): "b", zc(-1): "c"})
    # element indices: 0 -> 0, +1 -> 1, -1 -> 2
    assert cont(t) == "abc"


def test_restrict_from_callable():
    t = restrict(lambda g: "01"[Z.decode(g)[0] % 2], interval(4))
    assert len(t) == 4
    # coordinates 0,1,2,3 sit at indices 0,1,3,5, so index order is 0,1,2,3
    assert cont(t) == "0101"


def test_translate_shifts_support():
    t = PartialConfiguration({zc(0): "a", zc(1): "b"})
    s = translate(Z, zc(1), t)
    assert sorted(Z.decode(g)[0] for g in s.support) == [-1, 0]
    assert s[zc(-1)] == "a"
    assert s[zc(0)] == "b"
    # word order follows element indices: 0 before -1
    assert cont(s) == "ba"


def test_translate_round_trip():
    t = PartialConfiguration({zc(k): "ab"[k % 2] for k in range(5)})
    g = zc(3)
    back = translate(Z, Z.inverse(g), translate(Z, g, t))
    assert back == t


def test_cellular_xor():
    table = {"00": "0", "01": "1", "10": "1", "11": "0"}
    cmap = CellularMap(Z, [zc(0), zc(1)], table)
    t = PartialConfiguration({zc(k): "01101"[k] for k in range(5)})
    out = apply_cellular(cmap, t)
    assert sorted(Z.decode(g)[0] for g in out.support) == [0, 1, 2, 3]
    words = {Z.decode(g)[0]: v for g, v in out.items()}
    assert [words[k] for k in range(4)] == ["1", "0", "1", "1"]


def test_cellular_memory_normalized_to_contain_identity():
    cmap = CellularMap(Z, [zc(1)], {"00": "0", "01": "1", "10": "1", "11": "0"})
    assert Z.identity in cmap.memory


def test_cellular_commutes_with_translation():
    table = {"00": "0", "01": "1", "10": "1", "11": "0"}
    cmap = CellularMap(Z, [zc(0), zc(1)], table)

    def source(g):
        return "01" [Z.decode(g)[0] % 2]

    g = zc(2)
    window = [zc(k) for k in range(-3, 6)]
    t = restrict(source, window)
    left = translate(Z, g, apply_cellular(cmap, t))
    right = apply_cellular(cmap, translate(Z, g, t))
    # compare on the common support
    common = set(left.support) & set(right.support)
    assert common
    assert all(left[h] == right[h] for h in common)


# -- SFT counting ------------------------------------------------------------

def test_golden_mean_counts_match_fibonacci():
    sft = golden_mean_sft()
    for n in range(1, 21):
        assert admissible_patterns(sft, interval(n)) == fib(n + 2)


def test_transfer_matches_backtracking():
    sft = golden_mean_sft()
    for n in range(1, 13):
        # force the generic route by passing a non-interval ordering is not
        # possible (the window is an interval); call the internal DP route
        from amenlab.symbolic import _count_frontier
        assert transfer_matrix_count(sft, n) == _count_frontier(sft, sorted(interval(n)), None)


def test_full_shift_and_banned_symbol():
    full = SFT(Z, binary_alphabet(), ())
    assert admissible_patterns(full, interval(10)) == 1024
    banned = SFT(Z, binary_alphabet(),
                 (PartialConfiguration({zc(0): "1"}),))
    assert admissible_patterns(banned, interval(10)) == 1


def test_non_interval_window_uses_backtracking():
    sft = golden_mean_sft()
    window = [zc(0), zc(1), zc(3)]  # gap at 2: adjacency only inside the window
    # words on {0,1,3} with no adjacent pair at (0,1): 2^3 - 2 = 6
    assert admissible_patterns(sft, window) == 6


def test_hard_squares_against_row_profile_dp():
    sft = hard_squares_sft()
    for n in range(1, 11):
        assert admissible_patterns(sft, box2(n)) == hard_square_count(n, n)


def test_hard_squares_6x6_pinned():
    # computed by the row-profile dynamic program and by exhaustive
    # backtracking; both give the same value, frozen here
    assert hard_square_count(6, 6) == 5598861
    sft = hard_squares_sft()
    assert admissible_patterns(sft, box2(6), budget=60_000_000) == 5598861


def test_frontier_count_matches_enumeration_on_random_sfts():
    from amenlab.symbolic import _count_frontier
    rng = random.Random(20261018)
    groups = [get_group(name) for name in ("z", "z2", "h3")]
    for case in range(600):
        group = groups[case % 3]
        d = group.dimension
        alphabet = Alphabet(("a", "b", "c")[:rng.randint(2, 3)])

        def site(radius):
            return group.encode(tuple(rng.randint(-radius, radius) for _ in range(d)))

        # single-site patterns, pairs and triples; the list may be empty
        forbidden = tuple(
            PartialConfiguration({site(1): rng.choice(alphabet.symbols)
                                  for _ in range(rng.randint(1, 3))})
            for _ in range(rng.randint(0, 3)))
        sft = SFT(group, alphabet, forbidden)
        # scattered sites, so the window is often not connected
        F = sorted({site(3 if d == 1 else 1) for _ in range(rng.randint(1, 8))})
        brute = sum(1 for _ in iter_admissible(sft, F, budget=None))
        assert admissible_patterns(sft, F, budget=None) == brute, case
        order = list(F)
        rng.shuffle(order)
        assert _count_frontier(sft, order, None) == brute, case


def test_windows_are_normalized_sets():
    sft = golden_mean_sft()
    assert admissible_patterns(sft, [0, 0]) == admissible_patterns(sft, [0]) == 2
    assert admissible_patterns(sft, [0, 1, 1]) == 3
    assert len(list(iter_admissible(sft, [0, 1, 1]))) == 3
    assert admissible_patterns(hard_squares_sft(), box2(2) * 2) == 7
    with pytest.raises(ValueError):
        admissible_patterns(sft, [0, -1])
    with pytest.raises(ValueError):
        list(iter_admissible(sft, [-1]))
    with pytest.raises(ValueError):
        list(iter_admissible(sft, []))


def test_parse_sft_rejects_an_element_named_twice():
    with pytest.raises(ValueError, match="line 2: element Z:0 named twice"):
        parse_sft("alphabet 0 1\nZ:0=1 Z:0=0\n")
    # two spellings of one element are still one element
    with pytest.raises(ValueError, match="line 3: element Z:\\(1\\) named twice"):
        parse_sft("alphabet 0 1\nZ:0=1 Z:1=1\nZ:1=1 Z:(1)=1\n")


def test_iter_admissible_matches_count():
    sft = golden_mean_sft()
    pats = list(iter_admissible(sft, interval(5)))
    assert len(pats) == admissible_patterns(sft, interval(5)) == fib(7)
    words = {cont(p) for p in pats}
    assert len(words) == len(pats)
    assert "11000" not in words
    assert "10101" in words


def test_budget_error():
    sft = hard_squares_sft()
    with pytest.raises(BudgetExceededError):
        admissible_patterns(sft, box2(5), budget=100)


def test_entropy_series_golden_mean():
    from amenlab.folner import builtin_families
    sft = golden_mean_sft()
    seq = builtin_families(Z)["boxes"]
    series = topological_entropy_estimate(sft, seq, upto=32)
    assert series.points[0].size == 1
    last = series.last()
    assert last.size == 32
    phi = (1 + math.sqrt(5)) / 2
    assert abs(last.rate - math.log2(phi)) < 0.02
    # normalized counts decrease toward the limit on this subshift
    assert all(a.rate >= b.rate - 1e-12 for a, b in zip(series.points, series.points[1:]))
