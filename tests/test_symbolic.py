import math
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from amenlab.errors import BudgetExceededError
from amenlab.folner import builtin_families
from amenlab import groups, symbolic
from amenlab.groups import INDEX_ARRAY_LIMIT, Runs, get_group, runs_of
from amenlab.symbolic import (
    Alphabet,
    PartialConfiguration,
    SFT,
    admissible_patterns,
    binary_alphabet,
    cont,
    golden_mean_sft,
    load_sft,
    parse_sft,
    topological_entropy_estimate,
    transfer_matrix_count,
)
from reference import iter_admissible

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


def dict_frontier_count(sft, order, budget):
    """The frontier DP over a dict of symbol-tuple states, kept as the
    reference for the array DP: (count, work) for the sites, given as
    distinct coordinate tuples, assigned in ``order``.  It raises
    BudgetExceededError where the array DP must, with the same work."""
    grouped = symbolic._constraint_instances(sft, order)
    last = {pos: k for k, instances in enumerate(grouped)
            for positions, _ in instances for pos in positions}
    symbols = range(sft.alphabet.size)
    states = {(): 1}
    live = []
    work = 0
    for k, instances in enumerate(grouped):
        step = len(states) * len(symbols)
        if budget is not None and work + step > budget:
            raise BudgetExceededError("reference", work=work)
        work += step
        slot = {pos: i for i, pos in enumerate(live + [k])}
        checks = [([slot[pos] for pos in positions], syms) for positions, syms in instances]
        live = [pos for pos in slot if last.get(pos, -1) > k]
        keep = [slot[pos] for pos in live]
        nxt = {}
        for state, count in states.items():
            for s in symbols:
                row = state + (s,)
                if any(all(row[i] == v for i, v in zip(idx, syms)) for idx, syms in checks):
                    continue
                key = tuple(row[i] for i in keep)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return sum(states.values()), work


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


def test_word_backed_configuration_behaves_like_its_dict():
    support = tuple(sorted(zc(k) for k in range(-6, 7)))
    word = "abcabcabcabca"
    t = PartialConfiguration.from_word(support, word)
    d = PartialConfiguration(dict(zip(reversed(support), reversed(word))))
    assert cont(t) == cont(d) == word
    assert t.support == d.support == support
    assert len(t) == len(d) == 13
    assert t == d and d == t and hash(t) == hash(d) and repr(t) == repr(d)
    tmap, dmap = dict(zip(t.support, cont(t))), dict(zip(d.support, cont(d)))
    assert [tmap[g] for g in support] == [dmap[g] for g in support] == list(word)
    assert tmap.get(99) is dmap.get(99) is None and tmap.get(support[3]) == "a"
    assert (99 in tmap) is (99 in dmap) is False and support[0] in tmap
    assert tmap == dmap
    assert PartialConfiguration.from_word(support, word) == t
    assert t != PartialConfiguration.from_word(support, "b" + word[1:])
    assert PartialConfiguration.from_word((), "") == PartialConfiguration({})


@pytest.mark.parametrize("values", [{0: "ab"}, {0: "", 1: "ab"}, {0: "a", 1: 1}])
def test_configuration_symbols_are_single_characters(values):
    # a longer or empty symbol would misalign the stored word with the support
    with pytest.raises(ValueError, match="is not one character"):
        PartialConfiguration(values)


# -- SFT counting ------------------------------------------------------------

def test_golden_mean_counts_match_fibonacci():
    sft = golden_mean_sft()
    for n in range(1, 21):
        assert admissible_patterns(sft, interval(n)) == fib(n + 2)


def test_transfer_matches_backtracking():
    sft = golden_mean_sft()
    for n in range(1, 13):
        # an interval always takes the walk; call the array DP directly
        assert transfer_matrix_count(sft, n) == symbolic._count_frontier(
            sft, runs_of(Z, interval(n)), None)
    # random nearest-neighbour rules: single-site bans and adjacent pairs,
    # listed with either site first and placed near 0 or far from it
    rng = random.Random(1995)
    for case in range(120):
        alphabet = Alphabet(("a", "b", "c")[:rng.randint(2, 3)])
        forbidden = []
        for _ in range(rng.randint(0, 4)):
            at = rng.choice((0, 3, -7, 1000))
            sites = [at] if rng.random() < 0.3 else [at, at + rng.choice((1, -1))]
            forbidden.append(PartialConfiguration(
                {zc(k): rng.choice(alphabet.symbols) for k in sites}))
        sft = SFT(Z, alphabet, tuple(forbidden))
        assert sft.walk is not None, case
        for n in range(1, 9):
            brute = sum(1 for _ in iter_admissible(sft, interval(n), budget=None))
            assert transfer_matrix_count(sft, n) == brute, (case, n)
            assert symbolic._count_frontier(sft, runs_of(Z, interval(n)), None) == brute


@pytest.mark.parametrize("sft", [
    SFT(Z, binary_alphabet(), (PartialConfiguration({zc(0): "1", zc(2): "1"}),)),
    SFT(Z, binary_alphabet(), (PartialConfiguration({zc(0): "1", zc(1): "1", zc(2): "0"}),)),
    SFT(Z, binary_alphabet(), (PartialConfiguration({zc(5): "0"}),
                               PartialConfiguration({zc(-3): "1", zc(-1): "1"}))),
    hard_squares_sft(),
    SFT(Z2, binary_alphabet(), (PartialConfiguration({Z2.encode((0, 0)): "1"}),)),
], ids=["gap-2 pair", "triple", "ban and gap-2 pair", "hard squares", "z2 ban"])
def test_transfer_is_none_off_nearest_neighbour_rules(sft):
    assert sft.walk is None
    with pytest.raises(ValueError, match="subshift is not one-dimensional nearest-neighbor"):
        transfer_matrix_count(sft, 4)
    with pytest.raises(ValueError, match="subshift is not one-dimensional nearest-neighbor"):
        transfer_matrix_count(sft, 0)


def test_transfer_count_rejects_empty_interval():
    with pytest.raises(ValueError, match="length >= 1"):
        transfer_matrix_count(golden_mean_sft(), 0)


def test_counts_read_the_prepared_patterns(monkeypatch):
    # the patterns are re-anchored as coordinate offsets and their symbols
    # indexed once, when the SFT is built; a count makes no inverse, no
    # alphabet lookup, and no index product, decode or pack
    sft = hard_squares_sft()
    windows = [builtin_families(Z2)["boxes"].subset(i) for i in range(1, 6)]
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(type(Z2), "inverse", counted("inverse", type(Z2).inverse))
    monkeypatch.setattr(Alphabet, "index", counted("index", Alphabet.index))
    monkeypatch.setattr(type(Z2), "multiply", counted("multiply", type(Z2).multiply))
    monkeypatch.setattr(type(Z2), "decode", counted("decode", type(Z2).decode))
    monkeypatch.setattr(groups, "pack_coords", counted("pack_coords", groups.pack_coords))
    counts = [admissible_patterns(sft, F) for F in windows]
    assert counts == [hard_square_count(n, n) for n in range(1, 6)]
    assert calls == []


def test_transfer_walk_gives_fibonacci_in_any_order():
    sft = golden_mean_sft()
    lengths = [1, 2, 3, 5, 8, 13, 40, 13, 12, 1, 1, 7, 7, 30, 2, 100, 100, 99]
    assert [transfer_matrix_count(sft, n) for n in lengths] == [fib(n + 2) for n in lengths]
    # the walk keeps the last length asked, and steps on from it
    length, vector = sft.walk.state
    assert length == 99 and sum(vector) == fib(101)


def test_sfts_counted_in_turn_keep_their_own_walks():
    golden = golden_mean_sft()
    # three symbols, and b may not follow a: another transfer matrix
    other = parse_sft("alphabet a b c\nZ:0=a Z:1=b\n")
    assert golden.walk is not other.walk and golden.walk is not golden_mean_sft().walk

    def three(n):  # words over {a, b, c} without "ab"
        words = [1, 1, 1]  # ending in a, b, c
        for _ in range(n - 1):
            a, b, c = words
            words = [a + b + c, b + c, a + b + c]
        return sum(words)

    for n in (5, 3, 9, 9, 1, 20):
        assert transfer_matrix_count(golden, n) == fib(n + 2)
        assert admissible_patterns(other, interval(n)) == three(n)
        assert admissible_patterns(golden, builtin_families(Z)["boxes"].runs(n)) == fib(n + 2)


@pytest.mark.parametrize("name", ["z", "z2", "h3"])
def test_counts_from_runs_equal_counts_from_the_index_set(name):
    group = get_group(name)
    d = group.dimension
    sfts = [golden_mean_sft() if name == "z" else hard_squares_sft() if name == "z2" else
            SFT(group, binary_alphabet(), (PartialConfiguration(
                {0: "1", group.encode((1, 0, 0)): "1"}),))]
    rng = random.Random(20261020)
    alphabet = Alphabet(("a", "b", "c"))
    for _ in range(3):
        sfts.append(SFT(group, alphabet, tuple(
            PartialConfiguration({group.encode(tuple(rng.randint(-1, 1) for _ in range(d))):
                                  rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 3))})
            for _ in range(rng.randint(1, 3)))))
    seq = builtin_families(group)["boxes"]
    for sft in sfts:
        for i in range(1, 3 if d == 3 else 6):
            assert admissible_patterns(sft, seq.runs(i)) == admissible_patterns(sft, seq.subset(i))
        for _ in range(10):
            F = [group.encode(tuple(rng.randint(-3, 3) for _ in range(d)))
                 for _ in range(rng.randint(1, 12))]
            assert admissible_patterns(sft, runs_of(group, F)) == admissible_patterns(sft, F)
    # Runs must be disjoint: a site in two runs is refused, not counted twice
    heads = np.zeros((2, d), dtype=np.int64)
    heads[1, -1] = 1
    with pytest.raises(ValueError, match="window runs overlap"):
        admissible_patterns(sfts[0], Runs(heads, np.array([2, 2], dtype=np.int64)))


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


def test_hard_squares_strip_differences_give_the_entropy():
    # f(m) = log2 N(41, m) - log2 N(40, m) on L x m strips; f(m) - f(m-1)
    # tends to log2 kappa exponentially fast (Calkin & Wilf 1998), where
    # kappa is the hard-square constant (Baxter 1999)
    sft = load_sft(Path(__file__).resolve().parent.parent / "demos" / "hardsquares.sft")

    def log2_count(L, m):
        # m on the last axis, so the frontier DP keeps a strip of width m
        return math.log2(admissible_patterns(
            sft, [Z2.encode((a, b)) for a in range(L) for b in range(m)]))

    def f(m):
        return log2_count(41, m) - log2_count(40, m)

    assert abs(f(9) - f(8) - 0.5878911617753406) < 1e-8


def _oracle_cases():
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
        shuffled = [group.decode(g) for g in F]
        rng.shuffle(shuffled)
        yield case, sft, F, shuffled


def test_frontier_count_matches_enumeration_on_random_sfts():
    for case, sft, F, shuffled in _oracle_cases():
        brute = sum(1 for _ in iter_admissible(sft, F, budget=None))
        assert admissible_patterns(sft, F, budget=None) == brute, case
        # the count does not depend on the assignment order: runs of one
        # site each, their heads in shuffled order
        sites = Runs(np.array(shuffled, dtype=np.int64), np.ones(len(shuffled), dtype=np.int64))
        assert symbolic._count_frontier(sft, sites, None) == brute, case
        assert dict_frontier_count(sft, shuffled, None)[0] == brute, case


def _sites(runs):
    """The coordinate tuples of the sites of ``runs``, run after run."""
    return [(*h[:-1], h[-1] + j)
            for h, n in zip(runs.heads.tolist(), runs.lengths.tolist()) for j in range(n)]


def _assert_same_count_and_work(sft, runs, label):
    order = _sites(runs)
    count, work = dict_frontier_count(sft, order, None)
    assert symbolic._count_frontier(sft, runs, None) == count, label
    assert symbolic._count_frontier(sft, runs, work) == count, label
    # one unit less stops both DPs before the same step, after the same work
    with pytest.raises(BudgetExceededError) as ref:
        dict_frontier_count(sft, order, work - 1)
    with pytest.raises(BudgetExceededError) as err:
        symbolic._count_frontier(sft, runs, work - 1)
    assert err.value.work == ref.value.work, label


@pytest.mark.parametrize("code_bits", [symbolic.CODE_BITS, 0], ids=["int64 codes", "object codes"])
def test_array_dp_matches_the_dict_dp_on_counts_and_work(monkeypatch, code_bits):
    # with no code bits every window with a live site keeps Python-int codes
    monkeypatch.setattr(symbolic, "CODE_BITS", code_bits)
    sft = hard_squares_sft()
    boxes = builtin_families(Z2)["boxes"]
    for n in range(1, 7):
        _assert_same_count_and_work(sft, boxes.runs(n), n)
    for case, sft, F, _ in _oracle_cases():
        _assert_same_count_and_work(sft, runs_of(sft.group, F), case)


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


def _box_at(group, corner, side):
    return [group.encode(tuple(c + o for c, o in zip(corner, off)))
            for off in product(range(side), repeat=group.dimension)]


def test_counts_past_the_int64_index_range_are_exact(monkeypatch):
    """The 3x3 hard-squares box at the origin and translated where its
    indices straddle 2**62, lie in [2**62, 2**63), straddle 2**63 and pass
    2**63: every window past 2**62 is counted on the exact path."""
    sft = hard_squares_sft()
    arrays = []
    unpack = groups.unpack_coords_array
    monkeypatch.setattr(groups, "unpack_coords_array",
                        lambda index, d: arrays.append(index) or unpack(index, d))
    corners = [(0, 0), (759250124, 759250124), (2**30 - 8, 2**30 - 8), (2**30, 2**30),
               (2**31, 2**31), (2**33, 0)]
    windows = [_box_at(Z2, c, 3) for c in corners]
    windows.append(_box_at(Z2, Z2.decode(INDEX_ARRAY_LIMIT), 3))
    assert INDEX_ARRAY_LIMIT in windows[-1]
    for F in windows:
        assert admissible_patterns(sft, F) == 63
        assert admissible_patterns(sft, F[::-1] + F[:4]) == 63
        assert admissible_patterns(sft, iter(F)) == 63
        assert admissible_patterns(sft, frozenset(F)) == 63
        with pytest.raises(ValueError, match="element indices are naturals"):
            admissible_patterns(sft, F + [-1])
    # only the origin box takes the array path, once per accepted form
    assert len(arrays) == 4
    assert all(a.max() < INDEX_ARRAY_LIMIT for a in arrays)


@pytest.mark.parametrize("group", [Z2, get_group("h3")], ids=["z2", "h3"])
def test_frontier_order_is_coordinate_tuple_order(monkeypatch, group):
    x = group.encode((1,) + (0,) * (group.dimension - 1))
    sft = SFT(group, binary_alphabet(), (PartialConfiguration({0: "1", x: "1"}),))
    orders = []
    instances = symbolic._constraint_instances
    monkeypatch.setattr(symbolic, "_constraint_instances",
                        lambda sft, order: orders.append(order) or instances(sft, order))
    rng = random.Random(20261019)
    for _ in range(20):
        F = [group.encode(tuple(rng.randrange(-4, 5) for _ in range(group.dimension)))
             for _ in range(rng.randrange(1, 12))]
        F += F[: rng.randrange(len(F) + 1)]
        admissible_patterns(sft, F)
        assert orders[-1] == sorted(set(map(group.decode, F)))
        assert all(type(x) is int for c in orders[-1] for x in c)
    assert len(orders) == 20


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


def test_iter_admissible_budget():
    # the golden mean on 5 sites visits more than 3 nodes; the error reports
    # the nodes visited within the budget
    with pytest.raises(BudgetExceededError) as info:
        list(iter_admissible(golden_mean_sft(), interval(5), budget=3))
    assert info.value.work == 3
    assert len(list(iter_admissible(golden_mean_sft(), interval(5), budget=None))) == fib(7)


def test_budget_error():
    sft = hard_squares_sft()
    with pytest.raises(BudgetExceededError):
        admissible_patterns(sft, box2(5), budget=100)


def test_budget_error_says_where_it_stopped():
    from amenlab.folner import builtin_families
    seq = builtin_families(Z2)["boxes"]
    with pytest.raises(BudgetExceededError) as info:
        topological_entropy_estimate(hard_squares_sft(), seq, upto=6, budget=50)
    err = info.value
    # windows 1 and 2 fit the budget; window 3 ran out after the work it reports
    assert [p.index for p in err.partial] == [1, 2]
    assert err.index == 3
    assert 0 < err.work <= 50
    with pytest.raises(BudgetExceededError) as info:
        admissible_patterns(hard_squares_sft(), box2(3), budget=err.work)
    assert info.value.work == err.work and info.value.index is None
    assert admissible_patterns(hard_squares_sft(), box2(3), budget=err.work + 100) == 63


def test_entropy_series_golden_mean():
    from amenlab.folner import builtin_families
    sft = golden_mean_sft()
    seq = builtin_families(Z)["boxes"]
    series = topological_entropy_estimate(sft, seq, upto=32)
    assert series[0].size == 1
    last = series[-1]
    assert last.size == 32
    phi = (1 + math.sqrt(5)) / 2
    assert abs(last.rate - math.log2(phi)) < 0.02
    # normalized counts decrease toward the limit on this subshift
    assert all(a.rate >= b.rate - 1e-12 for a, b in zip(series, series[1:]))


def test_entropy_names_a_window_without_admissible_patterns():
    from amenlab.folner import builtin_families
    sft = parse_sft("alphabet 0 1\nZ2:(0,0)=0\nZ2:(0,0)=1\n")
    seq = builtin_families(get_group("z2"))["boxes"]
    with pytest.raises(ValueError, match="no admissible pattern on window 1 of size 1"):
        topological_entropy_estimate(sft, seq, upto=3)
