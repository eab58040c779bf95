"""Measures, samplers, and entropy rates."""

import math
import random
from fractions import Fraction

import pytest

from amenlab.groups import get_group, pack_coords
from amenlab.rng import site_uniform
from amenlab.stochastic import (
    BernoulliMeasure,
    ConstantSource,
    MarkovMeasure,
    MeasureSource,
    ProbabilityVector,
    empirical_frequencies,
    ks_entropy,
    parse_measure,
    sample,
    shannon_entropy,
)
from amenlab.symbolic import Alphabet, cont

AB = Alphabet(("a", "b"))
HALF = ProbabilityVector((Fraction(1, 2), Fraction(1, 2)))


def interval(n):
    z = get_group("z")
    return tuple(sorted(z.encode((k,)) for k in range(n)))


def test_probability_vector_validation():
    ProbabilityVector((0.9, 0.1))
    with pytest.raises(ValueError):
        ProbabilityVector(())
    with pytest.raises(ValueError):
        ProbabilityVector((0.5, -0.5, 1.0))
    with pytest.raises(ValueError):
        ProbabilityVector((0.5, 0.6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_non_finite_probabilities_rejected(bad):
    # NaN passed both the sign test and the sum test; 10**400 overflowed it
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        BernoulliMeasure(AB, (bad, 1.0))
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        MarkovMeasure(AB, ((bad, 1.0), (0.5, 0.5)))


def _choose(entries, u):
    """Per-site reference: first symbol whose running float sum exceeds u."""
    acc = 0.0
    for i, x in enumerate(entries):
        acc += float(x)
        if u < acc:
            return i
    return len(entries) - 1


@pytest.mark.parametrize("spec", [
    "bernoulli:0.9,0.1", "bernoulli:1/3,2/3", "bernoulli:0.2,0,0.3,0.5", "bernoulli:0,1",
    "markov:[[0.5,0.5],[1,0]]", "markov:[[0,1,0],[0,0,1],[0.25,0.25,0.5]]",
])
def test_sample_matches_per_site_reference(spec):
    m = parse_measure(spec)
    F = interval(3000)
    for seed in (1, 7, 424242):
        t = sample(m, F, seed)
        values = dict(zip(t.support, cont(t)))
        row = m.p if isinstance(m, BernoulliMeasure) else m.stationary
        for g in F:
            state = _choose(row, site_uniform(seed, g))
            assert values[g] == m.alphabet.symbols[state]
            if isinstance(m, MarkovMeasure):
                row = m.rows[state]


def _reference_values(m, F, seed):
    """The per-site loop: Bernoulli sites in any order, a chain in line order."""
    if isinstance(m, BernoulliMeasure):
        return {g: m.alphabet.symbols[_choose(m.p, site_uniform(seed, g))] for g in F}
    z = get_group("z")
    values, row = {}, m.stationary
    for g in sorted(F, key=z.decode):
        state = _choose(row, site_uniform(seed, g))
        values[g] = m.alphabet.symbols[state]
        row = m.rows[state]
    return values


def _far_windows():
    z, z2, h3 = get_group("z"), get_group("z2"), get_group("h3")
    L = 1 << 40
    yield "z2", tuple(sorted(z2.encode((L - i, j - L)) for i in range(16) for j in range(16)))
    yield "h3", tuple(sorted(h3.encode((L - i, j - L, L - k))
                             for i in range(4) for j in range(4) for k in range(4)))
    yield "z", tuple(sorted(z.encode((k - L,)) for k in range(600)))
    # sample reads indices only: this interval's indices straddle 2**64
    yield "z past 2**64", tuple(sorted(pack_coords((k - (1 << 63),)) for k in range(300)))


@pytest.mark.parametrize("spec", [
    "bernoulli:0.9,0.1", "bernoulli:0.2,0,0.3,0.5",
    "markov:[[0.5,0.5],[1,0]]", "markov:[[0,1,0],[0,0,1],[0.25,0.25,0.5]]",
])
def test_sample_matches_per_site_reference_past_2_64(spec):
    m = parse_measure(spec)
    for name, F in _far_windows():
        if isinstance(m, MarkovMeasure) and name in ("z2", "h3"):
            continue  # a chain runs along the line only
        if name != "z":
            assert F[-1] >= 1 << 64, name
        for seed in (1, 7, 424242):
            reference = _reference_values(m, F, seed)
            for window in (F, F[::-1]):  # sorted, and in an order that is not
                t = sample(m, window, seed)
                assert dict(zip(t.support, cont(t))) == reference, (name, seed)
                assert cont(t) == "".join(reference[g] for g in F)


def test_negative_indices_sample_like_the_per_site_loop():
    m = parse_measure("bernoulli:0.9,0.1")
    F = (-5, -1, 0, 3)
    t = sample(m, F, 7)
    assert dict(zip(t.support, cont(t))) == _reference_values(m, F, 7)
    with pytest.raises(ValueError, match="element indices are naturals"):
        sample(parse_measure("markov:[[0.5,0.5],[1,0]]"), (-1, 0), 7)


def test_sample_rejects_an_object_that_is_no_measure():
    with pytest.raises(TypeError, match="cannot sample object"):
        sample(object(), interval(4), 1)


def test_shannon_entropy_values():
    assert shannon_entropy(HALF) == 1.0
    assert shannon_entropy(ProbabilityVector((1, 0))) == 0.0
    assert abs(shannon_entropy(ProbabilityVector((0.9, 0.1))) - 0.46899) < 1e-5


def test_bernoulli_entropy_rate_equals_shannon():
    for p in [(0.5, 0.5), (0.9, 0.1), (Fraction(1, 3), Fraction(2, 3))]:
        m = BernoulliMeasure(AB, ProbabilityVector(p))
        assert ks_entropy(m) == shannon_entropy(m.p)


def test_markov_stationary_and_entropy():
    m = MarkovMeasure(AB, ((Fraction(1, 2), Fraction(1, 2)), (1, 0)))
    assert abs(m.stationary[0] - 2 / 3) < 1e-12
    assert abs(m.stationary[1] - 1 / 3) < 1e-12
    assert abs(ks_entropy(m) - 2 / 3) < 1e-12


def test_markov_stationary_is_not_a_parameter():
    # always solved from the rows: a wrong vector here would skew the
    # entropy rate and the samples without any error
    with pytest.raises(TypeError):
        MarkovMeasure(AB, ((Fraction(1, 2), Fraction(1, 2)), (1, 0)),
                      stationary=ProbabilityVector((0.0, 1.0)))


def test_markov_rejects_reducible_chain():
    with pytest.raises(ValueError):
        MarkovMeasure(AB, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        MarkovMeasure(AB, ((0.5, 0.5), (0.5, 0.6)))


def _reaches_all(support, start, forward):
    """Breadth-first search over the support graph, along or against its edges."""
    n = len(support)
    seen, frontier = {start}, [start]
    while frontier:
        i = frontier.pop(0)
        for j in range(n):
            edge = support[i][j] if forward else support[j][i]
            if edge and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def test_markov_accepts_exactly_the_strongly_connected_supports():
    rng = random.Random(2026)
    for case in range(400):
        n = case % 5 + 1
        support = [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
        for row in support:
            row[rng.randrange(n)] = True  # every row must sum to 1
        rows = tuple(tuple(Fraction(1, sum(row)) if s else 0 for s in row) for row in support)
        alphabet = Alphabet(tuple("abcde"[:n]))
        if _reaches_all(support, 0, True) and _reaches_all(support, 0, False):
            MarkovMeasure(alphabet, rows)
        else:
            with pytest.raises(ValueError, match="not irreducible"):
                MarkovMeasure(alphabet, rows)
    # an entry far below the float range is still an edge
    tiny = Fraction(1, 10**400)
    m = MarkovMeasure(AB, ((1 - tiny, tiny), (1, 0)))
    assert m.stationary.entries == (1.0, 0.0)


def test_sample_degenerate_bernoulli_constant():
    m = BernoulliMeasure(AB, ProbabilityVector((1, 0)))
    t = sample(m, interval(50), seed=1)
    assert cont(t) == "a" * 50


def test_sample_determinism_and_seed_sensitivity():
    m = BernoulliMeasure(AB, HALF)
    F = interval(200)
    assert sample(m, F, 42) == sample(m, F, 42)
    assert sample(m, F, 42) != sample(m, F, 43)


def test_bernoulli_nested_windows_agree():
    m = BernoulliMeasure(AB, HALF)
    small, big = sample(m, interval(100), 7), sample(m, interval(400), 7)
    small_values, big_values = (dict(zip(t.support, cont(t))) for t in (small, big))
    for g in small.support:
        assert small_values[g] == big_values[g]


def test_bernoulli_frequency_at_million_sites():
    m = BernoulliMeasure(AB, HALF)
    t = sample(m, interval(10**6), seed=424242)
    freq = empirical_frequencies(AB, t)
    assert abs(freq[0] - Fraction(1, 2)) < Fraction(2, 1000)
    assert abs(shannon_entropy(freq) - 1.0) < 0.01


def test_bernoulli_on_plane_window():
    z2 = get_group("z2")
    F = tuple(sorted(z2.encode((i, j)) for i in range(8) for j in range(8)))
    m = BernoulliMeasure(AB, HALF)
    t = sample(m, F, seed=5)
    assert len(t) == 64
    assert set(cont(t)) <= {"a", "b"}


def test_markov_sampler_interval_only():
    m = MarkovMeasure(AB, ((0.5, 0.5), (1, 0)))
    z = get_group("z")
    gap = tuple(sorted(z.encode((k,)) for k in (0, 1, 3)))
    with pytest.raises(ValueError):
        sample(m, gap, seed=1)


def test_markov_sampler_never_repeats_b():
    # row from "b" moves to "a" with probability 1
    m = MarkovMeasure(AB, ((0.5, 0.5), (1, 0)))
    w = cont(sample(m, interval(5000), seed=9))
    assert "bb" not in w
    assert abs(w.count("b") / 5000 - 1 / 3) < 0.02


def test_markov_windows_with_common_left_end_agree():
    m = MarkovMeasure(AB, ((0.5, 0.5), (1, 0)))
    small, big = sample(m, interval(64), 3), sample(m, interval(256), 3)
    small_values, big_values = (dict(zip(t.support, cont(t))) for t in (small, big))
    for g in small.support:
        assert small_values[g] == big_values[g]


def test_empirical_frequencies_exact():
    z = get_group("z")
    t = sample(BernoulliMeasure(AB, ProbabilityVector((1, 0))), interval(4), 0)
    assert empirical_frequencies(AB, t).entries == (1, 0)
    values = {z.encode((k,)): s for k, s in enumerate("aabb")}
    from amenlab.symbolic import PartialConfiguration

    freq = empirical_frequencies(AB, PartialConfiguration(values))
    assert freq.entries == (Fraction(1, 2), Fraction(1, 2))


def test_sources_expose_windows():
    src = MeasureSource(BernoulliMeasure(AB, HALF), seed=11)
    F = interval(32)
    assert src.window(F) == sample(src.measure, F, 11)
    const = ConstantSource(AB, "b")
    assert cont(const.window(F)) == "b" * 32


@pytest.mark.parametrize("spec", [
    "bernoulli:1/0,1", "markov:[[0.5,0.5],[1,0]]]", "markov:[['a','b'],[1,0]]",
    "markov:[[0.5,0.5],[1/0,1]]", "markov:[[0.5,0.5],[1 0]]", "markov:[]", "markov:0.5",
])
def test_parse_measure_refuses_malformed_specs(spec):
    with pytest.raises(ValueError):
        parse_measure(spec)


def test_parse_measure_reads_every_entry_as_a_fraction():
    half = parse_measure("markov:[[1/2,1/2],[1,0]]")
    assert half.rows == parse_measure("markov:[ [0.5, 0.5], [1, 0] ]").rows
    assert half.rows == ((Fraction(1, 2), Fraction(1, 2)), (1, 0))
    assert parse_measure("bernoulli:1/3, 2/3").p.entries == (Fraction(1, 3), Fraction(2, 3))


def test_parse_measure_specs():
    m = parse_measure("bernoulli:0.5,0.5")
    assert isinstance(m, BernoulliMeasure)
    assert m.alphabet.symbols == ("0", "1")
    assert m.p.entries == (Fraction(1, 2), Fraction(1, 2))
    mk = parse_measure("markov:[[0.5,0.5],[1,0]]")
    assert isinstance(mk, MarkovMeasure)
    assert abs(ks_entropy(mk) - 2 / 3) < 1e-12
    with pytest.raises(ValueError):
        parse_measure("poisson:3")
    with pytest.raises(ValueError):
        parse_measure("bernoulli")
