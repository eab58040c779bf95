"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Each test prints a single ``[criterion NN] PASS/FAIL`` line so a log scrape
gives the full scorecard.  Oracles are recomputed inline (set arithmetic,
eigenvalues, closed-form bounds) rather than borrowed from the modules
under test.
"""

import functools
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from amenlab.cli import main as cli_main
from amenlab.complexity import (
    ESTIMATORS,
    freq_decode,
    freq_encode,
    repair_decode,
    repair_encode,
)
from amenlab.folner import (
    builtin_families,
    defect_report,
    description_bits,
    temperedness_constant,
)
from amenlab.groups import get_group, is_connected_with_identity
from amenlab.quasitiling import Cover, TilingPlan, cover, plan, q_count_bound, verify_cover
from amenlab.rng import SplitMix64
from amenlab.setcodec import decode_connected, encode_connected, random_connected_subset
from amenlab.stochastic import BernoulliMeasure, MarkovMeasure, MeasureSource, sample
from amenlab.symbolic import (
    Alphabet,
    binary_alphabet,
    cont,
    golden_mean_sft,
    topological_entropy_estimate,
    transfer_matrix_count,
)
from reference import iter_admissible

Z = get_group("z")
Z2 = get_group("z2")
H3 = get_group("h3")


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL {label}", file=sys.stderr, flush=True)
                raise
            print(f"[criterion {num:02d}] PASS {label}", file=sys.stderr, flush=True)
        return wrapper
    return deco


def shannon(p):
    return -sum(x * math.log2(x) for x in p if x > 0)


# -- 1, 2: connected-set codec -----------------------------------------------


@criterion(1, "codec roundtrip + exact length law, 3 groups x 1000 subsets, <30s")
def test_criterion_01_codec_exactness():
    start = time.perf_counter()
    rng = SplitMix64(20260815)
    for group in (Z, Z2, H3):
        for k in range(1000):
            size = 1 + rng.randrange(200)
            T = random_connected_subset(group, size, seed=rng.randrange(2**63))
            bits = encode_connected(group, T)
            assert frozenset(decode_connected(group, bits)) == frozenset(T)
            boundary = set()
            for t in T:
                for s in group.generators:
                    boundary.add(group.multiply(s, t))
            boundary -= set(T)
            assert len(bits) == len(T) + len(boundary)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"codec sweep took {elapsed:.1f}s"


@criterion(2, 'hand traces: encode({0}) = "100", encode({0,1}) = "1100"')
def test_criterion_02_hand_traces():
    assert encode_connected(Z, {Z.encode((0,))}) == "100"
    assert encode_connected(Z, {Z.encode((0,)), Z.encode((1,))}) == "1100"


# -- 3, 4, 5: Folner machinery --------------------------------------------------


def _h3_brute_products(T, g):
    # (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')
    a, b, c = g
    return {(a + x, b + y, c + z + a * y) for (x, y, z) in T}


@criterion(3, "box defects exactly 1/n (d=1,2 full range; d=3 and H3 oracle checks)")
def test_criterion_03_box_defects():
    for group in (Z, Z2):
        boxes = builtin_families(group)["boxes"]
        for n in range(2, 65):
            rep = defect_report(boxes, n)
            assert all(d == Fraction(1, n) for _, d in rep.defects), (group, n)
    boxes3 = builtin_families(get_group("z3"))["boxes"]
    for n in range(2, 9):
        rep = defect_report(boxes3, n)
        assert all(d == Fraction(1, n) for _, d in rep.defects)

    h3_boxes = builtin_families(H3)["boxes"]
    for n in range(2, 9):
        T = {(a, b, c) for a in range(n) for b in range(n) for c in range(n * n)}
        rep = defect_report(h3_boxes, n)
        assert len(rep.defects) == len(H3.generators)
        for g, d in rep.defects:
            shifted = _h3_brute_products(T, H3.decode(g))
            assert d == Fraction(len(shifted - T), len(T)), (n, H3.decode(g))


@criterion(4, "dyadic temperedness == brute union ratio for i <= 12, bounded by 3/2")
def test_criterion_04_temperedness_witness():
    seq = builtin_families(Z)["dyadic"]
    best = Fraction(0)
    for i in range(1, 13):
        Fi = range(2**i)
        union = set()
        for j in range(i):
            Fj = range(2**j)
            union |= {y - x for x in Fj for y in Fi}
        best = max(best, Fraction(len(union), 2**i))
        assert temperedness_constant(seq, i) == best, i
    assert best <= Fraction(3, 2)


@criterion(5, "z2 boxes description rate < 0.05 at 4096 sites; modesty check on built-ins")
def test_criterion_05_modesty():
    boxes = builtin_families(Z2)["boxes"]
    for n in (64, 80, 128):
        F = boxes.subset(n)
        assert description_bits(Z2, F) / len(F) < 0.05, n
    ranges = {
        ("z", "boxes"): range(1, 13), ("z", "dyadic"): range(0, 8),
        ("z2", "boxes"): range(1, 13), ("z2", "dyadic"): range(0, 7),
        ("h3", "boxes"): range(1, 6), ("h3", "dyadic"): range(0, 3),
    }
    for (gid, fam), idxs in ranges.items():
        group = get_group(gid)
        seq = builtin_families(group)[fam]
        for i in idxs:
            assert is_connected_with_identity(group, seq.subset(i)), (gid, fam, i)


# -- 6: quasi-tilings ------------------------------------------------------------


@criterion(6, "cover assertions hold past threshold (z, z2 x eps 1/2, 1/4); exact tiling")
def test_criterion_06_quasi_tiling():
    for gid, eps in (("z", Fraction(1, 2)), ("z", Fraction(1, 4)),
                     ("z2", Fraction(1, 2)), ("z2", Fraction(1, 4))):
        group = get_group(gid)
        seq = builtin_families(group)["boxes"]
        p = plan(seq, eps)
        for i in (p.threshold + 1, p.threshold + 3, p.threshold + 6):
            cov = cover(seq.subset(i), p, seq)
            rep = verify_cover(seq.subset(i), cov, seq)
            assert rep.tiles_inside.holds, (gid, eps, i)
            assert rep.residue_small.holds, (gid, eps, i)
            assert rep.mass_vs_covered.holds, (gid, eps, i)
            assert rep.mass_vs_total.holds, (gid, eps, i)

    # freshness demand 9.5 of 10 forces disjoint placement: a perfect tiling
    seq = builtin_families(Z)["boxes"]
    tiling = TilingPlan(Fraction(1, 10), (10,), 0)
    T = seq.subset(100)
    cov = cover(T, tiling, seq)
    assert cov.report.residue_small.lhs == 0
    assert {Z.decode(c)[0] for c in cov.scale_centers[10]} == {10 * k for k in range(10)}


# -- 7, 8: subshift entropy and the counting bound --------------------------------


@criterion(7, "golden mean entropy within 0.02 at length 32; transfer == brute <= 20")
def test_criterion_07_topological_entropy():
    sft = golden_mean_sft()
    seq = builtin_families(Z)["boxes"]
    eig = max(np.linalg.eigvals(np.array([[1.0, 1.0], [1.0, 0.0]])).real)
    oracle = math.log2(eig)
    assert abs(oracle - 0.694242) < 1e-6
    series = topological_entropy_estimate(sft, seq, upto=32)
    assert abs(series[-1].rate - oracle) < 0.02

    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        count = transfer_matrix_count(sft, n)
        brute = sum(1 for _ in iter_admissible(sft, seq.subset(n)))
        assert count == brute == fib[n + 1], n


@criterion(8, "counting bound below ((1+eps)(h+eps)+eps)|T| for the exact tiling")
def test_criterion_08_counting_bound():
    sft = golden_mean_sft()
    seq = builtin_families(Z)["boxes"]
    tiling = TilingPlan(Fraction(1, 4), (10,), 0)
    T = seq.subset(100)
    centers = tuple(Z.encode((10 * k,)) for k in range(10))
    cov = Cover(tiling, {10: centers})
    assert verify_cover(T, cov, seq).all_hold
    h = 0.694242
    rep = q_count_bound(sft, T, cov, seq, h=h)
    assert abs(rep.total_bits - 10 * math.log2(144)) < 1e-9
    rhs = ((1 + 0.25) * (h + 0.25) + 0.25 * math.log2(2)) * 100
    assert rep.rhs_bits == pytest.approx(rhs)
    assert rep.holds and rep.total_bits <= rhs


# -- 9, 10, 11: complexity rates against entropy -----------------------------------


@pytest.fixture(scope="module")
def bernoulli_rates():
    """Terminal-window rates for p in {0.5, 0.1} on z (2^20) and z2 (1024^2)."""
    out = {}
    for gid, upto in (("z", 20), ("z2", 10)):
        group = get_group(gid)
        seq = builtin_families(group)["dyadic"]
        F = seq.subset(upto)
        for p in (0.5, 0.1):
            start = time.perf_counter()
            measure = BernoulliMeasure(binary_alphabet(), (1 - p, p))
            source = MeasureSource(measure, seed=42)
            t = source.window(F)
            rates = {}
            for name in ("freq", "lz78"):
                rates[name] = ESTIMATORS[name](source.alphabet, cont(t)) / len(F)
            rates["seconds"] = time.perf_counter() - start
            out[gid, p] = rates
    return out


@criterion(9, "freq within 0.02 of H(p), lz78 within +0.15, each config under 2 min")
def test_criterion_09_brudno_upper(bernoulli_rates):
    for (gid, p), rates in bernoulli_rates.items():
        h = shannon((1 - p, p))
        assert abs(rates["freq"] - h) <= 0.02, (gid, p, rates["freq"])
        assert rates["lz78"] <= h + 0.15, (gid, p, rates["lz78"])
        assert rates["seconds"] < 120.0, (gid, p, rates["seconds"])


@criterion(10, "decodable estimators stay above H(p) - 0.03 on the same runs")
def test_criterion_10_brudno_lower(bernoulli_rates):
    for (gid, p), rates in bernoulli_rates.items():
        h = shannon((1 - p, p))
        for name in ("freq", "lz78"):
            assert rates[name] >= h - 0.03, (gid, p, name, rates[name])


@criterion(11, "Markov chain: lz78 in [0.64, 0.87]; freq near the order-0 ceiling 0.9183")
def test_criterion_11_markov():
    measure = MarkovMeasure(
        binary_alphabet(),
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0))),
    )
    seq = builtin_families(Z)["dyadic"]
    F = seq.subset(20)
    t = sample(measure, F, seed=7)
    n = len(F)
    lz = ESTIMATORS["lz78"](measure.alphabet, cont(t)) / n
    fr = ESTIMATORS["freq"](measure.alphabet, cont(t)) / n
    assert 0.64 <= lz <= 0.87, lz
    assert abs(fr - shannon((Fraction(2, 3), Fraction(1, 3)))) < 0.02, fr
    assert abs(shannon((Fraction(2, 3), Fraction(1, 3))) - 0.9183) < 1e-4


# -- 12: closed-form coder bounds -----------------------------------------------


@criterion(12, "freq/repair closed-form bit bounds + exact roundtrips, 1000 cases each")
def test_criterion_12_coding_bounds():
    rng = SplitMix64(77)
    alphabets = [Alphabet(("a", "b")), Alphabet(("a", "b", "c")), Alphabet(("0", "1", "2", "3"))]
    for _ in range(1000):
        alphabet = alphabets[rng.randrange(len(alphabets))]
        n = 1 + rng.randrange(400)
        word = "".join(alphabet.symbols[rng.randrange(alphabet.size)] for _ in range(n))
        stream = freq_encode(alphabet, word)
        assert freq_decode(alphabet, stream) == word
        counts = [word.count(s) for s in alphabet.symbols]
        h = shannon([c / n for c in counts])
        bound = n * h + alphabet.size * (2 * math.log2(n + 1) + 2) + 2
        assert len(stream) <= bound + 1e-9, (word[:20], len(stream), bound)

    for _ in range(1000):
        alphabet = alphabets[rng.randrange(len(alphabets))]
        n = 1 + rng.randrange(300)
        base = "".join(alphabet.symbols[rng.randrange(alphabet.size)] for _ in range(n))
        k = rng.randrange(n + 1)
        positions = set()
        while len(positions) < k:
            positions.add(rng.randrange(n))
        target = "".join(
            alphabet.symbols[(alphabet.index(c) + 1) % alphabet.size] if i in positions else c
            for i, c in enumerate(base)
        )
        stream = repair_encode(alphabet, base, target)
        assert repair_decode(alphabet, base, stream) == target
        delta = k / n
        bound = (
            n * shannon((delta, 1 - delta))
            + k * math.log2(alphabet.size)
            + 2 * (2 * math.log2(n + 1) + 2)
            + 3
        )
        assert len(stream) <= bound + 1e-9, (n, k, len(stream), bound)


# -- 13: CLI determinism -----------------------------------------------------------


def _payload(path):
    with open(path, "r", encoding="ascii") as fh:
        return "".join(ln for ln in fh if not ln.startswith("# generated"))


@criterion(13, "fixed-seed CLI reruns give byte-identical CSV payloads")
def test_criterion_13_cli_determinism(tmp_path, capsys):
    configs = [
        ["folner", "defect", "--group", "z2", "--family", "boxes", "--upto", "10"],
        ["brudno", "run", "--group", "z", "--family", "dyadic",
         "--measure", "bernoulli:0.3,0.7", "--estimator", "all",
         "--upto", "8", "--seed", "5"],
        ["tile", "--group", "z2", "--family", "boxes", "--eps", "1/4", "--i", "12"],
        ["repair-demo", "--length", "600", "--flips", "12", "--seed", "2"],
    ]
    for idx, argv in enumerate(configs):
        a = tmp_path / f"run{idx}a.csv"
        b = tmp_path / f"run{idx}b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        pa, pb = _payload(a), _payload(b)
        assert pa == pb, argv
        assert pa.strip()
    capsys.readouterr()
