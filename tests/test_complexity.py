"""Coders: roundtrips, frozen traces, and closed-form bit bounds."""

import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenlab import complexity
from amenlab.complexity import (
    _STEP,
    ESTIMATORS,
    FREQ_BLOCK,
    CoderDecodeError,
    _multinomial,
    _join_digits,
    _lz78_parse,
    _rank_in_class,
    _split_digits,
    _step,
    _step_ratio,
    _unrank_in_class,
    freq_decode,
    freq_encode,
    freq_length,
    freq_read,
    hamming,
    lz78_decode,
    lz78_encode,
    lz78_length,
    rate_series,
    repair_decode,
    repair_encode,
    selfdelim_encode,
    selfdelim_length,
    selfdelim_read,
    tuple_pack,
    tuple_unpack,
)
from amenlab.folner import builtin_families
from amenlab.groups import get_group
from amenlab.rng import SplitMix64, derive, site_uniform, site_uniforms
from amenlab.stochastic import ConstantSource
from amenlab.symbolic import Alphabet, PartialConfiguration, binary_alphabet
from reference import reference_lz78_encode

AB = Alphabet(("a", "b"))


def random_word(alphabet, n, seed):
    rng = SplitMix64(derive(seed, n))
    return "".join(alphabet.symbols[rng.randrange(alphabet.size)] for _ in range(n))


def entropy_of_counts(counts):
    n = sum(counts)
    return sum(-(c / n) * math.log2(c / n) for c in counts if c)


def freq_bound(counts, asize):
    n = sum(counts)
    return n * entropy_of_counts(counts) + asize * (2 * math.log2(n + 1) + 2) + 2


# -- self-delimiting integers --------------------------------------------


def test_selfdelim_frozen_forms():
    assert selfdelim_encode(0) == "01"
    assert selfdelim_encode(1) == "1101"
    assert selfdelim_encode(5) == "11001101"


def test_selfdelim_length_law():
    for n in [0, 1, 2, 7, 8, 100, 2**20, 2**40 + 3]:
        s = selfdelim_encode(n)
        assert len(s) == selfdelim_length(n) == 2 * n.bit_length() + 2


def test_selfdelim_roundtrip_with_suffix():
    for n in list(range(300)) + [2**k + j for k in (10, 33, 64) for j in (-1, 0, 1)]:
        s = selfdelim_encode(n) + "110"
        val, pos = selfdelim_read(s, 0)
        assert val == n
        assert s[pos:] == "110"


def test_selfdelim_rejects_bad_streams():
    with pytest.raises(CoderDecodeError):
        selfdelim_read("10", 0)  # invalid pair
    with pytest.raises(CoderDecodeError):
        selfdelim_read("11", 0)  # no terminator
    with pytest.raises(CoderDecodeError):
        selfdelim_read("0001", 0)  # leading zero digit
    with pytest.raises(ValueError):
        selfdelim_encode(-1)


# -- frequency coder ---------------------------------------------------------


def test_freq_constant_word_is_header_only():
    stream = freq_encode(AB, "aaaa")
    # counts (4, 0), singleton type class: no payload bits at all
    assert stream == selfdelim_encode(4) + selfdelim_encode(0)
    assert len(stream) == 10
    assert freq_decode(AB, stream) == "aaaa"


def test_freq_alternating_word_close_to_one_bit_per_symbol():
    w = "ab" * 500
    stream = freq_encode(AB, w)
    assert len(stream) <= 1000 + 50
    assert freq_decode(AB, stream) == w


def test_freq_header_arithmetic_exact():
    for n in (1, 2, 17, 200):
        w = random_word(AB, n, seed=7)
        counts = [w.count(s) for s in AB.symbols]
        m = 1
        rem = 0
        for c in counts:
            rem += c
            m *= comb(rem, c)
        expect = sum(selfdelim_length(c) for c in counts) + (m - 1).bit_length()
        assert len(freq_encode(AB, w)) == expect


def test_freq_bound_exhaustive_small_words():
    abc = Alphabet(("a", "b", "c"))
    cases = [(AB, 14), (abc, 8)]
    for alphabet, nmax in cases:
        for n in range(1, nmax + 1):
            for tup in product(alphabet.symbols, repeat=n):
                w = "".join(tup)
                counts = [w.count(s) for s in alphabet.symbols]
                stream = freq_encode(alphabet, w)
                assert len(stream) <= freq_bound(counts, alphabet.size) + 1e-9
                assert freq_decode(alphabet, stream) == w


def test_freq_roundtrip_random_words():
    for asize in (1, 2, 3, 5):
        alphabet = Alphabet(tuple("abcde"[:asize]))
        for n in (1, 2, 3, 50, 401):
            w = random_word(alphabet, n, seed=asize * 1000 + n)
            assert freq_decode(alphabet, freq_encode(alphabet, w)) == w


def test_freq_block_mode_roundtrip(monkeypatch):
    monkeypatch.setattr("amenlab.complexity.FREQ_BLOCK", 8)
    for n in range(1, 40):
        w = random_word(AB, n, seed=n)
        stream = freq_encode(AB, w)
        assert freq_decode(AB, stream) == w
        # embedded read stops exactly at the stream end
        word, pos = freq_read(AB, stream + "1111", 0)
        assert word == w and pos == len(stream)


def test_freq_rate_matches_entropy_on_biased_source():
    n = 10**5
    w = "".join("a" if site_uniform(99, k) < 0.1 else "b" for k in range(n))
    stream = freq_encode(AB, w)
    assert abs(len(stream) / n - 0.46899) < 0.02


def test_freq_rejects_bad_streams():
    with pytest.raises(ValueError):
        freq_encode(AB, "")
    with pytest.raises(ValueError):
        freq_encode(AB, "axb")
    stream = freq_encode(AB, "abba")
    with pytest.raises(CoderDecodeError):
        freq_decode(AB, stream + "0")
    with pytest.raises(CoderDecodeError):
        freq_decode(AB, stream[:-1])
    # all-zero counts would decode to the empty word
    bad = selfdelim_encode(0) + selfdelim_encode(0)
    with pytest.raises(CoderDecodeError):
        freq_decode(AB, bad)


def test_freq_rank_out_of_range():
    # counts (2,2) has class size 6; widths cover 0..7, so ranks 6,7 are junk
    head = selfdelim_encode(2) + selfdelim_encode(2)
    assert freq_decode(AB, head + "000") == "aabb"
    with pytest.raises(CoderDecodeError):
        freq_decode(AB, head + "111")


def test_freq_rejects_oversized_block_header_fast():
    # ~86 bits declaring a 2*10**6-symbol block; the encoder never emits a
    # block longer than FREQ_BLOCK, so this fails before any ranking work
    junk = selfdelim_encode(10**6) * 2 + "0" * 40
    start = time.perf_counter()
    with pytest.raises(CoderDecodeError, match="exceeds"):
        freq_decode(AB, junk)
    with pytest.raises(CoderDecodeError, match="exceeds"):
        repair_decode(AB, "a" * 10, junk)
    assert time.perf_counter() - start < 1.0


def test_freq_read_sizes_no_class_past_the_block_limit(monkeypatch):
    # the only big-integer work per block starts at _multinomial, so an
    # oversized header must be refused before that call
    monkeypatch.setattr("amenlab.complexity.FREQ_BLOCK", 8)
    calls = []
    monkeypatch.setattr("amenlab.complexity._multinomial",
                        lambda counts: calls.append(list(counts)) or _multinomial(counts))
    full = freq_encode(AB, "abbabaab")[:-4]  # one full block, terminator dropped
    calls.clear()
    with pytest.raises(CoderDecodeError, match="exceeds"):
        freq_decode(AB, full + selfdelim_encode(8) + selfdelim_encode(1))
    assert calls == [[4, 4]]  # the full block only


def test_freq_length_matches_stream_at_the_real_block():
    for n in (1 << 16, 1 << 17):
        for w in ("ab" * (n // 2), "b" * n):
            assert freq_length(AB, w) == len(freq_encode(AB, w)), (n, w[:2])


def test_freq_length_raises_like_the_encoder():
    for w in ("", "axb", "ab" * 10 + "?"):
        with pytest.raises(ValueError) as enc:
            freq_encode(AB, w)
        with pytest.raises(ValueError) as length:
            freq_length(AB, w)
        assert str(length.value) == str(enc.value)


def test_freq_rejects_rank_wider_than_the_stream():
    # counts (30000, 30000) need a ~60000-bit rank; only 40 bits follow
    head = selfdelim_encode(30000) * 2
    with pytest.raises(CoderDecodeError, match="truncated type-class rank"):
        freq_decode(AB, head + "1" * 40)
    with pytest.raises(CoderDecodeError, match="truncated type-class rank"):
        repair_decode(AB, "a" * 60000, head + "1" * 40)


# -- type-class sizes -------------------------------------------------------------


def comb_product(counts):
    size, rem = 1, 0
    for c in counts:
        rem += c
        size *= comb(rem, c)
    return size


def random_counts(rng, n, asize):
    # asize - 1 cuts of [0, n]; two cuts that meet leave a zero count
    cuts = sorted(rng.randrange(n + 1) for _ in range(asize - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


def test_class_sizes_equal_the_binomial_product_on_both_routes():
    rng = SplitMix64(derive(27))
    bits = complexity._PRIME_ROUTE_BITS
    # a balanced binary class of n sites bounds its size by n bits, so
    # n = bits sits on the crossover
    for n in (0, 1, 2, 3, 7, 64, 1000, bits - 1, bits, bits + 1, FREQ_BLOCK):
        cases = [[n], [0, n], [n, 0, 0]]
        for asize in range(1, 6):
            cases += [random_counts(rng, n, asize) for _ in range(8 if n <= bits + 1 else 2)]
        for counts in cases:
            want = comb_product(counts)
            assert complexity._prime_power_multinomial(n, counts) == want, counts
            assert _multinomial(counts) == want, counts


def test_class_sizes_take_the_prime_route_past_the_crossover_only(monkeypatch):
    calls = []
    route = complexity._prime_power_multinomial
    monkeypatch.setattr(complexity, "_prime_power_multinomial",
                        lambda n, counts: calls.append(n) or route(n, counts))
    half = complexity._PRIME_ROUTE_BITS // 2
    # a codec stream of a side-32 box in z2 (579 bits), the bound's two sides,
    # and a Markov block of 2**16 symbols (60,181 bits)
    for counts, prime in (([1024, 128], False), ([half - 1, half - 1], False),
                          ([half, half], True), ([0, half, 0, half], True),
                          ([43691, 21845], True)):
        calls.clear()
        assert _multinomial(counts) == comb_product(counts)
        assert calls == ([sum(counts)] if prime else []), counts


def test_prime_table_is_sized_from_n_and_built_on_first_use():
    for bits in range(9):
        want = [p for p in range(2, 1 << bits) if all(p % q for q in range(2, p))]
        assert complexity._primes_below(bits).tolist() == want
    script = ("import amenlab.cli\n"
              "from amenlab.complexity import _primes_below, _multinomial\n"
              "print(_primes_below.cache_info().currsize)\n"
              "_multinomial([5000, 5000])\n"
              "print(_primes_below.cache_info().currsize, len(_primes_below(14)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["0", "1", "1900"]  # the primes below 2**14 only


def test_class_sizes_do_not_read_the_block_limit(monkeypatch):
    # the table is keyed by the bit length of n, so sizes drawn while a test
    # patches FREQ_BLOCK leave nothing that later sizes read
    big = [43691, 21845]
    with monkeypatch.context() as patched:
        patched.setattr(complexity, "FREQ_BLOCK", 8)
        assert complexity._prime_power_multinomial(8, [4, 4]) == 70
        assert _multinomial(big) == comb_product(big)
        assert freq_length(AB, "ab" * 8) == len(freq_encode(AB, "ab" * 8))
    assert _multinomial(big) == comb_product(big)
    assert complexity._prime_power_multinomial(8, [4, 4]) == 70


# -- type-class rank against the per-symbol reference --------------------------


def ref_rank_in_class(block, index_of, counts):
    """One exact division per letter below the symbol, per symbol."""
    counts = list(counts)
    size = _multinomial(counts)
    rem = len(block)
    rank = 0
    for ch in block:
        ci = index_of[ch]
        for a in range(ci):
            ca = counts[a]
            if ca:
                rank += size * ca // rem
        size = size * counts[ci] // rem
        counts[ci] -= 1
        rem -= 1
    return rank


def ref_unrank_in_class(rank, counts, symbols):
    counts = list(counts)
    rem = sum(counts)
    size = _multinomial(counts)
    if rank >= size:
        raise CoderDecodeError("type-class rank out of range")
    out = []
    while rem:
        for a, ca in enumerate(counts):
            if not ca:
                continue
            cnt = size * ca // rem
            if rank < cnt:
                out.append(symbols[a])
                size = cnt
                counts[a] -= 1
                rem -= 1
                break
            rank -= cnt
    return "".join(out)


def class_of(alphabet, w):
    index_of = {s: i for i, s in enumerate(alphabet.symbols)}
    counts = [w.count(s) for s in alphabet.symbols]
    return index_of, counts, _multinomial(counts)


def check_against_reference(alphabet, w, rng):
    index_of, counts, size = class_of(alphabet, w)
    rank = _rank_in_class(w, index_of, counts, size)
    assert rank == ref_rank_in_class(w, index_of, counts)
    assert _unrank_in_class(rank, size, counts, alphabet.symbols) == w
    first = "".join(sorted(w))
    assert _unrank_in_class(0, size, counts, alphabet.symbols) == first
    assert _unrank_in_class(size - 1, size, counts, alphabet.symbols) == first[::-1]
    r = rng.randrange(size)
    got = _unrank_in_class(r, size, counts, alphabet.symbols)
    assert got == ref_unrank_in_class(r, counts, alphabet.symbols)


def test_rank_matches_reference_across_step_boundaries():
    rng = SplitMix64(derive(2026, 64))
    for asize in (1, 2, 3, 4):
        alphabet = Alphabet(tuple("abcd"[:asize]))
        for n in range(1, 301):
            check_against_reference(alphabet, random_word(alphabet, n, seed=asize), rng)


def test_rank_matches_reference_on_full_blocks():
    rng = SplitMix64(derive(2026, 1 << 16))
    for symbols in ("ab", "abc"):
        alphabet = Alphabet(tuple(symbols))
        check_against_reference(alphabet, random_word(alphabet, 1 << 16, seed=5), rng)


def test_a_class_of_one_word_is_decoded_without_stepping(monkeypatch):
    monkeypatch.setattr(complexity, "_unrank_steps", lambda *a: pytest.fail("stepped"))
    for symbols, counts in (("ab", [0, 95_000]), ("abc", [0, 0, 7]), ("ab", [3, 0]),
                            ("ab", [0, 0])):
        word = "".join(s * c for s, c in zip(symbols, counts))
        assert _unrank_in_class(0, 1, counts, tuple(symbols)) == word
        with pytest.raises(CoderDecodeError, match="rank out of range"):
            _unrank_in_class(1, 1, counts, tuple(symbols))
    ones = "b" * 95_000  # a full block and a short one, each a class of one word
    assert freq_decode(AB, freq_encode(AB, ones)) == ones


def shuffled(letters, rng):
    letters = list(letters)
    for i in range(len(letters) - 1, 0, -1):
        j = rng.randrange(i + 1)
        letters[i], letters[j] = letters[j], letters[i]
    return "".join(letters)


def prefix_interval(prefix, index_of, counts, size):
    """Ranks [low, low + nsize) of the words of the class that start with prefix."""
    t, p, q = _step_ratio(prefix, index_of, list(counts), sum(counts))
    return size * t // q, size * p // q


def test_unrank_at_prefix_interval_edges(monkeypatch):
    # after the prefix the word at low is sorted and the one at low+nsize-1
    # reverse sorted, so every later step decodes at an interval edge too,
    # where a truncated guess is most likely to miss and the exact rerun
    # must answer
    calls = []
    steps = complexity._unrank_steps

    def counted(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(complexity, "_unrank_steps", counted)
    rng = SplitMix64(derive(31))
    w = random_word(AB, 1 << 16, seed=31)
    index_of, counts, size = class_of(AB, w)
    for m in (64, 128, 64 * 12):
        u = shuffled(w, rng)
        prefix, rest = u[:m], "".join(sorted(u[m:]))
        low, nsize = prefix_interval(prefix, index_of, counts, size)
        assert _unrank_in_class(low, size, counts, AB.symbols) == prefix + rest
        last = _unrank_in_class(low + nsize - 1, size, counts, AB.symbols)
        assert last == prefix + rest[::-1]
        before = _unrank_in_class(low - 1, size, counts, AB.symbols)
        assert before[:m] != prefix
        assert _rank_in_class(before, index_of, counts, size) == low - 1
        # the neighbouring prefix's interval ends where this one starts
        other_low, other_size = prefix_interval(before[:m], index_of, counts, size)
        assert other_low + other_size == low
    # a rerun repeats the step of the guess before it, at the same rem
    reruns = sum(1 for a, b in zip(calls, calls[1:]) if a[3] == b[3])
    assert reruns > 0


def test_wrong_prefix_fails_the_check():
    rng = SplitMix64(derive(33))
    w = random_word(AB, 1 << 16, seed=33)
    index_of, counts, size = class_of(AB, w)
    rank = _rank_in_class(w, index_of, counts, size)
    low, nsize = prefix_interval(w[:64], index_of, counts, size)
    assert low <= rank < low + nsize
    for _ in range(20):
        wrong = shuffled(w[:64], rng)
        if wrong == w[:64]:
            continue
        low, nsize = prefix_interval(wrong, index_of, counts, size)
        assert not low <= rank < low + nsize


def check_step(chunk, counts, symbols):
    """_step on the step over chunk from the class of counts, against the two
    exact divisions of ``prefix_interval``."""
    index_of = {s: i for i, s in enumerate(symbols)}
    size = _multinomial(counts)
    t, p, q = _step_ratio(chunk, index_of, list(counts), sum(counts))
    assert size * t % q == 0 and size * p % q == 0
    assert _step(size, t, p, q) == prefix_interval(chunk, index_of, counts, size)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=4).filter(sum), st.data())
def test_step_equals_the_two_divisions_on_random_prefixes(counts, data):
    symbols = "abcd"[:len(counts)]
    w = "".join(data.draw(st.permutations([s for s, c in zip(symbols, counts) for _ in range(c)])))
    # a step starts anywhere in the block and may be its short last one
    i = data.draw(st.integers(0, len(w) - 1))
    rest = [w[i:].count(s) for s in symbols]
    check_step(w[i:i + data.draw(st.integers(1, _STEP))], rest, symbols)


def test_step_at_t_zero_one_letter_and_the_short_last_step():
    check_step("a" * 64, [100, 50], "ab")  # t = 0: every letter is the least
    check_step("a" * 64, [64, 0, 3], "abc")
    check_step("a" * 64, [64], "a")  # a one-letter alphabet
    check_step("a" * 5, [5], "a")
    w = random_word(AB, 1000, seed=7)  # 1000 = 15 * 64 + 40
    check_step(w[960:], [w[960:].count(s) for s in "ab"], "ab")
    check_step("b" * 40, [0, 40], "ab")


def sampled_word(alphabet, n, p, seed):
    """First letter with probability p, the others uniformly otherwise."""
    rng = SplitMix64(derive(seed, n, alphabet.size))
    rest = alphabet.symbols[1:]
    return "".join(
        alphabet.symbols[0] if rng.uniform() < p else rest[rng.randrange(len(rest))]
        for _ in range(n)
    )


def test_freq_and_repair_streams_pinned():
    # digest of the per-symbol coder's streams, so the stepped rank must
    # reproduce every code word bit for bit
    h = hashlib.sha256()
    for symbols in ("ab", "abc"):
        alphabet = Alphabet(tuple(symbols))
        for p in (0.1, 0.5):
            for n in (1, 63, 64, 65, 4097, 65535, 65536, 65537):
                base = sampled_word(alphabet, n, p, 1)
                target = sampled_word(alphabet, n, p, 2)
                for stream in (freq_encode(alphabet, base), repair_encode(alphabet, base, target)):
                    h.update(stream.encode() + b"\n")
    assert h.hexdigest() == "35c6c504872614b0b05c4bfe7e18c28f1af96d33dbdece26726330f3b4d3cf32"


# -- decoders on malformed bits ----------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)
ALPHABETS = st.sampled_from([AB, Alphabet(("a", "b", "c"))])
BITS = st.text(alphabet="01", max_size=120)


def mutate(stream, data):
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if kind == "truncate":
        return stream[:data.draw(st.integers(0, len(stream) - 1))]
    if kind == "extend":
        return stream + data.draw(st.text(alphabet="01", min_size=1, max_size=8))
    i = data.draw(st.integers(0, len(stream) - 1))
    return stream[:i] + "10"[int(stream[i])] + stream[i + 1:]


def freq_decodes_canonically(alphabet, bits):
    try:
        w = freq_decode(alphabet, bits)
    except CoderDecodeError:
        return
    assert freq_encode(alphabet, w) == bits


def repair_decodes_canonically(alphabet, base, bits):
    try:
        w = repair_decode(alphabet, base, bits)
    except CoderDecodeError:
        return
    assert repair_encode(alphabet, base, w) == bits


@PROPERTY
@given(ALPHABETS, BITS)
def test_freq_decode_arbitrary_bits(alphabet, bits):
    freq_decodes_canonically(alphabet, bits)


@PROPERTY
@given(ALPHABETS, st.data())
def test_freq_decode_mutated_streams(alphabet, data):
    w = data.draw(st.text(alphabet="".join(alphabet.symbols), min_size=1, max_size=80))
    freq_decodes_canonically(alphabet, mutate(freq_encode(alphabet, w), data))


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 4), st.sampled_from([-1, 0, 1]), st.data())
def test_freq_length_is_the_stream_length(asize, blocks, offset, data):
    # a small block puts lengths at and around its multiples in reach
    alphabet = Alphabet(tuple("abcd"[:asize]))
    n = max(1, 8 * blocks + offset)
    w = data.draw(st.text(alphabet="".join(alphabet.symbols), min_size=n, max_size=n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("amenlab.complexity.FREQ_BLOCK", 8)
        assert freq_length(alphabet, w) == len(freq_encode(alphabet, w))


@PROPERTY
@given(st.integers(1, 4), st.data())
def test_lz78_length_is_the_stream_length(asize, data):
    alphabet = Alphabet(tuple("abcd"[:asize]))
    w = data.draw(st.text(alphabet="".join(alphabet.symbols), min_size=1, max_size=300))
    assert lz78_length(alphabet, w) == len(lz78_encode(alphabet, w))


def test_lz78_length_matches_the_stream_on_long_and_wide_words():
    rng = SplitMix64(derive(78))
    w = "".join("b" if rng.next64() >> 60 == 0 else "a" for _ in range(1 << 16))
    wide = Alphabet(tuple(chr(0x100 + k) for k in range(300)))
    for alphabet, word in ((AB, w), (AB, "a" * 5000), (wide, random_word(wide, 3000, 5))):
        assert lz78_length(alphabet, word) == len(lz78_encode(alphabet, word))


def test_lz78_length_raises_like_the_encoder():
    # the last word's first foreign symbol comes past 10**4 valid ones
    for w in ("", "axb", "ab" * 10 + "?", "ab" * 6000 + "?a!"):
        with pytest.raises(ValueError) as enc:
            lz78_encode(AB, w)
        with pytest.raises(ValueError) as length:
            lz78_length(AB, w)
        assert str(length.value) == str(enc.value)


def lz78_phrases(w):
    """The complete phrases of w's LZ78 parse, without a trailing partial one."""
    seen, out, cur = set(), [], ""
    for ch in w:
        cur += ch
        if cur not in seen:
            seen.add(cur)
            out.append(cur)
            cur = ""
    return out


@PROPERTY
@given(st.integers(1, 4), st.booleans(), st.data())
def test_lz78_encode_matches_the_tuple_trie(asize, partial, data):
    # the word ends on a phrase boundary, or repeats a phrase it has parsed
    # (phrase j) so that it ends mid-phrase with final reference j
    alphabet = Alphabet(tuple("abcd"[:asize]))
    drawn = data.draw(st.text(alphabet="".join(alphabet.symbols), min_size=1, max_size=300))
    phrases = lz78_phrases(drawn)
    w, final = "".join(phrases), 0
    if partial:
        final = data.draw(st.integers(1, len(phrases)))
        w += phrases[final - 1]
    assert _lz78_parse(alphabet, w)[1] == final
    assert lz78_encode(alphabet, w) == reference_lz78_encode(alphabet, w)


def site_word(k, n, seed, p=None):
    """n of the first k letters from site_uniforms(seed, 0..n-1): "a" where the
    uniform is below p and "b" elsewhere, or uniform over all k if p is None."""
    u = site_uniforms(seed, np.arange(n, dtype=np.uint64))
    index = (u >= p).view(np.uint8) if p is not None else (u * k).astype(np.uint8)
    return (index + ord("a")).tobytes().decode("ascii")


@pytest.mark.parametrize("symbols, word, digest", [
    ("ab", lambda: site_word(2, 1 << 20, 1, p=0.9),
     "75ba00e1171f56357f3615618143e351cd766e142e9bc5cd79145cdf46a231e3"),
    ("abc", lambda: site_word(3, 10**5, 2),
     "a96a0cf4aef48a4d5b8c4374ad512c57ed905f6ca1a02d1897524b08ce14a349"),
    ("a", lambda: "a" * 4096,
     "2384f9a4189d1256141d0db56d524a07a1826b8eea42fa3d5c5a6e210d626bbf"),
], ids=["bernoulli-2^20", "three-letters-10^5", "one-letter-4096"])
def test_lz78_streams_pinned(symbols, word, digest):
    # digests of the tuple-keyed trie encoder's streams, so the token parse
    # must reproduce every code word bit for bit
    alphabet, w = Alphabet(tuple(symbols)), word()
    stream = lz78_encode(alphabet, w)
    assert hashlib.sha256(stream.encode()).hexdigest() == digest
    assert lz78_length(alphabet, w) == len(stream)


@PROPERTY
@given(ALPHABETS, st.data())
def test_repair_decode_arbitrary_bits(alphabet, data):
    base = data.draw(st.text(alphabet="".join(alphabet.symbols), min_size=1, max_size=6))
    repair_decodes_canonically(alphabet, base, data.draw(BITS))


@PROPERTY
@given(ALPHABETS, st.data())
def test_repair_decode_mutated_streams(alphabet, data):
    letters = "".join(alphabet.symbols)
    base = data.draw(st.text(alphabet=letters, min_size=1, max_size=60))
    target = data.draw(st.text(alphabet=letters, min_size=len(base), max_size=len(base)))
    stream = repair_encode(alphabet, base, target)
    repair_decodes_canonically(alphabet, base, mutate(stream, data))


@PROPERTY
@given(BITS, st.data())
def test_selfdelim_read_arbitrary_bits_at_any_position(bits, data):
    pos = data.draw(st.integers(0, len(bits)))
    try:
        n, end = selfdelim_read(bits, pos)
    except CoderDecodeError:
        return
    assert bits[pos:end] == selfdelim_encode(n)


@PROPERTY
@given(BITS, st.integers(1, 4))
def test_tuple_unpack_arbitrary_bits(bits, k):
    try:
        parts = tuple_unpack(bits, k)
    except CoderDecodeError:
        return
    assert len(parts) == k
    assert tuple_pack(parts) == bits


class SlicedBits(str):
    """A bit string that counts the characters its slices return, the work
    unit of the decoders: each one reads its input only by slicing it."""

    def __new__(cls, bits):
        s = super().__new__(cls, bits)
        s.sliced = 0
        return s

    def __getitem__(self, key):
        part = str.__getitem__(self, key)
        self.sliced += len(part)
        return part


def random_bits(n, seed):
    rng = SplitMix64(derive(seed, n))
    return "".join("01"[rng.randrange(2)] for _ in range(n))


def mutations(stream, seed, k=6):
    """A valid stream, then truncations, extensions and single bit flips of it."""
    yield stream
    rng = SplitMix64(derive(seed, len(stream)))
    for _ in range(k):
        i = rng.randrange(len(stream))
        yield stream[:i]
        yield stream + random_bits(1 + rng.randrange(64), seed + i)
        yield stream[:i] + "10"[int(stream[i])] + stream[i + 1:]


def sliced_reading(decode, bits):
    """Characters sliced from bits while decode runs, rejected or not."""
    bits = SlicedBits(bits)
    try:
        decode(bits)
    except CoderDecodeError:
        pass
    return bits.sliced


def work_inputs(alphabet, encode):
    """Random bits at 64, 1024 and 16384 bits, then valid streams of random
    words and their mutations."""
    for seed, n in enumerate((64, 1024, 16384)):
        yield random_bits(n, seed)
    for n in (1, 40, 1500):
        yield from mutations(encode(random_word(alphabet, n, seed=n)), n)


def decoder_cases():
    ab_bits = str.maketrans("ab", "01")
    yield pytest.param(AB, lambda b: selfdelim_read(b, 0),
                       lambda w: selfdelim_encode(int(w.translate(ab_bits), 2)) + "0110",
                       id="selfdelim_read")
    yield pytest.param(AB, lambda b: tuple_unpack(b, 3),
                       lambda w: tuple_pack([w.translate(ab_bits)] * 3), id="tuple_unpack")
    for alphabet in (AB, Alphabet(("a", "b", "c"))):
        name = "".join(alphabet.symbols)
        base = random_word(alphabet, 1500, seed=5)
        yield pytest.param(alphabet, lambda b, a=alphabet: lz78_decode(a, b),
                           lambda w, a=alphabet: lz78_encode(a, w), id=f"lz78_decode-{name}")
        yield pytest.param(alphabet, lambda b, a=alphabet: freq_read(a, b, 0),
                           lambda w, a=alphabet: freq_encode(a, w), id=f"freq_read-{name}")
        yield pytest.param(alphabet, lambda b, a=alphabet, base=base: repair_decode(a, base, b),
                           lambda w, a=alphabet, base=base: repair_encode(a, base, (w * 1500)[:1500]),
                           id=f"repair_decode-{name}")


@pytest.mark.parametrize("alphabet, decode, encode", decoder_cases())
def test_decoder_slices_each_bit_at_most_once(alphabet, decode, encode):
    for bits in work_inputs(alphabet, encode):
        assert sliced_reading(decode, bits) <= len(bits)


def test_repair_decode_refuses_a_bitmap_of_the_wrong_length_before_sizing_substitutes():
    reads = []

    class WatchedAlphabet(Alphabet):
        @property
        def size(self):
            reads.append(1)
            return len(self.symbols)

    watched = WatchedAlphabet(AB.symbols)
    base = "a" * 4000
    stream = repair_encode(AB, base, "b" * 4000)  # 4000 flips
    head = len(freq_encode(binary_alphabet(), "1" * 4000))
    for wrong in (base[:-1], base + "a", "a"):
        bits = SlicedBits(stream)
        with pytest.raises(CoderDecodeError, match="difference bitmap length mismatch"):
            repair_decode(watched, wrong, bits)
        # neither |A| ** flips nor the substitution block was touched
        assert not reads and bits.sliced == head
    assert repair_decode(watched, base, stream) == "b" * 4000 and reads


def digits_one_at_a_time(val, n, base):
    """The per-digit loop the radix conversion replaced: peel n digits."""
    out = []
    for _ in range(n):
        val, r = divmod(val, base)
        out.append(r)
    assert not val
    return out[::-1]


@pytest.mark.parametrize("base", [2, 3, 5])
def test_radix_conversion_matches_the_per_digit_loop(base):
    # groups of `cut` digits are the largest that fit int64 and are peeled in numpy
    cut = 1 << max(j for j in range(7) if base ** (1 << j) < 1 << 63)
    lengths = {0, 1, cut - 1, cut, cut + 1} | {(1 << k) + e for k in range(1, 12) for e in (-1, 0, 1)}
    rng = SplitMix64(derive(base, 2026))
    for n in sorted(lengths):
        for digits in ([0] * n, [base - 1] * n, [rng.randrange(base) for _ in range(n)]):
            val = _join_digits(digits, base)
            assert val == sum(d * base ** (n - 1 - k) for k, d in enumerate(digits))
            assert _split_digits(val, n, base) == digits_one_at_a_time(val, n, base) == digits


def test_repair_decode_refuses_an_out_of_range_block_before_splitting_it(monkeypatch):
    splits = []
    split = complexity._split_digits
    monkeypatch.setattr(complexity, "_split_digits", lambda *a: splits.append(a) or split(*a))
    abc = Alphabet(("a", "b", "c"))
    for flips in (1, 5, 40, 1000):
        splits.clear()
        head = freq_encode(binary_alphabet(), "1" * flips)
        width = (3 ** flips - 1).bit_length()
        for val in (3 ** flips, (1 << width) - 1):
            with pytest.raises(CoderDecodeError, match="substitution block out of range"):
                repair_decode(abc, "a" * flips, head + format(val, f"0{width}b"))
        assert not splits
        top = head + format(3 ** flips - 1, f"0{width}b")
        assert repair_decode(abc, "a" * flips, top) == "c" * flips and splits


def test_repair_decode_rejects_substitute_equal_to_base():
    # bitmap "1" flags the only site, and substitute 0 is the base letter "a"
    bits = freq_encode(binary_alphabet(), "1") + "0"
    with pytest.raises(CoderDecodeError, match="substitute equals the base symbol"):
        repair_decode(AB, "a", bits)
    assert repair_decode(AB, "a", freq_encode(binary_alphabet(), "1") + "1") == "b"


# -- LZ78 ---------------------------------------------------------------------


def test_lz78_frozen_trace_aaaa():
    stream = lz78_encode(AB, "aaaa")
    assert stream == selfdelim_encode(4) + "0" + "10" + "01"
    assert len(stream) == 13
    assert lz78_decode(AB, stream) == "aaaa"


def test_lz78_single_symbol():
    stream = lz78_encode(AB, "b")
    assert stream == selfdelim_encode(1) + "1"
    assert lz78_decode(AB, stream) == "b"


def test_lz78_constant_word_4096_small():
    w = "a" * 4096
    stream = lz78_encode(AB, w)
    assert len(stream) < 1500
    assert lz78_decode(AB, stream) == w


def test_lz78_roundtrip_random_words():
    for asize in (1, 2, 4):
        alphabet = Alphabet(tuple("abcd"[:asize]))
        for n in (1, 2, 3, 17, 100, 503):
            w = random_word(alphabet, n, seed=asize * 7919 + n)
            assert lz78_decode(alphabet, lz78_encode(alphabet, w)) == w


def test_lz78_roundtrip_with_partial_final_phrase():
    # "abab": phrases a, b, ab; then "ab" again would extend, but input ends
    w = "ababab"
    assert lz78_decode(AB, lz78_encode(AB, w)) == w


def test_lz78_fair_coin_rate_sane():
    n = 1 << 16
    w = "".join("a" if site_uniform(5, k) < 0.5 else "b" for k in range(n))
    rate = len(lz78_encode(AB, w)) / n
    assert 0.95 <= rate <= 1.25


def test_lz78_rejects_a_token_that_re_adds_a_phrase():
    # the second token is (back-reference 0, literal a), but phrase "a" is
    # phrase 1 already; the encoder codes "aa" as "a" plus a bare reference
    with pytest.raises(CoderDecodeError, match="re-adds an existing phrase"):
        lz78_decode(AB, "110001000")
    assert lz78_encode(AB, "aa") == "11000101"


def lz78_decodes_canonically(alphabet, bits):
    try:
        w = lz78_decode(alphabet, bits)
    except CoderDecodeError:
        return
    assert lz78_encode(alphabet, w) == bits


@PROPERTY
@given(ALPHABETS, BITS)
def test_lz78_decode_arbitrary_bits(alphabet, bits):
    lz78_decodes_canonically(alphabet, bits)


@PROPERTY
@given(ALPHABETS, st.data())
def test_lz78_decode_mutated_streams(alphabet, data):
    w = data.draw(st.text(alphabet="".join(alphabet.symbols), min_size=1, max_size=80))
    lz78_decodes_canonically(alphabet, mutate(lz78_encode(alphabet, w), data))


def test_lz78_forged_header_is_refused_in_linear_memory():
    # the header claims 2^80 letters and every token extends the newest
    # phrase, so phrases of length 1, 2, 3, ... are claimed before the
    # stream runs out; building them would take quadratic memory
    tokens = [format(k, f"0{k.bit_length()}b") if k else "" for k in range(32000)]
    stream = selfdelim_encode(1 << 80) + "".join(t + "0" for t in tokens)
    tracemalloc.start()
    try:
        with pytest.raises(CoderDecodeError, match="truncated back-reference"):
            lz78_decode(AB, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_lz78_rejects_bad_streams():
    stream = lz78_encode(AB, "abba")
    with pytest.raises(CoderDecodeError):
        lz78_decode(AB, stream + "0")
    with pytest.raises(CoderDecodeError):
        lz78_decode(AB, stream[:-1])
    with pytest.raises(ValueError):
        lz78_encode(AB, "")


# -- repair coder ---------------------------------------------------------------


def corrupt(alphabet, w, flips, seed):
    rng = SplitMix64(derive(seed, len(w)))
    sites = sorted(rng.randrange(len(w)) for _ in range(3 * flips))
    out = list(w)
    done = set()
    for i in sites:
        if len(done) == flips:
            break
        if i in done:
            continue
        choices = [s for s in alphabet.symbols if s != out[i]]
        out[i] = choices[rng.randrange(len(choices))]
        done.add(i)
    return "".join(out)


def test_repair_identical_is_header_only():
    w = random_word(AB, 200, seed=3)
    stream = repair_encode(AB, w, w)
    assert stream == freq_encode(binary_alphabet(), "0" * 200)
    assert repair_decode(AB, w, stream) == w


def test_repair_spec_point_1000_sites_50_flips():
    base = random_word(AB, 1000, seed=11)
    target = corrupt(AB, base, 50, seed=12)
    stream = repair_encode(AB, base, target)
    assert len(stream) <= 1000 * (0.28640 + 0.05) + 120
    assert repair_decode(AB, base, stream) == target


def test_repair_full_corruption_binary():
    base = "a" * 500
    target = "b" * 500
    stream = repair_encode(AB, base, target)
    # n substitute bits plus a tiny all-ones bitmap code
    assert 500 <= len(stream) <= 500 + 50
    assert repair_decode(AB, base, stream) == target


def test_repair_roundtrip_various_rates():
    abcd = Alphabet(tuple("abcd"))
    for alphabet in (AB, abcd):
        for n, flips in ((1, 0), (1, 1), (64, 3), (500, 50), (500, 500)):
            base = random_word(alphabet, n, seed=n + flips)
            target = corrupt(alphabet, base, flips, seed=n * 31 + flips)
            stream = repair_encode(alphabet, base, target)
            assert repair_decode(alphabet, base, stream) == target


def test_repair_closed_form_bound():
    for alphabet in (AB, Alphabet(tuple("abcd"))):
        for n in (200, 1000):
            for delta in (0.01, 0.05, 0.1):
                flips = max(1, int(delta * n))
                base = random_word(alphabet, n, seed=n)
                target = corrupt(alphabet, base, flips, seed=n + flips)
                d = sum(1 for x, y in zip(base, target) if x != y)
                bound = (
                    n * entropy_of_counts([d, n - d])
                    + d * math.log2(alphabet.size)
                    + 2 * (2 * math.log2(n + 1) + 2)
                    + 3
                )
                assert len(repair_encode(alphabet, base, target)) <= bound + 1e-9


def test_repair_rejects_mismatch_and_junk():
    with pytest.raises(ValueError):
        repair_encode(AB, "ab", "abb")
    stream = repair_encode(AB, "abba", "abab")
    with pytest.raises(CoderDecodeError):
        repair_decode(AB, "abba", stream + "0")
    with pytest.raises(CoderDecodeError):
        repair_decode(AB, "abb", stream)


def test_repair_rejects_symbols_outside_the_alphabet():
    with pytest.raises(ValueError, match="symbol 'x' not in alphabet"):
        repair_encode(AB, "aa", "ax")
    with pytest.raises(ValueError, match="symbol 'x' not in alphabet"):
        repair_encode(AB, "xa", "xa")


# -- tuple framing ----------------------------------------------------------


def test_tuple_frozen_example_123_bits():
    packed = tuple_pack(["1" * 100, "0" * 7])
    assert len(packed) == 107 + 2 * 7 + 2 == 123


def test_tuple_single_part_zero_overhead():
    assert len(tuple_pack(["10101"])) == 5


def test_tuple_roundtrip():
    rng = SplitMix64(derive(17))
    for k in (1, 2, 3, 5):
        parts = []
        for i in range(k):
            n = rng.randrange(64)
            parts.append("".join("01"[rng.randrange(2)] for _ in range(n)))
        assert tuple_unpack(tuple_pack(parts), k) == parts


def test_tuple_unpack_rejects_truncation():
    packed = tuple_pack(["1010", "11"])
    with pytest.raises(CoderDecodeError):
        tuple_unpack(packed[:3], 2)


# -- window helpers ---------------------------------------------------------


def window_on(group, coords, word):
    return PartialConfiguration(
        {group.encode((c,)): s for c, s in zip(coords, word)}
    )


def test_hamming_fractions():
    z = get_group("z")
    t1 = window_on(z, range(4), "0011")
    t2 = window_on(z, range(4), "0010")
    assert hamming(t1, t2) == Fraction(1, 4)
    assert hamming(t1, t1) == 0
    t3 = window_on(z, range(4), "1100")
    assert hamming(t1, t3) == 1


def test_hamming_rejects_support_mismatch():
    z = get_group("z")
    with pytest.raises(ValueError):
        hamming(window_on(z, range(3), "000"), window_on(z, range(4), "0000"))


def test_rate_series_constant_window():
    # the boxes family cut down to its one window of 10^4 sites
    seq = replace(builtin_families(get_group("z"))["boxes"], start=10**4)
    (point,) = rate_series(ConstantSource(AB, "a"), seq, ["freq"], 10**4)["freq"]
    assert point.bits / 10**4 < 0.01


def test_rate_series_rejects_unknown_names():
    assert ESTIMATORS["freq"] is freq_length
    assert ESTIMATORS["lz78"] is lz78_length
    seq = builtin_families(get_group("z"))["boxes"]
    with pytest.raises(ValueError):
        rate_series(ConstantSource(AB, "a"), seq, ["zip"], 3)
    with pytest.raises(TypeError, match="list of names"):
        rate_series(ConstantSource(AB, "a"), seq, "freq", 3)
