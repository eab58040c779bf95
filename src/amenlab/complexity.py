"""Decodable coders for words, and complexity rates along window sequences.

A complexity estimate is the exact length of a code word that a matching
decoder in this module inverts, so estimates are true description lengths,
never entropy formulas in disguise.  ``ESTIMATORS`` maps each name that
``rate_series`` accepts to that length, computed without building the code
word: ``freq_length`` from the letter counts, ``lz78_length`` from the
tokens of the one LZ78 parse that ``lz78_encode`` formats, each new phrase
as the token ref*|A| + literal that ``lz78_decode`` reads.

Integers are framed with a self-delimiting code: the binary digits of n,
each digit doubled, followed by the stop pair "01" (so 5 = 101 becomes
"11001101"); the empty digit string encodes 0.  The frame costs
2*bitlen(n) + 2 bits.

The frequency coder is a two-part code: letter counts in self-delimiting
frames followed by the rank of the word inside its type class, written in
a width that the counts fix, so the length of a code word needs no rank.
Words longer than ``FREQ_BLOCK`` are split into blocks; within one block the
coder meets the closed-form bound
|w|*H(p(w)) + |A|*(2*log2(|w|+1)+2) + 2 bits.  The size of a type class,
n!/prod(c!), is a product of binomials while its bound n*H(c/n) stays
below about 8 kbit, and past that a balanced product of prime powers p**e,
each e by Legendre's formula, from a sieve sized by n and built on first
use.  CPython's ``comb`` grows quadratically with its result, so a class
of 2**16 balanced symbols takes 2-3 ms this way rather than 60-80 ms.
The rank advances in exact steps of 64 symbols.  A step scales the class
size by two ratios t/q and p/q, with q of at most 1 kbit; both products are
exact, so the lcm of the reduced denominators (~600 bits) divides the size,
and a step costs one division by it and two products.  A block of n symbols
still costs time quadratic in n, with a small constant.  Unranking guesses
each step from the top bits of rank and class size, and checks the guess
exactly.
"""

from __future__ import annotations

from collections.abc import Callable, KeysView
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, log2, prod
from operator import mul, ne

import numpy as np

from .series import RatePoint
from .symbolic import Alphabet, PartialConfiguration, binary_alphabet, cont

FREQ_BLOCK = 1 << 16
_STEP = 64  # symbols per exact rank/unrank step


class CoderDecodeError(ValueError):
    """The bit stream is not a valid code word for the selected coder."""


# -- self-delimiting integers --------------------------------------------

def selfdelim_encode(n: int) -> str:
    if n < 0:
        raise ValueError("only naturals are framed")
    body = "".join(d * 2 for d in bin(n)[2:]) if n else ""
    return body + "01"


def selfdelim_length(n: int) -> int:
    return 2 * n.bit_length() + 2


def selfdelim_read(bits: str, pos: int) -> tuple[int, int]:
    """Read one framed integer starting at pos; returns (n, end).  Slices
    each input bit at most once, two at a time."""
    digits = []
    while True:
        pair = bits[pos:pos + 2]
        if len(pair) < 2:
            raise CoderDecodeError("truncated integer frame")
        pos += 2
        if pair == "01":
            break
        if pair == "00":
            digits.append("0")
        elif pair == "11":
            digits.append("1")
        else:
            raise CoderDecodeError("invalid integer frame pair '10'")
    if digits and digits[0] == "0":
        raise CoderDecodeError("noncanonical integer frame (leading zero)")
    return (int("".join(digits), 2) if digits else 0, pos)


# -- frequency (type-class) coder ------------------------------------------

# the measured crossover: both routes take 0.2-0.5 ms at 7-10 kbit, and the
# binomials cost more on balanced classes of the same size
_PRIME_ROUTE_BITS = 8_000
_PRIME_ROUTE_MAX_N = 1 << 24  # below it, n keeps the sieve at 16 MB and every p**k in int64


def _multinomial(counts) -> int:
    """n!/prod(c!) for n = sum(counts): the size of their type class.  A class
    whose size n*H(counts/n) bounds below ``_PRIME_ROUTE_BITS`` bits is a
    product of binomials; a larger one is a product of prime powers, where
    CPython's ``comb`` grows quadratically with the size of its result."""
    n = sum(counts)
    if n < _PRIME_ROUTE_MAX_N and sum(c * log2(n / c) for c in counts if c) >= _PRIME_ROUTE_BITS:
        return _prime_power_multinomial(n, counts)
    out = 1
    rem = 0
    for c in counts:
        rem += c
        out *= comb(rem, c)
    return out


@lru_cache(maxsize=None)
def _primes_below(bits: int) -> np.ndarray:
    """The primes below 2**bits, ascending, in int64 (a sieve of Eratosthenes);
    read-only, as every caller shares the cached table."""
    sieve = np.ones(1 << bits, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt((1 << bits) - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)
    primes.flags.writeable = False
    return primes


def _prime_power_multinomial(n: int, counts) -> int:
    """n!/prod(c!) as a balanced product of p**e over the primes p <= n, with e
    from Legendre's formula, e = sum over k of n // p**k - sum(c // p**k)
    (Goetgheluck, Computing binomial coefficients, Amer. Math. Monthly 1987)."""
    primes = _primes_below(n.bit_length())
    c = np.array(counts, dtype=np.int64)[:, None]
    e = np.zeros(len(primes), dtype=np.int64)
    pk = primes.copy()
    live = len(primes)
    while live:  # p**k grows with p, so p**k <= n holds on a prefix
        live = int(np.searchsorted(pk[:live], n, side="right"))
        q = pk[:live]
        e[:live] += n // q - (c // q).sum(axis=0)
        q *= primes[:live]
    p, e = primes[e > 0], e[e > 0]
    # p**e fits int64 for all but tiny p on large alphabets (p**e <= n**(|A|-1))
    fits = e * np.log2(p) < 62
    factors = (p[fits] ** e[fits]).tolist()
    factors += map(pow, p[~fits].tolist(), e[~fits].tolist())
    while len(factors) > 1:  # pair neighbours, so big factors meet big ones
        factors = [*map(mul, factors[::2], factors[1::2]), *factors[len(factors) & ~1:]]
    return factors[0] if factors else 1


def _step_ratio(chunk, index_of, counts: list[int], rem: int) -> tuple[int, int, int]:
    """Walk chunk, updating counts.  With S the class size before it, the
    chunk's rank terms sum to S*t/q and S*p/q is the size after it, both exact."""
    t, p = 0, 1
    for r, ch in zip(range(rem, 0, -1), chunk):
        ci = index_of[ch]
        t = t * r + p * sum(counts[:ci]) if ci else t * r
        p *= counts[ci]
        counts[ci] -= 1
    return t, p, prod(range(rem - len(chunk) + 1, rem + 1))


def _step(size: int, t: int, p: int, q: int) -> tuple[int, int]:
    """(size*t//q, size*p//q), both exact, by one division: in lowest terms
    t/q and p/q have denominators q/g2 and q/g1 (g1 = gcd(p, q), g2 = gcd(t, q)),
    which divide size, and so does their lcm q // gcd(g1, g2), ~600 bits at 64."""
    g1, g2 = gcd(p, q), gcd(t, q)
    lcm = q // gcd(g1, g2)
    e = size // lcm
    return e * (lcm // (q // g2) * (t // g2)), e * (lcm // (q // g1) * (p // g1))


def _rank_in_class(block: str, index_of: dict, counts: list[int], size: int) -> int:
    counts = list(counts)
    rank = 0
    for i in range(0, len(block), _STEP):
        low, size = _step(size, *_step_ratio(block[i:i + _STEP], index_of, counts, len(block) - i))
        rank += low
    return rank


def _unrank_steps(rank: int, size: int, counts: list[int], rem: int, k: int, symbols):
    """Per-symbol unrank of k letters: (letters, rank, size).  Exact when
    rank < size; a truncated rank past every other letter takes the last."""
    out = []
    for rem in range(rem, rem - k, -1):
        seen = 0
        for a, ca in enumerate(counts):
            seen += ca
            cnt = size * ca // rem
            if rank < cnt or seen == rem:
                break
            rank -= cnt
        out.append(symbols[a])
        size = cnt
        counts[a] -= 1
    return out, rank, size


def _unrank_in_class(rank: int, size: int, counts: list[int], symbols) -> str:
    counts = list(counts)
    rem = sum(counts)
    if rank >= size:
        raise CoderDecodeError("type-class rank out of range")
    if size == 1:  # at most one nonzero count: the class is one word
        return "".join(s * c for s, c in zip(symbols, counts))
    index_of = {s: i for i, s in enumerate(symbols)}
    out = []
    while rem:
        k = min(_STEP, rem)
        # guess the step from the top bits.  Picking a letter of count c
        # divides size by rem/c < 2**bitlen(rem // c), and c >= least, so
        # width bits keep 64 after the step, a margin for its floors
        least = max(1, min(c for c in counts if c) - k)
        width = 64 + k * (rem // least).bit_length()
        shift = size.bit_length() - width
        if shift < 2 * k * rem.bit_length():  # a check costs more than exact
            shift, k = 0, rem  # steps from here on, as size only shrinks
        guess = list(counts)
        letters, r, s = _unrank_steps(rank >> shift, size >> shift, guess, rem, k, symbols)
        if shift:
            # prefix intervals partition [0, size), so a guess whose
            # interval holds rank is right; on a miss, redo the step exactly
            low, s = _step(size, *_step_ratio(letters, index_of, list(counts), rem))
            r = rank - low
            if not 0 <= r < s:
                guess = counts
                letters, r, s = _unrank_steps(rank, size, guess, rem, k, symbols)
        out.extend(letters)
        counts, rank, size, rem = guess, r, s, rem - k
    return "".join(out)


def _class_size(counts: list[int]) -> tuple[int, int]:
    """Size of the type class of counts, and the bit width of a rank in it."""
    size = _multinomial(counts)
    return size, (size - 1).bit_length()


def _freq_blocks(alphabet: Alphabet, w: str):
    """(block, letter counts) per block of FREQ_BLOCK symbols of w.

    A final empty block terminates the stream when the last data block is
    full, so the stream is self-delimiting within a larger bit string.
    """
    if not w:
        raise ValueError("cannot frequency-code the empty word")
    blocks = [w[i:i + FREQ_BLOCK] for i in range(0, len(w), FREQ_BLOCK)]
    if len(blocks[-1]) == FREQ_BLOCK:
        blocks.append("")
    for block in blocks:
        counts = [block.count(s) for s in alphabet.symbols]
        if sum(counts) != len(block):
            bad = next(ch for ch in block if ch not in alphabet.symbols)
            raise ValueError(f"symbol {bad!r} not in alphabet")
        yield block, counts


def freq_encode(alphabet: Alphabet, w: str) -> str:
    """Self-delimiting frequency-coder stream for w, in blocks of FREQ_BLOCK symbols."""
    index_of = {s: i for i, s in enumerate(alphabet.symbols)}
    parts = []
    for block, counts in _freq_blocks(alphabet, w):
        parts.extend(selfdelim_encode(c) for c in counts)
        size, width = _class_size(counts)
        if width:
            parts.append(format(_rank_in_class(block, index_of, counts, size), f"0{width}b"))
    return "".join(parts)


def freq_length(alphabet: Alphabet, w: str) -> int:
    """``len(freq_encode(alphabet, w))``, from the letter counts, with no rank."""
    return sum(sum(map(selfdelim_length, counts)) + _class_size(counts)[1]
               for _, counts in _freq_blocks(alphabet, w))


def freq_read(alphabet: Alphabet, bits: str, pos: int) -> tuple[str, int]:
    """Decode one frequency-coder stream starting at pos; returns (word, end).

    Slices each input bit at most once.  Work is linear in the bits read,
    times a factor fixed by FREQ_BLOCK: each block reads at least 2 bits per
    letter of the alphabet, and one declaring more than FREQ_BLOCK symbols
    is refused before any big-integer work.
    """
    out = []
    while True:
        counts = []
        for _ in alphabet.symbols:
            c, pos = selfdelim_read(bits, pos)
            counts.append(c)
        blen = sum(counts)
        # the encoder never emits a longer block; checked before any
        # big-integer work so junk headers cost time linear in their length
        if blen > FREQ_BLOCK:
            raise CoderDecodeError(f"block of {blen} symbols exceeds {FREQ_BLOCK}")
        size, width = _class_size(counts)
        if pos + width > len(bits):
            raise CoderDecodeError("truncated type-class rank")
        rank = int(bits[pos:pos + width], 2) if width else 0
        pos += width
        out.append(_unrank_in_class(rank, size, counts, alphabet.symbols))
        if blen < FREQ_BLOCK:
            break
    word = "".join(out)
    if not word:
        raise CoderDecodeError("stream encodes the empty word")
    return word, pos


def freq_decode(alphabet: Alphabet, bits: str) -> str:
    w, pos = freq_read(alphabet, bits, 0)
    if pos != len(bits):
        raise CoderDecodeError(f"{len(bits) - pos} unread bits after stream end")
    return w


# -- incremental-parsing (LZ78) coder ----------------------------------------

def _lz78_parse(alphabet: Alphabet, w: str) -> tuple[KeysView[int], int]:
    """Each new phrase of w's LZ78 parse as the token ref*|A| + literal index,
    in order, and the number of a trailing partial phrase (0 if none).  The
    tokens are the trie's keys: phrase k's node is k*|A|, and a child's key
    is its parent's node plus the symbol index."""
    if not w:
        raise ValueError("cannot code the empty word")
    symbols = alphabet.symbols
    if sum(map(w.count, symbols)) != len(w):
        bad = next(ch for ch in w if ch not in symbols)
        raise ValueError(f"symbol {bad!r} not in alphabet")
    asize = alphabet.size
    trie: dict[int, int] = {}
    get = trie.get
    cur = 0
    for key in map(ord, w.translate({ord(s): i for i, s in enumerate(symbols)})):
        nxt = get(cur + key)
        if nxt is None:
            trie[cur + key] = (len(trie) + 1) * asize
            cur = 0
        else:
            cur = nxt
    return trie.keys(), cur // asize


def lz78_encode(alphabet: Alphabet, w: str) -> str:
    """LZ78: length frame, then (back-reference, literal) tokens.

    Back-references use ceil(log2(dictionary size)) bits at emission time;
    a trailing partial phrase is emitted as a bare back-reference, which the
    decoder recognizes from the remaining length.
    """
    tokens, final = _lz78_parse(alphabet, w)
    asize = alphabet.size
    lit_width = (asize - 1).bit_length()
    parts = [selfdelim_encode(len(w))]
    for k, token in enumerate(tokens):  # phrase k's reference takes bitlen(k) bits
        if k or lit_width:  # format writes at least 1 bit; phrase 0 over one letter takes none
            ref, lit = divmod(token, asize)
            parts.append(format(ref << lit_width | lit, f"0{k.bit_length() + lit_width}b"))
    if final:
        parts.append(format(final, f"0{len(tokens).bit_length()}b"))
    return "".join(parts)


def lz78_length(alphabet: Alphabet, w: str) -> int:
    """``len(lz78_encode(alphabet, w))``, from the parse's tokens with none
    formatted.  The P >= 1 references take sum(bitlen(k) for k < P) bits,
    which is P*L - 2**L + 1 for L = bitlen(P - 1)."""
    tokens, final = _lz78_parse(alphabet, w)
    phrases, top = len(tokens), (len(tokens) - 1).bit_length()
    return (selfdelim_length(len(w)) + phrases * top - (1 << top) + 1
            + phrases * (alphabet.size - 1).bit_length() + (phrases.bit_length() if final else 0))


def lz78_decode(alphabet: Alphabet, bits: str) -> str:
    """Inverse of :func:`lz78_encode`; raises CoderDecodeError on any other stream.

    The tokens are parsed as (back-reference, literal) pairs with phrase
    lengths only, and the phrase strings are built once the stream is
    accepted.  A forged header cannot make the parse build long phrases, so
    the work is O(bits) before the stream is accepted, then O(output).  Each
    input bit is sliced at most once.
    """
    total, pos = selfdelim_read(bits, 0)
    if total < 1:
        raise CoderDecodeError("stream encodes the empty word")
    asize = alphabet.size
    lit_width = (asize - 1).bit_length()
    lengths = [0]  # phrase lengths, phrase 0 being the empty one
    known = {}  # back-reference * |A| + literal of every phrase so far, in order
    final = 0  # phrase repeated as a bare back-reference at the end
    built = 0
    while built < total:
        width = (len(lengths) - 1).bit_length()
        ref = 0
        if width:
            chunk = bits[pos:pos + width]
            if len(chunk) < width:
                raise CoderDecodeError("truncated back-reference")
            ref = int(chunk, 2)
            pos += width
        if ref >= len(lengths):
            raise CoderDecodeError("back-reference out of range")
        stem = lengths[ref]
        remaining = total - built
        if stem + 1 <= remaining:
            lit_idx = 0
            if lit_width:
                chunk = bits[pos:pos + lit_width]
                if len(chunk) < lit_width:
                    raise CoderDecodeError("truncated literal")
                lit_idx = int(chunk, 2)
                pos += lit_width
            if lit_idx >= asize:
                raise CoderDecodeError("literal out of range")
            token = ref * asize + lit_idx
            if token in known:  # the encoder would have extended it
                raise CoderDecodeError("token re-adds an existing phrase")
            known[token] = None
            lengths.append(stem + 1)
            built += stem + 1
        else:
            if stem != remaining:
                raise CoderDecodeError("final phrase length mismatch")
            final = ref
            built += stem
    if pos != len(bits):
        raise CoderDecodeError(f"{len(bits) - pos} unread bits after stream end")
    # every new phrase is emitted once, in order, so building them all is O(output)
    symbols = alphabet.symbols
    phrases = [""]
    for token in known:
        ref, lit_idx = divmod(token, asize)
        phrases.append(phrases[ref] + symbols[lit_idx])
    return "".join(phrases[1:]) + phrases[final]


# -- difference (repair) coder -----------------------------------------------

def _radix_powers(base: int, n: int) -> list[int]:
    """base**(2**j) for each level j of converting n base-``base`` digits."""
    powers = [base]
    while 1 << len(powers) < n:
        powers.append(powers[-1] * powers[-1])
    return powers


def _join_digits(digits: list[int], base: int) -> int:
    """The integer with these base-``base`` digits, most significant first:
    neighbours join pairwise, level j scaling by base**(2**j), so groups of
    2**j digits align from the right and a level costs one Karatsuba product
    per pair (Knuth, TAOCP vol. 2, 4.4)."""
    vals = digits or [0]
    for scale in _radix_powers(base, len(vals)):
        if len(vals) & 1:
            vals = [0, *vals]
        vals = [hi * scale + lo for hi, lo in zip(vals[::2], vals[1::2])]
    return vals[0]


def _split_digits(val: int, n: int, base: int) -> list[int]:
    """The n base-``base`` digits of val < base**n, most significant first:
    the inverse of :func:`_join_digits`, one ``divmod`` per group and level
    down to groups of 2**m digits that fit int64, peeled in numpy."""
    powers = _radix_powers(base, n)
    m = sum(s < 1 << 63 for s in powers) - 1
    vals = [val]
    for scale in reversed(powers[m:]):
        vals = [part for v in vals for part in divmod(v, scale)]
    groups = np.array(vals, dtype=np.int64)
    digits = np.empty((len(vals), 1 << m), dtype=np.int64)
    for k in range(1 << m, 0, -1):
        groups, digits[:, k - 1] = np.divmod(groups, base)
    return digits.ravel()[digits.size - n:].tolist()


def repair_encode(alphabet: Alphabet, base: str, target: str) -> str:
    """Code for ``target`` given ``base``: frequency-coded difference bitmap
    plus the substitute letters packed as one base-|A| integer, joined by
    divide and conquer in subquadratic time."""
    if len(base) != len(target):
        raise ValueError("base and target must have equal length")
    if not base:
        raise ValueError("empty words are not coded")
    index_of = {s: i for i, s in enumerate(alphabet.symbols)}
    bitmap = []
    subs = []
    for a, b in zip(base, target):
        if b not in index_of:
            raise ValueError(f"symbol {b!r} not in alphabet")
        if a == b:
            bitmap.append("0")
        else:
            bitmap.append("1")
            subs.append(index_of[b])
    head = freq_encode(binary_alphabet(), "".join(bitmap))
    width = (alphabet.size ** len(subs) - 1).bit_length()
    return head + (format(_join_digits(subs, alphabet.size), f"0{width}b") if width else "")


def repair_decode(alphabet: Alphabet, base: str, bits: str) -> str:
    """Inverse of :func:`repair_encode` for this base.  Slices each input bit
    at most once, refuses a bitmap whose length differs from ``base`` before
    |A|**flips is computed, and a substitution block of |A|**flips or more
    before any digit is split off it."""
    bitmap, pos = freq_read(binary_alphabet(), bits, 0)
    if len(bitmap) != len(base):
        raise CoderDecodeError("difference bitmap length mismatch")
    flips = bitmap.count("1")
    limit = alphabet.size ** flips
    width = (limit - 1).bit_length()
    val = 0
    if width:
        chunk = bits[pos:pos + width]
        if len(chunk) < width:
            raise CoderDecodeError("truncated substitution block")
        val = int(chunk, 2)
        pos += width
    if pos != len(bits):
        raise CoderDecodeError(f"{len(bits) - pos} unread bits after stream end")
    if val >= limit:
        raise CoderDecodeError("substitution block out of range")
    digits = [alphabet.symbols[r] for r in _split_digits(val, flips, alphabet.size)]
    out = []
    k = 0
    for ch, flag in zip(base, bitmap):
        if flag == "1":
            if digits[k] == ch:
                raise CoderDecodeError("substitute equals the base symbol")
            out.append(digits[k])
            k += 1
        else:
            out.append(ch)
    return "".join(out)


# -- tuple framing ------------------------------------------------------------

def tuple_pack(parts: list[str]) -> str:
    """Concatenate bit strings; every part but the last gets a length frame,
    so the framing costs 2*bitlen(len(part)) + 2 bits per framed part."""
    if not parts:
        raise ValueError("nothing to pack")
    out = []
    for p in parts[:-1]:
        out.append(selfdelim_encode(len(p)))
        out.append(p)
    out.append(parts[-1])
    return "".join(out)


def tuple_unpack(bits: str, k: int) -> list[str]:
    """Inverse of :func:`tuple_pack` for k parts; slices each input bit at most once."""
    if k < 1:
        raise ValueError("k >= 1")
    out = []
    pos = 0
    for _ in range(k - 1):
        n, pos = selfdelim_read(bits, pos)
        if pos + n > len(bits):
            raise CoderDecodeError("truncated tuple part")
        out.append(bits[pos:pos + n])
        pos += n
    out.append(bits[pos:])
    return out


# -- windows -------------------------------------------------------------------

def hamming(t1: PartialConfiguration, t2: PartialConfiguration) -> Fraction:
    """Fraction of the common support where two windows disagree."""
    if t1.support != t2.support:
        raise ValueError("windows have different supports")
    if len(t1) == 0:
        raise ValueError("windows are empty")
    bad = sum(map(ne, cont(t1), cont(t2)))
    return Fraction(bad, len(t1))


ESTIMATORS: dict[str, Callable[[Alphabet, str], int]] = {
    "freq": freq_length,
    "lz78": lz78_length,
}


def rate_series(source, seq, estimators: list[str], upto: int) -> dict[str, list[RatePoint]]:
    """Description-length rates of one source along a Folner sequence.

    ``source`` provides ``word(runs) -> str``, the content word of its window
    on the sites of ``runs``, and an ``alphabet`` attribute.  Each window is
    read once, as ``seq.runs(i)``, and sampled once; every named estimator
    gives the length of its code word for the content word.  Rates are bits
    per site.  Returns the points of each name, in order.
    """
    if isinstance(estimators, str):
        raise TypeError(f"estimators is a list of names, not the string {estimators!r}")
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r} (have {sorted(ESTIMATORS)})")
    series = {name: [] for name in estimators}
    for i in seq.indices(upto):
        word = source.word(seq.runs(i))  # never empty
        for name, points in series.items():
            bits = ESTIMATORS[name](source.alphabet, word)
            points.append(RatePoint(i, len(word), bits, bits / len(word)))
    return series
