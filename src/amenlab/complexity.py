"""Decodable coders for words, and complexity rates along window sequences.

A complexity estimate is the exact length of a code word that a matching
decoder in this module inverts, so estimates are true description lengths,
never entropy formulas in disguise.  ``ESTIMATORS`` maps each name that
``rate_series`` accepts to that length; for ``"freq"`` it is ``freq_length``,
which computes it from the letter counts without building the code word.

Integers are framed with a self-delimiting code: the binary digits of n,
each digit doubled, followed by the stop pair "01" (so 5 = 101 becomes
"11001101"); the empty digit string encodes 0.  The frame costs
2*bitlen(n) + 2 bits.

The frequency coder is a two-part code: letter counts in self-delimiting
frames followed by the rank of the word inside its type class, written in
a width that the counts fix, so the length of a code word needs no rank.
Words longer than ``FREQ_BLOCK`` are split into blocks; within one block the
coder meets the closed-form bound
|w|*H(p(w)) + |A|*(2*log2(|w|+1)+2) + 2 bits.  The rank advances in exact
steps of 64 symbols, each multiplying the class size by ~1 kbit integers
and dividing it by another, so a block of n symbols still costs time
quadratic in n, with a small constant.  Unranking guesses each step from
the top bits of rank and class size, and checks the guess exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import ne
from typing import Callable

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

def _multinomial(counts) -> int:
    out = 1
    rem = 0
    for c in counts:
        rem += c
        out *= comb(rem, c)
    return out


def _step_ratio(chunk, index_of, counts: list[int], rem: int) -> tuple[int, int, int]:
    """Walk chunk, updating counts.  With S the class size before it, the
    chunk's rank terms sum to S*t/q and S*p/q is the size after it, both exact."""
    t, p, q = 0, 1, 1
    for ch in chunk:
        ci = index_of[ch]
        t = t * rem + p * sum(counts[:ci])
        p *= counts[ci]
        q *= rem
        counts[ci] -= 1
        rem -= 1
    return t, p, q


def _rank_in_class(block: str, index_of: dict, counts: list[int], size: int) -> int:
    counts = list(counts)
    rank = 0
    for i in range(0, len(block), _STEP):
        t, p, q = _step_ratio(block[i:i + _STEP], index_of, counts, len(block) - i)
        rank += size * t // q
        size = size * p // q
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
            t, p, q = _step_ratio(letters, index_of, list(counts), rem)
            low, s = size * t // q, size * p // q
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

def lz78_encode(alphabet: Alphabet, w: str) -> str:
    """LZ78: length frame, then (back-reference, literal) tokens.

    Back-references use ceil(log2(dictionary size)) bits at emission time;
    a trailing partial phrase is emitted as a bare back-reference, which the
    decoder recognizes from the remaining length.
    """
    if not w:
        raise ValueError("cannot code the empty word")
    index_of = {s: i for i, s in enumerate(alphabet.symbols)}
    lit_width = (alphabet.size - 1).bit_length()
    parts = [selfdelim_encode(len(w))]
    trie: dict[tuple[int, str], int] = {}
    cur = 0
    for ch in w:
        if ch not in index_of:
            raise ValueError(f"symbol {ch!r} not in alphabet")
        nxt = trie.get((cur, ch))
        if nxt is not None:
            cur = nxt
            continue
        width = len(trie).bit_length()  # the trie holds every phrase but the empty one
        if width:
            parts.append(format(cur, f"0{width}b"))
        if lit_width:
            parts.append(format(index_of[ch], f"0{lit_width}b"))
        trie[(cur, ch)] = len(trie) + 1
        cur = 0
    if cur:
        width = len(trie).bit_length()
        if width:
            parts.append(format(cur, f"0{width}b"))
    return "".join(parts)


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

def repair_encode(alphabet: Alphabet, base: str, target: str) -> str:
    """Code for ``target`` given ``base``: frequency-coded difference bitmap
    plus the substitute letters packed as one base-|A| integer, built one
    digit per flip on about flips*log2|A| bits, so in O(flips**2)."""
    if len(base) != len(target):
        raise ValueError("base and target must have equal length")
    if not base:
        raise ValueError("empty words are not coded")
    index_of = {s: i for i, s in enumerate(alphabet.symbols)}
    bitmap = []
    subs_val = 0
    flips = 0
    for a, b in zip(base, target):
        if b not in index_of:
            raise ValueError(f"symbol {b!r} not in alphabet")
        if a == b:
            bitmap.append("0")
        else:
            bitmap.append("1")
            subs_val = subs_val * alphabet.size + index_of[b]
            flips += 1
    head = freq_encode(binary_alphabet(), "".join(bitmap))
    width = (alphabet.size ** flips - 1).bit_length()
    return head + (format(subs_val, f"0{width}b") if width else "")


def repair_decode(alphabet: Alphabet, base: str, bits: str) -> str:
    """Inverse of :func:`repair_encode` for this base.  Slices each input bit
    at most once, refuses a bitmap whose length differs from ``base`` before
    |A|**flips is computed, and peels one base-|A| digit per flip off about
    flips*log2|A| bits, so unpacking the substitutes is O(flips**2)."""
    bitmap, pos = freq_read(binary_alphabet(), bits, 0)
    if len(bitmap) != len(base):
        raise CoderDecodeError("difference bitmap length mismatch")
    flips = bitmap.count("1")
    width = (alphabet.size ** flips - 1).bit_length()
    val = 0
    if width:
        chunk = bits[pos:pos + width]
        if len(chunk) < width:
            raise CoderDecodeError("truncated substitution block")
        val = int(chunk, 2)
        pos += width
    if pos != len(bits):
        raise CoderDecodeError(f"{len(bits) - pos} unread bits after stream end")
    digits = []
    for _ in range(flips):
        val, r = divmod(val, alphabet.size)
        digits.append(alphabet.symbols[r])
    if val:
        raise CoderDecodeError("substitution block out of range")
    digits.reverse()
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
    "lz78": lambda alphabet, w: len(lz78_encode(alphabet, w)),
}


def rate_series(source, seq, estimators: list[str], upto: int) -> dict[str, list[RatePoint]]:
    """Description-length rates of one source along a Folner sequence.

    ``source`` provides ``window(F) -> PartialConfiguration`` and an
    ``alphabet`` attribute.  Each window is sampled once and every named
    estimator gives the length of its code word for the content word; rates
    are bits per site.  Returns the points of each name, in order.
    """
    if isinstance(estimators, str):
        raise TypeError(f"estimators is a list of names, not the string {estimators!r}")
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r} (have {sorted(ESTIMATORS)})")
    series = {name: [] for name in estimators}
    for i in seq.indices(upto):
        F = seq.subset(i)  # never empty
        word = cont(source.window(F))
        for name, points in series.items():
            bits = ESTIMATORS[name](source.alphabet, word)
            points.append(RatePoint(i, len(F), bits, bits / len(F)))
    return series
