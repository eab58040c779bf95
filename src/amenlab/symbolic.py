"""Symbolic configurations over a computable group and shift-invariant rules.

A partial configuration assigns alphabet symbols to a finite set of group
elements; it is stored as its sorted support and the word read off it in
increasing element-index order, and every estimator in this package reads
exactly that word.  The group acts on configurations by (g.x)(h) = x(h*g),
so the support of g.x is supp(x)*g^-1; the translates of forbidden
patterns checked during pattern counting follow this convention.

Subshifts of finite type are given by forbidden partial patterns.  Pattern
counting over a finite window is *local* admissibility: a pattern is
counted unless some translate of a forbidden pattern fits entirely inside
the window and matches.  This over-counts the true projection of the
subshift in general, which is the safe direction for the upper bounds
built on top of it.  Each ``SFT`` prepares its patterns for counting once,
when it is built, and every count reads that prepared form.

A count reads its window as runs along the last axis (``groups.Runs``): a
box family gives them from its sides, and an index set is decoded once
into them.  On the line, a window of one run under a nearest-neighbour SFT
is counted by that SFT's transfer walk, a row vector of Python ints kept
at the last length asked: a window one longer than the last costs one
|A| x |A| product, a jump of k about 2 log2 k of them.  Every other window
is counted by one array frontier dynamic program, whose states are codes of
base-|A| digits (int64, or Python ints past 2**62) and whose counts are
Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2
from typing import Mapping

import numpy as np

from .errors import BudgetExceededError
from .groups import ComputableGroup, Runs, Zd, get_group, pack_coords, runs_of
from .series import RatePoint


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered alphabet; symbols are distinct single characters."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if any(len(s) != 1 for s in self.symbols):
            raise ValueError("symbols must be single characters")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)


def binary_alphabet() -> Alphabet:
    return Alphabet(("0", "1"))


class PartialConfiguration:
    """Symbols assigned to a finite set of group elements (as indices).

    Stored and read only as the sorted support plus the aligned content
    word: ``support[k]`` carries the symbol ``cont(t)[k]``.
    """

    __slots__ = ("_support", "_word")

    def __init__(self, values: Mapping[int, str]):
        pairs = sorted(dict(values).items())
        for g, v in pairs:
            # one character per site keeps the word aligned with the support
            if not isinstance(v, str) or len(v) != 1:
                raise ValueError(f"symbol {v!r} at element {g} is not one character")
        self._support = tuple(g for g, _ in pairs)
        self._word = "".join(v for _, v in pairs)

    @classmethod
    def from_word(cls, support: tuple[int, ...], word: str) -> "PartialConfiguration":
        """The configuration giving support[k] the symbol word[k]; ``support``
        must be sorted and duplicate-free, and as long as ``word``."""
        t = cls.__new__(cls)
        t._support, t._word = support, word
        return t

    @property
    def support(self) -> tuple[int, ...]:
        return self._support

    def __len__(self) -> int:
        return len(self._support)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialConfiguration):
            return False
        return self._support == other._support and self._word == other._word

    def __hash__(self):
        return hash((self._support, self._word))

    def __repr__(self) -> str:
        shown = ", ".join(f"{g}:{v}" for g, v in zip(self._support[:8], self._word))
        more = "..." if len(self) > 8 else ""
        return f"PartialConfiguration({{{shown}{more}}})"


def cont(t: PartialConfiguration) -> str:
    """The content word: symbols of t listed in increasing element-index order."""
    return t._word


@dataclass(frozen=True)
class SFT:
    """Subshift of finite type: forbidden finite patterns over an alphabet.

    Construction prepares the patterns for counting once.  ``patterns``
    holds, per forbidden pattern, the coordinate offsets of its sites (each
    site composed with the inverse of its first site, so the first offset
    is the identity) and its symbol indices.  ``walk`` is None unless the
    subshift is nearest-neighbour on the line (one-site bans and bans on two
    adjacent sites only); then it is this SFT's own transfer walk.
    """

    group: ComputableGroup
    alphabet: Alphabet
    forbidden: tuple[PartialConfiguration, ...]
    patterns: tuple = field(init=False, repr=False, compare=False)
    walk: "_TransferWalk | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        group = self.group
        patterns = []
        for p in self.forbidden:
            if len(p) == 0:
                raise ValueError("forbidden patterns must have nonempty support")
            syms = tuple(map(self.alphabet.index, cont(p)))
            anchor_inv = group.decode(group.inverse(p.support[0]))  # range-checked
            offsets = (group.compose(c, anchor_inv) for c in map(group.decode, p.support))
            patterns.append((tuple(offsets), syms))
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "walk", _transfer(group, self.alphabet.size, patterns))


def _transfer(group: ComputableGroup, size: int, patterns) -> "_TransferWalk | None":
    """The transfer walk of a nearest-neighbour SFT on the line, else None;
    matrix row 0 marks the symbols a first site may take, row 1 + a those after a."""
    if not isinstance(group, Zd) or group.dimension != 1:
        return None
    T = np.ones((size + 1, size), dtype=object)  # exact Python ints
    for offsets, syms in patterns:
        if len(offsets) == 1:
            T[:, syms[0]] = 0
        elif len(offsets) == 2 and offsets[1] in ((1,), (-1,)):
            a, b = syms if offsets[1] == (1,) else syms[::-1]
            T[1 + a, b] = 0
        else:
            return None
    return _TransferWalk(T)


class _TransferWalk:
    """The row vector first @ A**(length-1) of a transfer matrix, in Python
    ints, kept with its length as ``state``, the last length asked.  A length
    at least that long moves on from it, a shorter one starts over from the
    first row; a move of k is v @ A**k with k taken bit by bit, so a step of
    one costs one |A| x |A| product and a jump of k about 2 log2 k of them.
    ``state`` is one attribute, so it is replaced in one store."""

    __slots__ = ("first", "columns", "state")

    def __init__(self, transfer: np.ndarray):
        self.first = transfer[0].tolist()
        self.columns = transfer[1:].T.tolist()
        self.state = (1, self.first)

    def count(self, length: int) -> int:
        n, v = self.state
        if length < n:
            n, v = 1, self.first
        k, power = length - n, self.columns  # A**(2**j), by columns
        while k:
            if k & 1:
                v = _times(v, power)
            k >>= 1
            if k:
                power = list(zip(*[_times(row, power) for row in zip(*power)]))
        self.state = (length, v)
        return sum(v)


def _times(v, columns) -> list[int]:
    """The row vector v @ M, in Python ints, for M given by its columns; a 1
    entry adds its term without a product, so a 0/1 step only sums."""
    return [sum([x if m == 1 else x * m for x, m in zip(v, column) if m]) for column in columns]


def golden_mean_sft() -> SFT:
    """Binary subshift on the line forbidding adjacent 1s."""
    z = Zd(1)
    p = PartialConfiguration({z.encode((0,)): "1", z.encode((1,)): "1"})
    return SFT(z, binary_alphabet(), (p,))


# -- pattern counting -------------------------------------------------------

# the frontier DP keeps its state codes in int64 while |A|**slots <= 2**CODE_BITS
CODE_BITS = 62
DEFAULT_BUDGET = 20_000_000  # (state, symbol) extensions a count may take


def _constraint_instances(sft: SFT, order: list[tuple[int, ...]]) -> list[list[tuple]]:
    """Forbidden-pattern occurrences inside the window, given by the
    coordinates of its sites in assignment order, grouped by the position
    at which they become fully determined; the occurrence whose first site
    is f is kept when every prepared offset times f is inside.  A site
    listed twice (runs that overlap) raises ValueError."""
    compose = sft.group.compose
    pos_of = {c: k for k, c in enumerate(order)}
    if len(pos_of) < len(order):
        raise ValueError("window runs overlap")
    grouped: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[] for _ in order]
    for offsets, syms in sft.patterns:
        for f in order:
            positions = tuple(pos_of.get(compose(m, f)) for m in offsets)
            if None not in positions:
                grouped[max(positions)].append((positions, syms))
    return grouped


def transfer_matrix_count(sft: SFT, length: int) -> int:
    """Exact admissible-word count on an interval of the given length for a
    one-dimensional nearest-neighbor subshift: the sum of the row vector
    first @ A**(length-1), walked over Python ints by the SFT's ``walk``.
    Asking for lengths one longer than the last costs one |A| x |A| product
    each; a jump of k costs O(log k) products."""
    if sft.walk is None:
        raise ValueError("subshift is not one-dimensional nearest-neighbor")
    if length < 1:
        raise ValueError("length >= 1")
    return sft.walk.count(length)


def admissible_patterns(sft: SFT, F, budget: int | None = DEFAULT_BUDGET) -> int:
    """Number of locally admissible patterns on the window F, given as Runs
    (disjoint runs along the last axis) or as an index set, which is decoded
    once into its runs (``runs_of``).

    A window of one run on the line, for an SFT with a transfer matrix, is
    counted by :func:`transfer_matrix_count`; every other window by the array
    frontier dynamic program of :func:`_count_frontier`.  A count that would
    take more than ``budget`` work units raises :class:`BudgetExceededError`.
    """
    runs = runs_of(sft.group, F)
    size = len(runs)
    if not size:
        raise ValueError("window must be nonempty")
    if sft.walk is not None and len(runs.lengths) == 1:
        return transfer_matrix_count(sft, size)
    return _count_frontier(sft, runs, budget)


def _count_frontier(sft: SFT, runs: Runs, budget: int | None) -> int:
    """Exact pattern count by a dynamic program that assigns the sites of
    ``runs`` in run order, each run along the last axis.

    A state is the symbols on the live sites: assigned sites that belong to
    a constraint instance not yet fully assigned.  A live site keeps one
    digit slot from the step that assigns it to the last step whose
    instances read it.  Each step extends every state by every symbol,
    masks the rows that complete a forbidden occurrence by digit tests,
    clears the slots no later instance reads, and adds up the counts of
    equal states (a sort, a neighbour mask and ``np.add.reduceat``).  A
    state is one code of base-|A| digits: int64 while |A|**slots <=
    2**CODE_BITS, else a Python int in an object array.  Counts are Python
    ints in an object array.  One work unit is one (state, symbol)
    extension, checked against ``budget`` before each step.
    """
    order = list(map(tuple, runs.sites().tolist()))
    steps, width = _frontier_steps(sft, order)
    size = sft.alphabet.size
    code = object if size ** width > 1 << CODE_BITS else np.int64
    power = [size ** k for k in range(width)]
    states = np.zeros(1, dtype=code)
    counts = np.ones(1, dtype=object)
    work = 0
    for tests, dead, slot in steps:
        step = len(states) * size
        if budget is not None and work + step > budget:
            raise BudgetExceededError(
                f"pattern counting exceeded {budget} work units on a window of size {len(order)}",
                work=work)
        work += step
        read = {k for instances in tests.values() for instance in instances for k, _ in instance}
        digits = {k: states // power[k] % size for k in read.union(dead)}
        ok = np.ones((len(states), size), dtype=bool)
        for s, instances in tests.items():
            for instance in instances:
                hit = np.ones(len(states), dtype=bool)
                for k, v in instance:
                    hit &= digits[k] == v
                ok[:, s] &= ~hit
        rows = np.flatnonzero(ok.ravel())
        if not len(rows):
            return 0
        src, symbol = rows // size, rows % size
        for k in dead:
            states = states - digits[k] * power[k]
        states = states[src]
        if slot is not None:
            states = states + symbol.astype(code) * power[slot]
        if not dead and slot is not None:  # distinct states times distinct symbols
            counts = counts[src]
            continue
        by = np.argsort(states)
        states = states[by]
        first = np.flatnonzero(np.concatenate(([True], states[1:] != states[:-1])))
        counts = np.add.reduceat(counts[src[by]], first)
        states = states[first]
    return int(counts.sum())


def _frontier_steps(sft: SFT, order: list[tuple[int, ...]]):
    """Per site of ``order``, the frontier DP's step: the (slot, symbol)
    tests of each instance the site completes, by the site's symbol; the
    slots cleared after the step; and the site's own slot, or None when no
    later instance reads it.  Also the number of slots used."""
    grouped = _constraint_instances(sft, order)
    # the last step whose instances contain a site; k grows, so later wins
    last = {pos: k for k, instances in enumerate(grouped)
            for positions, _ in instances for pos in positions}
    slot_of: dict[int, int] = {}
    free: list[int] = []
    steps = []
    width = 0
    for k, instances in enumerate(grouped):
        tests: dict[int, list[list[tuple[int, int]]]] = {}
        for positions, syms in instances:
            tests.setdefault(syms[positions.index(k)], []).append(
                [(slot_of[p], v) for p, v in zip(positions, syms) if p != k])
        dead = [slot_of.pop(p) for p in [p for p in slot_of if last[p] == k]]
        free = sorted(free + dead)
        slot = None
        if last.get(k, -1) > k:
            slot = free.pop(0) if free else width
            width = max(width, slot + 1)
            slot_of[k] = slot
        steps.append((tests, dead, slot))
    return steps, width


def topological_entropy_estimate(sft: SFT, seq, upto: int,
                                 budget: int | None = DEFAULT_BUDGET) -> list[RatePoint]:
    """Normalized log-counts log2(N(F_i))/|F_i| along a Folner sequence.

    Each window is read as its runs (``seq.runs``), so a box family builds
    no index tuple.  On budget exhaustion the raised error carries the
    completed prefix of the series in ``partial`` and the index of the
    window it stopped on in ``index``.
    """
    series = []
    for i in seq.indices(upto):
        F = seq.runs(i)
        size = len(F)
        try:
            count = admissible_patterns(sft, F, budget=budget)
        except BudgetExceededError as err:
            err.partial, err.index = series, i
            raise
        if count == 0:
            raise ValueError(f"no admissible pattern on window {i} of size {size}")
        bits = log2(count)
        series.append(RatePoint(i, size, bits, bits / size))
    return series


# -- description files ---------------------------------------------------

def parse_sft(text: str) -> SFT:
    """Build an SFT from its textual description.

    The format is line based: an ``alphabet`` line listing the symbols,
    then one forbidden pattern per line given as ``element=symbol`` pairs
    in canonical element syntax (``Z:3``, ``Z2:(1,0)``, ``H3:(0,1,0)``).
    An optional ``group`` line pins the group explicitly; otherwise it is
    inferred from the element prefix of the first pattern.  Blank lines
    and ``#`` comments are skipped.
    """
    group = None
    alphabet = None
    raw_patterns: list[tuple[int, list[tuple[str, str]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "group":
            group = get_group(rest)
            continue
        if head == "alphabet":
            symbols = tuple(rest.split())
            if not symbols:
                raise ValueError(f"line {lineno}: alphabet line lists no symbols")
            alphabet = Alphabet(symbols)
            continue
        pairs = []
        for token in line.split():
            elem, eq, symbol = token.partition("=")
            if not eq or not elem or not symbol:
                raise ValueError(f"line {lineno}: expected element=symbol, got {token!r}")
            pairs.append((elem, symbol))
        raw_patterns.append((lineno, pairs))
    if alphabet is None:
        raise ValueError("missing alphabet line")
    if group is None:
        if not raw_patterns:
            raise ValueError("no group line and no patterns to infer the group from")
        prefix = raw_patterns[0][1][0][0].split(":", 1)[0]
        group = get_group(prefix)
    forbidden = []
    coords = group.parse_elements(e for _, pairs in raw_patterns for e, _ in pairs)
    for lineno, pairs in raw_patterns:
        pattern: dict[int, str] = {}
        for e, s in pairs:
            g = pack_coords(next(coords))  # parsed now: an earlier repeat is named first
            if g in pattern:
                raise ValueError(f"line {lineno}: element {e} named twice")
            pattern[g] = s
        forbidden.append(PartialConfiguration(pattern))
    return SFT(group, alphabet, tuple(forbidden))


def load_sft(path) -> SFT:
    """Read an SFT description file; see parse_sft for the format."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_sft(fh.read())
