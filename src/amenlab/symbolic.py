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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2
from typing import Iterator, Mapping

import numpy as np

from .errors import BudgetExceededError
from .groups import (INDEX_ARRAY_LIMIT, ComputableGroup, Zd, get_group, normalize_subset,
                     unpack_coords_array)
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
    holds, per forbidden pattern, its sites right-multiplied by the inverse
    of its first site, and its symbol indices.  ``transfer`` is None unless
    the subshift is nearest-neighbour on the line (one-site bans and bans on
    two adjacent sites only); then row 0 marks the symbols a first site may
    take and row 1 + a the symbols that may follow a.
    """

    group: ComputableGroup
    alphabet: Alphabet
    forbidden: tuple[PartialConfiguration, ...]
    patterns: tuple = field(init=False, repr=False, compare=False)
    transfer: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        patterns = []
        for p in self.forbidden:
            if len(p) == 0:
                raise ValueError("forbidden patterns must have nonempty support")
            syms = tuple(map(self.alphabet.index, cont(p)))
            anchor_inv = self.group.inverse(p.support[0])
            patterns.append((tuple(self.group.multiply(m, anchor_inv) for m in p.support), syms))
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "transfer", _transfer(self.group, self.alphabet.size, patterns))


def _transfer(group: ComputableGroup, size: int, patterns) -> np.ndarray | None:
    if not isinstance(group, Zd) or group.dimension != 1:
        return None
    T = np.ones((size + 1, size), dtype=object)  # exact Python ints
    for sites, syms in patterns:
        if len(sites) == 1:
            T[:, syms[0]] = 0
        elif len(sites) == 2 and group.decode(sites[1]) in ((1,), (-1,)):
            a, b = syms if group.decode(sites[1]) == (1,) else syms[::-1]
            T[1 + a, b] = 0
        else:
            return None
    return T


def golden_mean_sft() -> SFT:
    """Binary subshift on the line forbidding adjacent 1s."""
    z = Zd(1)
    p = PartialConfiguration({z.encode((0,)): "1", z.encode((1,)): "1"})
    return SFT(z, binary_alphabet(), (p,))


# -- pattern counting -------------------------------------------------------

def _constraint_instances(sft: SFT, order: list[int]) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Forbidden-pattern occurrences inside the window, grouped by the
    position (in assignment order) at which they become fully determined;
    the occurrence whose first site is f is kept when every prepared site
    times f is inside."""
    multiply = sft.group.multiply
    pos_of = {g: k for k, g in enumerate(order)}
    grouped: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[] for _ in order]
    for sites, syms in sft.patterns:
        for f in order:
            positions = tuple(pos_of.get(multiply(m, f)) for m in sites)
            if None not in positions:
                grouped[max(positions)].append((positions, syms))
    return grouped


def transfer_matrix_count(sft: SFT, length: int) -> int:
    """Exact admissible-word count on an interval of the given length for a
    one-dimensional nearest-neighbor subshift, by integer matrix powers."""
    if sft.transfer is None:
        raise ValueError("subshift is not one-dimensional nearest-neighbor")
    if length < 1:
        raise ValueError("length >= 1")
    first, A = sft.transfer[0], sft.transfer[1:]
    return int((first @ np.linalg.matrix_power(A, length - 1)).sum())


def admissible_patterns(sft: SFT, F, budget: int | None = 20_000_000) -> int:
    """Number of locally admissible patterns on the window F.

    Uses the exact transfer-matrix route for nearest-neighbor constraints on
    intervals of the line, and the frontier dynamic program of
    :func:`_count_frontier` otherwise.  A count that would take more than
    ``budget`` work units raises :class:`BudgetExceededError`.  A window with
    every index in [0, 2**62) is sorted and decoded once as an int64 array.
    """
    sites = list(F)
    if sites and 0 <= min(sites) and max(sites) < INDEX_ARRAY_LIMIT:
        index = np.sort(np.array(sites, dtype=np.int64))
        index = index[np.concatenate(([True], index[1:] != index[:-1]))]
        coords = unpack_coords_array(index, sft.group.dimension)
        if sft.transfer is not None and np.ptp(coords[:, 0]) == len(index) - 1:
            return transfer_matrix_count(sft, len(index))
        # lexsort's last key is the primary one, so this is tuple order
        return _count_frontier(sft, index[np.lexsort(coords.T[::-1])].tolist(), budget)
    decode = sft.group.decode
    order = sorted(set(sites), key=decode)
    if not order:
        raise ValueError("window must be nonempty")
    if (sft.transfer is not None
            and decode(order[-1])[0] - decode(order[0])[0] == len(order) - 1):
        return transfer_matrix_count(sft, len(order))
    return _count_frontier(sft, order, budget)


def _count_frontier(sft: SFT, order: list[int], budget: int | None) -> int:
    """Exact pattern count by a dynamic program that assigns sites in ``order``.

    A state is the tuple of symbols on the live sites: assigned sites that
    belong to a constraint instance not yet fully assigned.  Each step
    extends every state by every symbol, rejects the symbols that complete a
    forbidden occurrence, forgets the sites no later instance contains, and
    adds up the counts of equal states.  One work unit is one (state,
    symbol) extension.
    """
    grouped = _constraint_instances(sft, order)
    # the last step whose instances contain a site; k grows, so later wins
    last = {pos: k for k, instances in enumerate(grouped)
            for positions, _ in instances for pos in positions}
    symbols = range(sft.alphabet.size)
    states = {(): 1}
    live: list[int] = []
    work = 0
    for k, instances in enumerate(grouped):
        step = len(states) * len(symbols)
        if budget is not None and work + step > budget:
            raise BudgetExceededError(
                f"pattern counting exceeded {budget} work units on a window of size {len(order)}",
                work=work)
        work += step
        slot = {pos: i for i, pos in enumerate(live + [k])}
        checks = [([slot[pos] for pos in positions], syms) for positions, syms in instances]
        live = [pos for pos in slot if last.get(pos, -1) > k]
        keep = [slot[pos] for pos in live]
        nxt: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            for s in symbols:
                row = state + (s,)
                if any(all(row[i] == v for i, v in zip(idx, syms)) for idx, syms in checks):
                    continue
                key = tuple(row[i] for i in keep)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return sum(states.values())


def iter_admissible(sft: SFT, F, budget: int | None = 1_000_000) -> Iterator[PartialConfiguration]:
    """Yield the locally admissible patterns on F in lexicographic order of
    the window word (increasing element-index order of sites)."""
    order = normalize_subset(F)
    if not order:
        raise ValueError("window must be nonempty")
    grouped = _constraint_instances(sft, order)
    syms = sft.alphabet.symbols
    n = len(order)
    trial = [0]  # symbol index tried at each assigned depth
    nodes = 0
    while trial:
        depth = len(trial) - 1
        if trial[depth] == len(syms):
            trial.pop()
            if trial:
                trial[-1] += 1
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"pattern enumeration exceeded {budget} nodes on a window of size {n}",
                work=nodes - 1)
        if any(all(trial[pos] == sym for pos, sym in zip(positions, psyms))
               for positions, psyms in grouped[depth]):
            trial[depth] += 1
        elif depth == n - 1:
            yield PartialConfiguration.from_word(order, "".join(syms[k] for k in trial))
            trial[depth] += 1
        else:
            trial.append(0)


def topological_entropy_estimate(sft: SFT, seq, upto: int,
                                 budget: int | None = 20_000_000) -> list[RatePoint]:
    """Normalized log-counts log2(N(F_i))/|F_i| along a Folner sequence.

    On budget exhaustion the raised error carries the completed prefix of
    the series in ``partial`` and the index of the window it stopped on in
    ``index``.
    """
    series = []
    for i in seq.indices(upto):
        F = seq.subset(i)
        try:
            count = admissible_patterns(sft, F, budget=budget)
        except BudgetExceededError as err:
            err.partial, err.index = series, i
            raise
        if count == 0:
            raise ValueError(f"no admissible pattern on window {i} of size {len(F)}")
        bits = log2(count)
        series.append(RatePoint(i, len(F), bits, bits / len(F)))
    return series


@dataclass(frozen=True)
class CountingBoundReport:
    """Log-count bound for patterns constrained on the tiles of a cover.

    ``total_bits`` bounds log2 of the number of window patterns whose
    restriction to every placed tile is admissible, with residual sites
    free.  When an entropy value ``h`` is supplied, the report also checks
    total_bits <= ((1+eps)*(h+eps) + eps*log2|A|) * |T|.
    """

    total_bits: float
    per_scale: tuple[tuple[int, int, int, float], ...]  # (scale index, tile size, centers, log2 count)
    residual_sites: int
    residual_bits: float
    window_size: int
    eps_float: float
    h: float | None
    rhs_bits: float | None
    holds: bool | None


def q_count_bound(sft: SFT, T, plan, cover, seq, h: float | None = None,
                  budget: int | None = 20_000_000) -> CountingBoundReport:
    """Per-tile counting bound over a quasi-tiling cover of the window T.

    Raises ValueError for a cover reaching outside T: a tile there has no
    restriction to the window, so its count bounds nothing."""
    window = frozenset(T)
    outside = len(cover.covered - window)
    if outside:
        raise ValueError(f"cover reaches {outside} sites outside the window of size {len(window)}")
    asize = sft.alphabet.size
    per_scale = []
    total = 0.0
    for j in plan.scales:
        centers = cover.scale_centers.get(j, ())
        if not centers:
            continue
        tile = seq.subset(j)
        count = admissible_patterns(sft, tile, budget=budget)
        if count == 0:
            raise ValueError(f"no admissible pattern on window {j} of size {len(tile)}")
        bits = log2(count)
        per_scale.append((j, len(tile), len(centers), bits))
        total += bits * len(centers)
    residual = len(window) - len(cover.covered)
    residual_bits = residual * log2(asize)
    total += residual_bits
    eps = plan.eps
    rhs = None
    holds = None
    if h is not None:
        rhs = ((1 + float(eps)) * (h + float(eps)) + float(eps) * log2(asize)) * len(window)
        holds = total <= rhs
    return CountingBoundReport(
        total_bits=total,
        per_scale=tuple(per_scale),
        residual_sites=residual,
        residual_bits=residual_bits,
        window_size=len(window),
        eps_float=float(eps),
        h=h,
        rhs_bits=rhs,
        holds=holds,
    )


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
    for lineno, pairs in raw_patterns:
        pattern: dict[int, str] = {}
        for e, s in pairs:
            g = group.parse_element(e)
            if g in pattern:
                raise ValueError(f"line {lineno}: element {e} named twice")
            pattern[g] = s
        forbidden.append(PartialConfiguration(pattern))
    return SFT(group, alphabet, tuple(forbidden))


def load_sft(path) -> SFT:
    """Read an SFT description file; see parse_sft for the format."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_sft(fh.read())
