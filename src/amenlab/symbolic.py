"""Symbolic configurations over a computable group and shift-invariant rules.

A partial configuration assigns alphabet symbols to a finite set of group
elements.  The group acts on configurations by (g.x)(h) = x(h*g), so the
support of g.x is supp(x)*g^-1.  Reading a configuration off as a word
always uses increasing element-index order; every word-level estimator in
this package consumes exactly that order.

Subshifts of finite type are given by forbidden partial patterns.  Pattern
counting over a finite window is *local* admissibility: a pattern is
counted unless some translate of a forbidden pattern fits entirely inside
the window and matches.  This over-counts the true projection of the
subshift in general, which is the safe direction for the upper bounds
built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Callable, Iterable, Iterator, Mapping

from .errors import BudgetExceededError
from .groups import ComputableGroup, Zd, get_group, normalize_subset
from .series import RatePoint, RateSeries


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
    """Finite-support map from group elements (as indices) to symbols."""

    __slots__ = ("_values", "_support")

    def __init__(self, values: Mapping[int, str]):
        self._values = dict(values)
        self._support: tuple[int, ...] | None = None

    @property
    def support(self) -> tuple[int, ...]:
        if self._support is None:
            self._support = tuple(sorted(self._values))
        return self._support

    def __getitem__(self, g: int) -> str:
        return self._values[g]

    def get(self, g: int, default=None):
        return self._values.get(g, default)

    def __contains__(self, g: int) -> bool:
        return g in self._values

    def __len__(self) -> int:
        return len(self._values)

    def items(self):
        return self._values.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialConfiguration) and self._values == other._values

    def __hash__(self):
        return hash(frozenset(self._values.items()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{g}:{v}" for g, v in sorted(self._values.items())[:8])
        more = "..." if len(self._values) > 8 else ""
        return f"PartialConfiguration({{{shown}{more}}})"


def cont(t: PartialConfiguration) -> str:
    """The content word: symbols of t listed in increasing element-index order."""
    values = t._values
    return "".join(values[g] for g in t.support)


def restrict(source: Callable[[int], str], F: Iterable[int]) -> PartialConfiguration:
    """Window of a total configuration: evaluate ``source`` on every element of F."""
    return PartialConfiguration({g: source(g) for g in F})


def translate(group: ComputableGroup, g: int, t: PartialConfiguration) -> PartialConfiguration:
    """The shifted configuration g.t with (g.t)(h) = t(h*g)."""
    ginv = group.inverse(g)
    return PartialConfiguration(
        {group.multiply(s, ginv): v for s, v in t.items()})


class CellularMap:
    """Sliding-window map: output(g) = rule(values of the input at M*g).

    The memory set M is normalized to contain the identity; the rule reads
    the window word in increasing element-index order of M.  ``rule`` may
    be a callable or a lookup table over window words.
    """

    def __init__(self, group: ComputableGroup, memory: Iterable[int],
                 rule: Callable[[str], str] | Mapping[str, str]):
        mem = set(memory)
        mem.add(group.identity)
        self.group = group
        self.memory = tuple(sorted(mem))
        if callable(rule):
            self._rule = rule
        else:
            table = dict(rule)
            self._rule = lambda w: table[w]

    def rule(self, window_word: str) -> str:
        return self._rule(window_word)


def apply_cellular(cmap: CellularMap, t: PartialConfiguration) -> PartialConfiguration:
    """Image window of a cellular map.

    The output support is the largest T with M*T inside supp(t); since the
    identity belongs to M, T is a subset of supp(t).
    """
    group = cmap.group
    supp = t._values
    out: dict[int, str] = {}
    for g in t.support:
        window = []
        for m in cmap.memory:
            s = group.multiply(m, g)
            v = supp.get(s)
            if v is None:
                window = None
                break
            window.append(v)
        if window is not None:
            out[g] = cmap.rule("".join(window))
    return PartialConfiguration(out)


@dataclass(frozen=True)
class SFT:
    """Subshift of finite type: forbidden finite patterns over an alphabet."""

    group: ComputableGroup
    alphabet: Alphabet
    forbidden: tuple[PartialConfiguration, ...]

    def __post_init__(self):
        for p in self.forbidden:
            if len(p) == 0:
                raise ValueError("forbidden patterns must have nonempty support")
            for _, v in p.items():
                self.alphabet.index(v)


def golden_mean_sft() -> SFT:
    """Binary subshift on the line forbidding adjacent 1s."""
    z = Zd(1)
    p = PartialConfiguration({z.encode((0,)): "1", z.encode((1,)): "1"})
    return SFT(z, binary_alphabet(), (p,))


# -- pattern counting -------------------------------------------------------

def _occurrence_positions(sft: SFT, p: PartialConfiguration, F: frozenset) -> list[int]:
    """Positions g with supp(p)*g inside F."""
    group = sft.group
    supp = p.support
    anchor_inv = group.inverse(supp[0])
    out = []
    for f in F:
        g = group.multiply(anchor_inv, f)
        if all(group.multiply(m, g) in F for m in supp):
            out.append(g)
    return out


def _constraint_instances(sft: SFT, order: list[int]) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Forbidden-pattern occurrences inside the window, grouped by the
    position (in assignment order) at which they become fully determined."""
    pos_of = {g: k for k, g in enumerate(order)}
    fset = frozenset(order)
    grouped: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[] for _ in order]
    for p in sft.forbidden:
        syms = tuple(sft.alphabet.index(v) for _, v in sorted(p.items()))
        supp = p.support
        for g in _occurrence_positions(sft, p, fset):
            positions = tuple(pos_of[sft.group.multiply(m, g)] for m in supp)
            grouped[max(positions)].append((positions, syms))
    return grouped


def _nearest_neighbor_data(sft: SFT):
    """Transfer-matrix data for one-dimensional nearest-neighbor constraints,
    or None when the subshift is not of that shape."""
    group = sft.group
    if not isinstance(group, Zd) or group.dimension != 1:
        return None
    n = sft.alphabet.size
    allowed = [1] * n
    pair_ok = [[1] * n for _ in range(n)]
    for p in sft.forbidden:
        coords = sorted(group.decode(g)[0] for g in p.support)
        if len(coords) == 1:
            allowed[sft.alphabet.index(p[group.encode((coords[0],))])] = 0
        elif len(coords) == 2 and coords[1] == coords[0] + 1:
            a = sft.alphabet.index(p[group.encode((coords[0],))])
            b = sft.alphabet.index(p[group.encode((coords[1],))])
            pair_ok[a][b] = 0
        else:
            return None
    return allowed, pair_ok


def _interval_length(group: ComputableGroup, F) -> int | None:
    """Length of F when it is a set of consecutive integers on the line."""
    if not isinstance(group, Zd) or group.dimension != 1:
        return None
    coords = sorted(group.decode(g)[0] for g in F)
    if coords and coords[-1] - coords[0] + 1 == len(coords):
        return len(coords)
    return None


def _mat_mul(X, Y):
    n = len(X)
    return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def transfer_matrix_count(sft: SFT, length: int) -> int:
    """Exact admissible-word count on an interval of the given length for a
    one-dimensional nearest-neighbor subshift, by integer matrix powers."""
    data = _nearest_neighbor_data(sft)
    if data is None:
        raise ValueError("subshift is not one-dimensional nearest-neighbor")
    if length < 1:
        raise ValueError("length >= 1")
    allowed, pair_ok = data
    n = sft.alphabet.size
    A = [[pair_ok[a][b] * allowed[b] for b in range(n)] for a in range(n)]
    e = length - 1
    # P <- A^(length-1) by binary powering; P times the ones vector is its row sums
    P = None
    B = A
    while e:
        if e & 1:
            P = B if P is None else _mat_mul(P, B)
        B = _mat_mul(B, B)
        e >>= 1
    if P is None:
        return sum(allowed)
    return sum(allowed[a] * sum(P[a]) for a in range(n))


def admissible_patterns(sft: SFT, F, budget: int | None = 20_000_000) -> int:
    """Number of locally admissible patterns on the window F.

    Uses the exact transfer-matrix route for nearest-neighbor constraints on
    intervals of the line, and the frontier dynamic program of
    :func:`_count_frontier` otherwise.  A count that would take more than
    ``budget`` work units raises :class:`BudgetExceededError`.
    """
    F = normalize_subset(F)
    if not F:
        raise ValueError("window must be nonempty")
    length = _interval_length(sft.group, F)
    if length is not None and _nearest_neighbor_data(sft) is not None:
        return transfer_matrix_count(sft, length)
    return _count_frontier(sft, sorted(F, key=sft.group.decode), budget)


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
        work += len(states) * len(symbols)
        if budget is not None and work > budget:
            raise BudgetExceededError(
                f"pattern counting exceeded {budget} work units on a window of size {len(order)}")
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
                f"pattern enumeration exceeded {budget} nodes on a window of size {n}")
        if any(all(trial[pos] == sym for pos, sym in zip(positions, psyms))
               for positions, psyms in grouped[depth]):
            trial[depth] += 1
        elif depth == n - 1:
            yield PartialConfiguration({g: syms[trial[k]] for k, g in enumerate(order)})
            trial[depth] += 1
        else:
            trial.append(0)


def topological_entropy_estimate(sft: SFT, seq, upto: int,
                                 budget: int | None = 20_000_000) -> RateSeries:
    """Normalized log-counts log2(N(F_i))/|F_i| along a Folner sequence.

    On budget exhaustion the raised error carries the completed prefix of
    the series in ``partial``.
    """
    series = RateSeries(label=f"sft-entropy/{seq.name}")
    for i in seq.indices(upto):
        F = seq.subset(i)
        try:
            count = admissible_patterns(sft, F, budget=budget)
        except BudgetExceededError as err:
            err.partial = series
            raise
        bits = log2(count)
        series.points.append(RatePoint(i, len(F), bits, bits / len(F)))
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
    """Per-tile counting bound over a quasi-tiling cover of the window T."""
    asize = sft.alphabet.size
    per_scale = []
    total = 0.0
    for j in plan.scales:
        centers = cover.scale_centers.get(j, ())
        if not centers:
            continue
        tile = seq.subset(j)
        count = admissible_patterns(sft, tile, budget=budget)
        bits = log2(count)
        per_scale.append((j, len(tile), len(centers), bits))
        total += bits * len(centers)
    residual = len(frozenset(T)) - len(cover.covered)
    residual_bits = residual * log2(asize)
    total += residual_bits
    eps = plan.eps
    rhs = None
    holds = None
    if h is not None:
        rhs = ((1 + float(eps)) * (h + float(eps)) + float(eps) * log2(asize)) * len(frozenset(T))
        holds = total <= rhs
    return CountingBoundReport(
        total_bits=total,
        per_scale=tuple(per_scale),
        residual_sites=residual,
        residual_bits=residual_bits,
        window_size=len(frozenset(T)),
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
