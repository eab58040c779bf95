"""Seeded ergodic sources: Bernoulli measures on any built-in group, Markov
chains on intervals of the integer line, and their exact entropy rates.

Sampling is a pure function of (measure, window, seed).  Bernoulli values
are derived per site index, so nested windows agree where they overlap;
the Markov sampler runs one chain from the stationary distribution at the
window's smallest coordinate, so windows with a common left end agree.
``sample`` draws on an index set; ``sample_word`` gives the content word of
the same draw on a window of runs, from one int64 array of its indices.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from typing import Sequence

import numpy as np

from .groups import FiniteSubset, Runs, get_group, pack_rows, runs_union
from .rng import site_uniforms
from .symbolic import Alphabet, PartialConfiguration, cont

_TOL_SUM = 1e-12
_TOL_STATIONARY = 1e-10


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative entries summing to 1 (within 1e-12); Fractions welcome."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("empty probability vector")
        # also rejects NaN, which passes both a sign test and the sum test
        if not all(0 <= e <= 1 + _TOL_SUM for e in entries):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(sum(entries)) - 1.0) > _TOL_SUM:
            raise ValueError(f"probabilities sum to {float(sum(entries))!r}, not 1")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int):
        return self.entries[i]


def shannon_entropy(p) -> float:
    """H(p) in bits, with the 0*log(0) = 0 convention."""
    entries = p.entries if isinstance(p, ProbabilityVector) else tuple(p)
    return float(sum(-float(x) * math.log2(float(x)) for x in entries if x > 0))


@dataclass(frozen=True)
class BernoulliMeasure:
    alphabet: Alphabet
    p: ProbabilityVector

    def __post_init__(self):
        if not isinstance(self.p, ProbabilityVector):
            object.__setattr__(self, "p", ProbabilityVector(tuple(self.p)))
        if len(self.p) != self.alphabet.size:
            raise ValueError("probability vector length != alphabet size")


def _strongly_connected(rows: Sequence[Sequence]) -> bool:
    """True when (S | I)^(n-1) has no zero entry, S marking the entries x > 0
    (compared exactly, so a Fraction below the float range is an edge)."""
    n = len(rows)
    reach = np.array([[x > 0 for x in r] for r in rows], dtype=bool) | np.eye(n, dtype=bool)
    return bool(np.linalg.matrix_power(reach, n - 1).all())


@dataclass(frozen=True)
class MarkovMeasure:
    """Irreducible chain on the alphabet; stationary vector always solved from
    the rows, exactly enough that the residual ||pi P - pi||_inf stays below
    1e-10."""

    alphabet: Alphabet
    rows: tuple
    stationary: ProbabilityVector = field(init=False)

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = self.alphabet.size
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("transition matrix must be square over the alphabet")
        for r in rows:
            ProbabilityVector(r)
        if not _strongly_connected(rows):
            raise ValueError("transition matrix is not irreducible")
        P = np.array([[float(x) for x in r] for r in rows], dtype=float)
        A = P.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        resid = float(np.max(np.abs(pi @ P - pi)))
        if resid > _TOL_STATIONARY:
            raise ValueError(f"stationary residual {resid} too large")
        object.__setattr__(self, "stationary", ProbabilityVector(tuple(float(x) for x in pi)))


def ks_entropy(measure) -> float:
    """Entropy rate in bits per site.

    Product structure makes the Bernoulli rate H(p) exactly; for a Markov
    chain it is the stationary average of the row entropies.
    """
    if isinstance(measure, BernoulliMeasure):
        return shannon_entropy(measure.p)
    if isinstance(measure, MarkovMeasure):
        return float(
            sum(
                float(pi_i) * shannon_entropy(row)
                for pi_i, row in zip(measure.stationary, measure.rows)
            )
        )
    raise TypeError(f"no entropy rate for {type(measure).__name__}")


def sample(measure, F: FiniteSubset, seed: int) -> PartialConfiguration:
    """Draw the window of one sample point on F, deterministically per seed.

    Each site takes the first symbol whose float CDF exceeds its uniform, else
    the last: a Bernoulli site reads the CDF of p, a Markov site the CDF of
    the row of the state before it along the line (of pi at the first site)."""
    _check_sampler(measure)
    sites = F if isinstance(F, tuple) else tuple(F)
    n = len(sites)
    try:
        index = np.fromiter(sites, np.int64, n)
    except OverflowError:  # an index past 2**63 (coordinates near 2**40 on z2, h3)
        index = np.array(sites, dtype=object)
    increasing = bool(np.all(index[1:] > index[:-1]))
    u = _index_uniforms(seed, index)
    if isinstance(measure, BernoulliMeasure):
        states = _bernoulli(measure, u)
    else:
        if not sites:
            raise ValueError("empty window")
        coord = get_group("z").decode_array(sites)[:, 0]
        order = np.argsort(coord, kind="stable")
        if int(coord[order[-1]]) - int(coord[order[0]]) + 1 != n:
            raise ValueError("Markov sampling needs an interval of the line")
        states = np.empty(n, dtype=np.intp)
        states[order] = _chain(measure, u[order])
    word = _word(measure, states)
    if increasing:
        return PartialConfiguration.from_word(sites, word)
    return PartialConfiguration(zip(sites, word))


def sample_word(measure, runs: Runs, seed: int) -> str:
    """``cont(sample(measure, F, seed))`` for F the sites of ``runs``, from one
    ``pack_rows`` array of their indices.  A Bernoulli word sorts that array; a
    Markov chain runs over the coordinates of one run of the line, and its
    states are then put in index order.  ``runs`` is nonempty."""
    _check_sampler(measure)
    if not len(runs):
        raise ValueError("empty window")
    if isinstance(measure, BernoulliMeasure):
        # no name holds the sorted indices, so they are freed before the states are drawn
        u = _index_uniforms(seed, np.sort(pack_rows(runs.sites())))
        return _word(measure, _bernoulli(measure, u))
    line = runs_union(runs)
    if line.heads.shape[1] != 1 or len(line.lengths) != 1:
        raise ValueError("Markov sampling needs an interval of the line")
    index = pack_rows(line.sites())
    states = _chain(measure, _index_uniforms(seed, index))
    return _word(measure, states[np.argsort(index, kind="stable")])


def _check_sampler(measure) -> None:
    if not isinstance(measure, (BernoulliMeasure, MarkovMeasure)):
        raise TypeError(f"cannot sample {type(measure).__name__}")


def _index_uniforms(seed: int, index: np.ndarray) -> np.ndarray:
    """site_uniforms of int64 or object indices, each reduced mod 2**64, negatives too."""
    if index.dtype == object:  # Python ints, which may pass 2**64
        index = np.fromiter((g % (1 << 64) for g in index.tolist()), np.uint64, len(index))
    return site_uniforms(seed, index.view(np.uint64))


def _cdf(p) -> np.ndarray:
    # the running float sums a per-site loop `acc += float(x)` compares u with
    return np.array(list(accumulate(map(float, p))))


def _bernoulli(measure: BernoulliMeasure, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(_cdf(measure.p), u, side="right"), measure.alphabet.size - 1)


def _chain(measure: MarkovMeasure, u: np.ndarray) -> np.ndarray:
    """The Markov states of the sites of an interval of the line whose
    uniforms ``u`` are in coordinate order; the chain starts from pi."""
    last = measure.alphabet.size - 1
    # nxt[s][k]: the state at the k-th site when state s precedes it
    nxt = [np.minimum(np.searchsorted(_cdf(r), u, side="right"), last).tolist()
           for r in measure.rows]
    state = min(bisect_right(_cdf(measure.stationary), u[0]), last)
    chain = [state] + [state := step[state] for step in islice(zip(*nxt), 1, None)]
    return np.fromiter(chain, np.intp, len(chain))


def _word(measure, states: np.ndarray) -> str:
    return np.array(measure.alphabet.symbols, dtype="<U1")[states].tobytes().decode("utf-32-le")


def empirical_frequencies(alphabet: Alphabet, t: PartialConfiguration) -> ProbabilityVector:
    """Exact occurrence rates of each letter in the window's content word."""
    n = len(t)
    if n == 0:
        raise ValueError("empty window")
    word = cont(t)
    counts = [word.count(s) for s in alphabet.symbols]
    if sum(counts) != n:
        raise ValueError("window holds a symbol outside the alphabet")
    return ProbabilityVector(tuple(Fraction(c, n) for c in counts))


# -- sources for rate experiments ------------------------------------------


class MeasureSource:
    """Adapter giving a sampled measure the window(F) interface."""

    def __init__(self, measure, seed: int):
        self.measure = measure
        self.seed = seed
        self.alphabet = measure.alphabet

    def window(self, F: FiniteSubset) -> PartialConfiguration:
        return sample(self.measure, F, self.seed)

    def word(self, runs: Runs) -> str:
        """The content word of the window on the sites of ``runs``."""
        return sample_word(self.measure, runs, self.seed)


class ConstantSource:
    """The fixed point of the full shift taking one value everywhere."""

    def __init__(self, alphabet: Alphabet, symbol: str):
        if symbol not in alphabet.symbols:
            raise ValueError(f"{symbol!r} not in alphabet")
        self.alphabet = alphabet
        self.symbol = symbol

    def window(self, F: FiniteSubset) -> PartialConfiguration:
        support = tuple(sorted(set(F)))
        return PartialConfiguration.from_word(support, self.symbol * len(support))

    def word(self, runs: Runs) -> str:
        return self.symbol * len(runs)


def _entries(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_measure(text: str) -> object:
    """Measure spec strings: ``bernoulli:0.5,0.5`` or ``markov:[[0.5,0.5],[1,0]]``.

    Every entry is a decimal or a ratio such as ``1/3``, read as an exact
    Fraction.  Symbols are 0,1,2,... matching the vector/matrix positions.
    """
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if not body:
        raise ValueError(f"bad measure spec {text!r}")
    if kind == "bernoulli":
        entries = _entries(body)
        alphabet = Alphabet(tuple(str(i) for i in range(len(entries))))
        return BernoulliMeasure(alphabet, ProbabilityVector(entries))
    if kind == "markov":
        if not re.fullmatch(r"\s*\[\s*\[[^][]*\](\s*,\s*\[[^][]*\])*\s*\]\s*", body):
            raise ValueError(f"bad markov matrix {body!r}")
        rows = tuple(map(_entries, re.findall(r"\[([^][]*)\]", body)))
        alphabet = Alphabet(tuple(str(i) for i in range(len(rows))))
        return MarkovMeasure(alphabet, rows)
    raise ValueError(f"unknown measure kind {kind!r}")
