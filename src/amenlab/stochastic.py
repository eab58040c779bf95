"""Seeded ergodic sources: Bernoulli measures on any built-in group, Markov
chains on intervals of the integer line, and their exact entropy rates.

Sampling is a pure function of (measure, window, seed).  Bernoulli values
are derived per site index, so nested windows agree where they overlap;
the Markov sampler runs one chain from the stationary distribution at the
window's smallest coordinate, so windows with a common left end agree.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .groups import FiniteSubset, get_group
from .rng import site_uniform
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


def _strongly_connected(rows: Sequence[Sequence[float]]) -> bool:
    n = len(rows)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    fwd = [[j for j in range(n) if rows[i][j] > 0] for i in range(n)]
    bwd = [[j for j in range(n) if rows[j][i] > 0] for i in range(n)]
    return reach(fwd) and reach(bwd)


@dataclass(frozen=True)
class MarkovMeasure:
    """Irreducible chain on the alphabet; stationary vector solved exactly
    enough that the residual ||pi P - pi||_inf stays below 1e-10."""

    alphabet: Alphabet
    rows: tuple
    stationary: ProbabilityVector = None

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
        if self.stationary is None:
            P = np.array([[float(x) for x in r] for r in rows], dtype=float)
            A = P.T - np.eye(n)
            A[-1, :] = 1.0
            b = np.zeros(n)
            b[-1] = 1.0
            pi = np.linalg.solve(A, b)
            resid = float(np.max(np.abs(pi @ P - pi)))
            if resid > _TOL_STATIONARY:
                raise ValueError(f"stationary residual {resid} too large")
            object.__setattr__(
                self, "stationary", ProbabilityVector(tuple(float(x) for x in pi))
            )


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
    the last; a Bernoulli measure is sampled as the chain whose rows all equal p."""
    if isinstance(measure, BernoulliMeasure):
        sites, start, rows = F, measure.p, (measure.p,) * len(measure.p)
    elif isinstance(measure, MarkovMeasure):
        z = get_group("z")
        sites = sorted(F, key=z.decode)
        if not sites:
            raise ValueError("empty window")
        if z.decode(sites[-1])[0] - z.decode(sites[0])[0] + 1 != len(F):
            raise ValueError("Markov sampling needs an interval of the line")
        start, rows = measure.stationary, measure.rows
    else:
        raise TypeError(f"cannot sample {type(measure).__name__}")
    sym = measure.alphabet.symbols
    last = len(sym) - 1
    row_cdfs = [list(accumulate(map(float, r))) for r in rows]
    cdf = list(accumulate(map(float, start)))
    values = {}
    for g in sites:
        state = min(bisect_right(cdf, site_uniform(seed, g)), last)
        values[g] = sym[state]
        cdf = row_cdfs[state]
    return PartialConfiguration(values)


def empirical_frequencies(alphabet: Alphabet, t: PartialConfiguration) -> ProbabilityVector:
    """Exact occurrence rates of each letter in the window's content word."""
    if len(t) == 0:
        raise ValueError("empty window")
    counts = {s: 0 for s in alphabet.symbols}
    for _, v in t.items():
        counts[v] += 1
    n = len(t)
    return ProbabilityVector(tuple(Fraction(counts[s], n) for s in alphabet.symbols))


# -- sources for rate experiments ------------------------------------------


class MeasureSource:
    """Adapter giving a sampled measure the window(F) interface."""

    def __init__(self, measure, seed: int):
        self.measure = measure
        self.seed = seed
        self.alphabet = measure.alphabet

    def window(self, F: FiniteSubset) -> PartialConfiguration:
        return sample(self.measure, F, self.seed)


class ConstantSource:
    """The fixed point of the full shift taking one value everywhere."""

    def __init__(self, alphabet: Alphabet, symbol: str):
        if symbol not in alphabet.symbols:
            raise ValueError(f"{symbol!r} not in alphabet")
        self.alphabet = alphabet
        self.symbol = symbol

    def window(self, F: FiniteSubset) -> PartialConfiguration:
        return PartialConfiguration({g: self.symbol for g in F})


def parse_measure(text: str) -> object:
    """Measure spec strings: ``bernoulli:0.5,0.5`` or ``markov:[[0.5,0.5],[1,0]]``.

    Symbols are 0,1,2,... matching the vector/matrix positions.
    """
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if not body:
        raise ValueError(f"bad measure spec {text!r}")
    if kind == "bernoulli":
        entries = tuple(Fraction(part.strip()) for part in body.split(","))
        alphabet = Alphabet(tuple(str(i) for i in range(len(entries))))
        return BernoulliMeasure(alphabet, ProbabilityVector(entries))
    if kind == "markov":
        import ast

        rows = ast.literal_eval(body)
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"bad markov matrix {body!r}")
        alphabet = Alphabet(tuple(str(i) for i in range(len(rows))))
        return MarkovMeasure(alphabet, tuple(tuple(r) for r in rows))
    raise ValueError(f"unknown measure kind {kind!r}")
