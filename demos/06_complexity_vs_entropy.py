"""
Compression rates converge to the source entropy
================================================

Sample a random configuration over growing windows, compress each window
with a decodable coder, and divide by the window size.  For memoryless
sources both coders settle near the Shannon entropy; for a Markov source
the frequency coder stalls at the order-0 ceiling while LZ78, which learns
phrases, dips below it.
"""

import math
from fractions import Fraction

from amenlab.complexity import rate_series
from amenlab.folner import builtin_families
from amenlab.groups import get_group
from amenlab.stochastic import (
    BernoulliMeasure,
    MarkovMeasure,
    MeasureSource,
    ks_entropy,
)
from amenlab.symbolic import binary_alphabet

z = get_group("z")
dyadic = builtin_families(z)["dyadic"]

# -- a biased coin ------------------------------------------------------------

measure = BernoulliMeasure(binary_alphabet(), (0.9, 0.1))
h = ks_entropy(measure)
print(f"Bernoulli(0.1): entropy {h:.4f} bits per site")
source = MeasureSource(measure, seed=2026)
for name, points in rate_series(source, dyadic, ["freq", "lz78"], upto=14).items():
    rates = "  ".join(f"{p.rate:.3f}" for p in points[8:])
    print(f"  {name:>4} rates (windows 256..16384): {rates}")

# -- a Markov chain with memory --------------------------------------------------

chain = MarkovMeasure(
    binary_alphabet(),
    ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0))),
)
print(f"\nMarkov [[1/2,1/2],[1,0]]: entropy {float(ks_entropy(chain)):.4f}, "
      f"order-0 ceiling {-(2/3)*math.log2(2/3) - (1/3)*math.log2(1/3):.4f}")
source = MeasureSource(chain, seed=7)
for name, points in rate_series(source, dyadic, ["freq", "lz78"], upto=14).items():
    print(f"  {name:>4} rate at 16384 sites: {points[-1].rate:.4f}")

# The freq coder only sees symbol counts, so it cannot exploit the rule
# "no two 1s in a row"; LZ78 picks it up from repeated phrases.

# -- two dimensions work the same way ----------------------------------------------

z2 = get_group("z2")
dyadic2 = builtin_families(z2)["dyadic"]
fair = BernoulliMeasure(binary_alphabet(), (0.5, 0.5))
source = MeasureSource(fair, seed=5)
series = rate_series(source, dyadic2, ["freq"], upto=7)["freq"]
print(f"\nfair coin on the plane, freq rate at 128x128: "
      f"{series[-1].rate:.4f} (entropy 1.0)")
