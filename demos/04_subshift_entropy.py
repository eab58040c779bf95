"""
Counting patterns in subshifts of finite type
=============================================

A subshift of finite type is cut out by a finite list of forbidden local
patterns.  Counting the words admissible on a growing window and taking
log2 per site estimates the topological entropy.  On the line with
nearest-neighbor constraints the count comes from a transfer matrix; in
general a budgeted dynamic program does the work, assigning sites row by
row and keeping only the symbols that later constraints still read.
"""

import math
from fractions import Fraction
from pathlib import Path

from amenlab.folner import builtin_families
from amenlab.groups import get_group
from amenlab.quasitiling import Cover, TilingPlan, verify_cover
from amenlab.symbolic import (
    admissible_patterns,
    golden_mean_sft,
    load_sft,
    q_count_bound,
    topological_entropy_estimate,
    transfer_matrix_count,
)

here = Path(__file__).parent

# -- the golden mean shift: no two adjacent 1s ---------------------------------

sft = golden_mean_sft()
print("admissible words by length:",
      [transfer_matrix_count(sft, n) for n in range(1, 10)])
# Fibonacci: each count is the sum of the previous two.

z = get_group("z")
seq = builtin_families(z)["boxes"]
series = topological_entropy_estimate(sft, seq, upto=32)
print("entropy estimate at window 32:", f"{series.last().rate:.6f}")
print("log2 of the golden ratio:     ", f"{math.log2((1 + 5 ** 0.5) / 2):.6f}")

# -- the same shift loaded from its description file ----------------------------

loaded = load_sft(here / "golden.sft")
assert transfer_matrix_count(loaded, 12) == transfer_matrix_count(sft, 12)
print("\ngolden.sft matches the built-in definition")

# -- hard squares on the plane ---------------------------------------------------

hard = load_sft(here / "hardsquares.sft")
seq2 = builtin_families(get_group("z2"))["boxes"]
for n in range(1, 6):
    count = admissible_patterns(hard, seq2.subset(n))
    print(f"hard squares {n}x{n}: {count} admissible patterns "
          f"({math.log2(count) / n**2:.4f} bits per site)")

# -- a tiling turns per-tile counts into a window bound ---------------------------

tiling = TilingPlan(Fraction(1, 4), (10,), 0)
T = seq.subset(100)
centers = tuple(z.encode((10 * k,)) for k in range(10))
cov = Cover(tiling, {10: centers}, frozenset(T))
assert verify_cover(T, tiling, cov, seq).all_hold
rep = q_count_bound(sft, T, tiling, cov, seq, h=series.last().rate)
print(f"\nexact tiling of [0,100): counting bound {rep.total_bits:.2f} bits, "
      f"budget {rep.rhs_bits:.2f} bits, holds: {rep.holds}")
