"""
Covering windows with a few tile shapes
=======================================

Large almost-invariant windows can be covered, up to a small residue, by
translates of a short ladder of smaller windows.  The planner picks the
ladder and certifies a threshold index past which the greedy cover
satisfies four exact counting assertions; the verifier recomputes all four
with rational arithmetic.
"""

from fractions import Fraction

from amenlab.folner import builtin_families
from amenlab.groups import get_group
from amenlab.quasitiling import TilingPlan, cover, plan, scale_count, verify_cover

z = get_group("z")
z2 = get_group("z2")

# -- plan a ladder of tile scales ---------------------------------------------

seq = builtin_families(z)["boxes"]
for eps in (Fraction(1, 2), Fraction(1, 4)):
    p = plan(seq, eps)
    print(f"eps={eps}: ideal ladder depth {scale_count(eps)}, "
          f"planned scales {p.scales}, valid past index {p.threshold}")

# -- cover a window and read the report -----------------------------------------

p = plan(seq, Fraction(1, 2))
T = seq.subset(60)
cov = cover(T, p, seq)
print("\ncovering [0,60) with tiles of sizes", p.scales)
for scale in p.scales:
    centers = sorted(z.decode(c)[0] for c in cov.scale_centers[scale])
    print(f"  size {scale}: {len(centers)} tiles at {centers}")
rep = cov.report
print("tiles inside window:", rep.tiles_inside.holds)
print(f"residue {rep.residue_small.lhs} <= {rep.residue_small.rhs}:",
      rep.residue_small.holds)
print(f"tile mass {rep.mass_vs_covered.lhs} vs covered bound "
      f"{rep.mass_vs_covered.rhs}: {rep.mass_vs_covered.holds}")

# -- a strict freshness demand forces a perfect tiling ---------------------------

tight = TilingPlan(Fraction(1, 10), (10,), 0)
T = seq.subset(100)
cov = cover(T, tight, seq)
print("\nexact tiling of [0,100) by [0,10): centers",
      sorted(z.decode(c)[0] for c in cov.scale_centers[10]))
print("uncovered sites:", cov.report.residue_small.lhs)

# -- two dimensions: disjoint 2x2 bricks --------------------------------------

seq2 = builtin_families(z2)["boxes"]
p2 = plan(seq2, Fraction(1, 4))
T2 = seq2.subset(12)
cov2 = cover(T2, p2, seq2)
rep2 = verify_cover(T2, cov2, seq2)
placed = sum(len(v) for v in cov2.scale_centers.values())
print(f"\n12x12 window, eps=1/4: {placed} tiles, "
      f"{len(T2) - rep2.residue_small.lhs}/{len(T2)} sites covered, "
      f"all assertions hold: {rep2.all_hold}")
