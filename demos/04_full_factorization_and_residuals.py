"""Iterated factorization of the example family and how its residual scales.

The scheme corrects G1 = Lambda0 + M0 by successive factor pairs; after R
steps the product h- Lambda0 h+ matches G1 up to a residual built from the
dropped cross terms N_j- N_l+ with j + l > R + 1.  Those terms shrink like
the (R+1)-st power of the density size, and the density of this family
scales linearly in phi, so halving phi should divide the order-R residual
by about 2^(R+1).
"""

import numpy as np

from whfactor import (
    MobiusGrid,
    build_example,
    build_lambda0,
    check_factor_conditions,
    run_factorization,
    sample,
    split_indices,
)

PROFILE = split_indices((1, 0))
PHIS = (0.2, 0.1, 0.05)
ORDERS = (1, 2, 3)

grid = MobiusGrid.build(1024)
lam0 = build_lambda0(PROFILE, grid)

print(f"partial indices {PROFILE.indices}: shift s = {PROFILE.s}, "
      f"k = {PROFILE.k} leading row(s) in the reduced frame\n")

residuals = {}
for order in ORDERS:
    for phi in PHIS:
        m0 = sample(build_example(phi).M0, grid)
        res = run_factorization(lam0, m0, PROFILE, order)
        residuals[order, phi] = res.residual_sup

header = "order | " + " | ".join(f"phi={p:<5g}" for p in PHIS) + " | ratios on halving"
print(header)
print("-" * len(header))
for order in ORDERS:
    row = [residuals[order, p] for p in PHIS]
    ratios = [row[i] / row[i + 1] for i in range(len(row) - 1)]
    cells = " | ".join(f"{v:9.2e}" for v in row)
    print(f"  {order}   | {cells} | " + ", ".join(f"{r:5.2f}" for r in ratios)
          + f"   (expect ~{2 ** (order + 1)})")

# factor conditions for one of the runs: h+ columns that must stay exactly
# at the unit vectors, the infinity product, and determinant margins
m0 = sample(build_example(0.1).M0, grid)
res = run_factorization(lam0, m0, PROFILE, 3)
rep = check_factor_conditions(res)
print(f"\nfactor conditions at phi=0.1, order 3:")
print(f"  unit column defect      {rep.unit_column_defect:.2e}  ok={rep.unit_column_defect < 1e-8}")
print(f"  infinity product defect {rep.infinity_product_defect:.2e}  ok={rep.infinity_product_defect < 1.0}")
print(f"  min |det h-| = {rep.min_abs_det_h_minus:.3f}, min |det h+| = {rep.min_abs_det_h_plus:.3f}")
print(f"  sup residual  {res.residual_sup:.2e} after {res.order_reached} steps")
