"""One step of the 2x2 example family, for every choice of the free constant.

The family G_phi = F- (Lambda0 + M0) F+ has four natural constant matrices
B_0..B_3 (all with B^2 proportional to a fixed pattern), each giving a first
factor pair with constant C0 = psi * B_id, psi = e^(-phi) - 1.  The first
remainder then has the exact infinity limit C0 @ C0, which this script
verifies on the closed-form split for every variant.
"""

import numpy as np

from whfactor import (
    MobiusGrid,
    build_example,
    first_remainder,
    first_step_factors,
    variant_constant,
)

PHI = 0.1
grid = MobiusGrid.build(2048)
inst = build_example(PHI)
print(f"phi = {PHI}, psi = e^(-phi) - 1 = {inst.psi:.6f}")

w = grid.w_nodes
m0 = inst.M0(grid.x_nodes)

for vid in range(4):
    vs = variant_constant(vid, PHI)
    # closed forms only: the route cross-check against the quadrature
    # solver runs in figure_data, under `whfactor run` and `whfactor figures`
    sol = first_step_factors(inst, vs, grid)

    # boundary identity diag(w,1) N1+ + N1- = M0 at the nodes
    lhs = sol.n_plus.samples.copy()
    lhs[:, 0, :] *= w[:, None]
    lhs += sol.n_minus.samples
    defect = np.abs(lhs - m0).max()

    # exact infinity data carried on the closed forms
    lim_p = sol.n_plus.closed_form.limit_at_infinity()
    lim_m = sol.n_minus.closed_form.limit_at_infinity()
    m1 = first_remainder(vid, PHI, grid)
    m1_gap = np.abs(m1.closed_form.limit_at_infinity() - vs.predicted_M1_infinity).max()

    print(f"\nvariant {vid}:")
    print(f"  C0 =\n{np.array2string(vs.c0, precision=4)}")
    print(f"  constant row 0 is zero: {np.abs(sol.constant[0]).max():.1e}")
    print(f"  boundary defect at nodes: {defect:.2e}")
    print(f"  N1+(inf) + C0: {np.abs(lim_p + vs.c0).max():.2e}"
          f"   N1-(inf) - C0: {np.abs(lim_m - vs.c0).max():.2e}")
    print(f"  M1(inf) vs C0 @ C0: {m1_gap:.2e}")
