"""A-priori convergence diagnostics: the constant A and what it certifies.

The scheme's residual after R steps is bounded through a square-root-type
series whose coefficients alpha_r satisfy alpha_1 = 1/2 and the convolution
recurrence alpha_r = (1/2) sum alpha_j alpha_(r-j).  The series converges
when A = |M0|_mu (1 + C_mu)^2 < 1, where |.|_mu is a Hoelder norm and C_mu
bounds the splitting operator.  A is pessimistic: the example family keeps
converging in practice long after A passes 1.
"""

import numpy as np

from whfactor import (
    MobiusGrid,
    alpha_coefficients,
    build_example,
    build_lambda0,
    c_mu_lower_bound,
    convergence_constant,
    run_factorization,
    sample,
    split_indices,
)

print("alpha_r (exact fractions, then floats):")
alphas = alpha_coefficients(8)
print("  " + ", ".join(str(a) for a in alphas))
print("  " + ", ".join(f"{float(a):.5f}" for a in alphas))

grid = MobiusGrid.build(2048)
print(f"\nempirical splitting norm at mu=0.5: "
      f"C_mu >= {c_mu_lower_bound(MobiusGrid.build(512), 0.5):.3f} (the runs below use C_mu = 1)")

print("\nA = |M0|_mu (1 + C_mu)^2 with C_mu = 1 across phi and mu:")
print("  phi      | " + " | ".join(f"mu={mu}" for mu in (0.1, 0.3, 0.5, 0.7)))
for phi in (0.01, 1e-4):
    m0 = sample(build_example(phi).M0, grid)
    cells = []
    for mu in (0.1, 0.3, 0.5, 0.7):
        d = convergence_constant(m0, mu=mu, c_mu=1.0)
        mark = "*" if d.small_enough else " "
        cells.append(f"{d.A:6.3f}{mark}")
    print(f"  {phi:<8g} | " + " | ".join(cells))
print("  (* = A < 1, certified regime)")

# inside the certified regime the per-step factor norms must obey
# |N_r|^(1/r) <= A; epsilon_bound = 1/A is the admissible-perturbation
# margin (how much larger the density could get before A reaches 1)
phi = 1e-4
profile = split_indices((1, 0))
m0 = sample(build_example(phi).M0, grid)
res = run_factorization(build_lambda0(profile, grid), m0, profile, 6)
d = convergence_constant(m0, mu=0.5, c_mu=1.0)  # a property of M0, not of the solve
print(f"\nphi = {phi}: A = {d.A:.4f}, perturbation margin 1/A = {d.epsilon_bound:.1f}, "
      f"measured residual = {res.residual_sup:.2e}")
print("  r : max(|N_r+|, |N_r-|)^(1/r) vs A")
for step in res.steps:
    print(f"  {step.r} : {max(step.sup_n_plus, step.sup_n_minus) ** (1.0 / step.r):.5f} <= {d.A:.5f}")
