"""Scalar boundary problems: the index-0 freedom and the index-1 constraint.

Index 0 solves n+ + n- = m with a free additive constant; index 1 solves
w n+ + n- = m, where analyticity of n+ at z = i pins the constant instead.
For m = 1/(x+i) everything is explicit: m = (1-w)/(2i), so the index-1
solution is the constant pair n+ = i/2, n- = -i/2.
"""

import numpy as np

from whfactor import MobiusGrid, solve_scalar_index0, solve_scalar_index1

grid = MobiusGrid.build(512)
x = grid.x_nodes
w = grid.w_nodes

m = (1.0 / (x + 1j)).astype(complex)

# each solver returns the n = 1 Step; its node values are (N, 1, 1) samples
sol0 = solve_scalar_index0(m, grid, c_free=0.25j)
n_plus, n_minus = sol0.n_plus.samples[:, 0, 0], sol0.n_minus.samples[:, 0, 0]
print("index 0 with c_free = 0.25i:")
print(f"  boundary defect |n+ + n- - m| = {np.abs(n_plus + n_minus - m).max():.2e}")

sol1 = solve_scalar_index1(m, grid)
n_plus, n_minus = sol1.n_plus.samples[:, 0, 0], sol1.n_minus.samples[:, 0, 0]
print("\nindex 1 (constant forced by analyticity at z = i):")
print(f"  boundary defect |w n+ + n- - m| = {np.abs(w * n_plus + n_minus - m).max():.2e}")
print(f"  n+ spread around i/2:  {np.abs(n_plus - 0.5j).max():.2e}")
print(f"  n- spread around -i/2: {np.abs(n_minus + 0.5j).max():.2e}")
print(f"  n+ continued to z = i: {complex(sol1.evaluate_plus(1j)[0, 0]):.6f}")

# at index 1 the constant is not a free parameter: any nonzero value would
# plant a pole at z = i, so the solver always takes zero
print(f"\nindex-1 constant, forced by analyticity at z = i: {complex(sol1.constant[0, 0])}")
