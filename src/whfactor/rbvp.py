"""Scalar Riemann boundary problems and the per-step matrix boundary problem.

The stable-index scheme only ever meets two scalar problems on the line,

    w(x)   n+(x) + n-(x) = m(x)   (index 1, w = (x-i)/(x+i))
           n+(x) + n-(x) = m(x)   (index 0),

plus the diagonal pre-shift that reduces general stable indices to the
(1,...,1,0,...,0) pattern. Solutions are written through the corrected
Cauchy operators; the additive constant of each scalar problem is forced by
analyticity at z = i on index-1 rows and free on index-0 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cauchy
from .grid import MobiusGrid, SampledMatrixFunction, as_integer, sup_norm


class UnstableIndicesError(ValueError):
    """Partial indices with kappa_1 - kappa_n >= 2; out of the algorithm's scope."""


@dataclass(frozen=True)
class PartialIndexProfile:
    indices: tuple
    s: int
    k: int

    @property
    def n(self) -> int:
        return len(self.indices)

    def shifted_kappas(self) -> np.ndarray:
        """Indices after removing the common shift s: k ones then zeros."""
        return np.asarray([kap - self.s for kap in self.indices], dtype=int)


def split_indices(indices) -> PartialIndexProfile:
    """Validate a non-increasing integer index list and extract (s, k).

    s is the common shift (the smallest index) and k counts rows with index
    s + 1. Profiles with kappa_1 - kappa_n >= 2 are rejected: the asymptotic
    scheme covers stable indices only.
    """
    indices = list(indices)
    try:
        idx = [as_integer(v, "partial index") for v in indices]
    except ValueError:
        raise ValueError(f"partial indices must be integers, got {indices!r}") from None
    if not idx:
        raise ValueError("index list must be nonempty")
    if any(a < b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be sorted in non-increasing order")
    if idx[0] - idx[-1] >= 2:
        raise UnstableIndicesError(
            f"unstable partial indices {tuple(idx)}: kappa_1 - kappa_n = {idx[0] - idx[-1]} >= 2"
        )
    s = idx[-1]
    k = sum(1 for v in idx if v == s + 1)
    return PartialIndexProfile(tuple(idx), s, k)


def shift_density(n: SampledMatrixFunction, s: int) -> SampledMatrixFunction:
    """Entry-wise multiplication by ((x+i)/(x-i))**s = w**(-s); unimodular on the grid."""
    s = int(s)
    if s == 0:
        return n
    factor = np.conj(n.grid.w_nodes) ** s
    cf = None
    if n.closed_form is not None and hasattr(n.closed_form, "mobius_scale"):
        cf = n.closed_form.mobius_scale(-s)
    return SampledMatrixFunction.node_last(n.grid, n.data * factor, cf)


class Step:
    """One order of the scheme: the solution of Lambda0+ N+ + N- = M, Lambda0+ = diag(w^kappas).

    n_plus and n_minus are N+ and N- at the nodes; constant is the full
    n x n constant, its rows with exponent 1 zero, and c0 the zero mode of
    the M solved. The record holds no M: N+ has only modes p >= 0 on the
    grid and N- only modes p <= 0, so each continues off the line from its
    own samples, N+(z) = Omega0[N+](z) + (its zero mode) and
    N-(z) = -Omega0[N-](z). plus_sum (sum_{p>0} c_p) and limit (M at
    x = infinity) are set by whoever builds the step: solve_step takes
    them from its forward FFT when a function chose the block and leaves
    both None for a plain block. The driver replaces a remainder's limit
    by the value propagated from M0's. r and sup_remainder (sup |M|) are
    set by the driver; they stay None on a step solved outside it.
    """

    def __init__(self, n_plus: SampledMatrixFunction, n_minus: SampledMatrixFunction,
                 constant: np.ndarray, kappas: np.ndarray, c0: np.ndarray,
                 plus_sum: Optional[np.ndarray], limit: Optional[np.ndarray]):
        self.n_plus, self.n_minus = n_plus, n_minus
        self.constant, self.kappas, self.c0 = constant, kappas, c0
        self.plus_sum, self.limit = plus_sum, limit
        self.r = self.sup_remainder = None

    @property
    def solution(self) -> "Step":
        """The step itself: the benchmark's output check reads `step.solution.n_plus`."""
        return self

    @property
    def c_total(self) -> np.ndarray:
        return self.constant - self.plus_sum

    @property
    def sup_n_plus(self) -> float:
        return sup_norm(self.n_plus)

    @property
    def sup_n_minus(self) -> float:
        return sup_norm(self.n_minus)

    def evaluate_plus(self, z: complex) -> np.ndarray:
        """N+(z) in the upper half-plane, z = i included (Omega0 is 0 there)."""
        z = _in_half_plane(z, upper=True)
        return cauchy.cauchy_off_line(self.n_plus, z) + self.n_plus.data.mean(axis=-1)

    def evaluate_minus(self, z: complex) -> np.ndarray:
        """N-(z) in the lower half-plane."""
        z = _in_half_plane(z, upper=False)
        return -cauchy.cauchy_off_line(self.n_minus, z)

    def plus_at_infinity(self) -> np.ndarray:
        return self.plus_sum - self.constant

    def minus_at_infinity(self) -> np.ndarray:
        return self.limit + self.c_total


def _in_half_plane(z: complex, upper: bool) -> complex:
    """z as a complex number, checked to lie strictly in the upper (or lower) half-plane."""
    z = complex(z)
    if not (z.imag > 0 if upper else z.imag < 0):
        side = "upper" if upper else "lower"
        raise ValueError(f"z = {z} is not in the {side} half-plane, where the function is analytic")
    return z


def _scalar(m, grid: MobiusGrid) -> SampledMatrixFunction:
    return SampledMatrixFunction(grid, np.asarray(m, dtype=complex)[:, None, None])


def solve_scalar_index1(m: np.ndarray, grid: MobiusGrid) -> Step:
    """w n+ + n- = m with n+ analytic at z = i: solve_step for n = 1, kappa = 1.

    Analyticity at i forces the constant to Omega0+[m](i) = 0, the corrected
    operator's normalization; any other value would plant a pole, so the
    constant is always 0. The block is passed as a function, so the step
    carries its plus-sum and limit.
    """
    return solve_step(_scalar(m, grid), (1,), lambda plus_sum: np.zeros((0, 1)))


def solve_scalar_index0(m: np.ndarray, grid: MobiusGrid, c_free: complex = 0.0) -> Step:
    """n+ + n- = m: solve_step for n = 1, kappa = 0; c_free shifts the parts oppositely.

    The block is passed as a function, so the step carries its plus-sum and limit.
    """
    return solve_step(_scalar(m, grid), (0,), lambda plus_sum: [[c_free]])


def solve_step(m: SampledMatrixFunction, kappas, free_block) -> Step:
    """Solve Lambda0+ N+ + N- = M row by row, Lambda0+ = diag(w^kappas).

    kappas are non-increasing zeros and ones. Rows with exponent 1 use the
    forced (zero) constant; rows with exponent 0 take the free constants,
    one row of the (n-k, n) free block per index-0 row. N- is taken as
    M - (plus - E), E the constant, so the boundary identity holds at the
    nodes to one rounding by construction. The solve takes one forward and
    one inverse FFT of M. free_block is the block itself, or a function
    that returns it from a copy of sum_{p>0} c_p: then the step's plus_sum
    and limit come from the solve's forward FFT. A plain block takes no
    mode sums, and the step's plus_sum and limit are None. The step keeps
    no reference to m: off the line N+(z) = Omega0[N+](z) + (N+'s mean) and
    N-(z) = -Omega0[N-](z), from the terms' own samples.
    """
    n = m.dims[0]
    kappas = np.asarray(kappas)
    if kappas.shape != (n,):
        raise ValueError(f"kappas must have shape {(n,)}, got {kappas.shape}")
    if not np.isin(kappas, (0, 1)).all():
        raise ValueError(f"kappas must be 0 or 1, got {kappas.tolist()}; stable-case scope only")
    if np.any(kappas[:-1] < kappas[1:]):
        raise ValueError(f"kappas must be non-increasing, got {kappas.tolist()}")
    kappas = kappas.astype(int)
    k = int(kappas.sum())

    raw = cauchy._spectrum(m.samples)  # node-last, (n, n, N); rows are contiguous
    plus_sum = limit = None
    if callable(free_block):
        plus_sum, estimate = cauchy._mode_sums(raw)
        limit = cauchy.limit_or_estimate(m, estimate)
        free_block = free_block(plus_sum.copy())
    free = np.asarray(free_block, dtype=complex)
    if free.shape != (n - k, n):
        raise ValueError(f"free constant block must have shape {(n - k, n)}, got {free.shape}")
    e = np.zeros((n, n), dtype=complex)
    e[k:] = free

    plus, c0 = cauchy._split(raw)
    n_plus = np.subtract(plus, e[..., None], out=plus)
    n_minus = np.subtract(m.data, n_plus)
    if k:
        n_plus[:k] *= np.conj(m.grid.w_nodes)
    return Step(
        n_plus=SampledMatrixFunction.node_last(m.grid, n_plus),
        n_minus=SampledMatrixFunction.node_last(m.grid, n_minus),
        constant=e,
        kappas=kappas,
        c0=np.asarray(c0),
        plus_sum=plus_sum,
        limit=limit,
    )
