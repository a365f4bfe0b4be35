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
from .grid import MobiusGrid, SampledMatrixFunction, node_sum, sup_norm


class UnstableIndicesError(ValueError):
    """Partial indices with kappa_1 - kappa_n >= 2; out of the algorithm's scope."""


class ForcedConstantError(ValueError):
    """Index-1 constant incompatible with analyticity at z = i."""


@dataclass(frozen=True)
class PartialIndexProfile:
    indices: tuple
    s: int
    k: int
    stable: bool

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
    idx = []
    for v in indices:
        if int(v) != v:
            raise ValueError(f"partial indices must be integers, got {v!r}")
        idx.append(int(v))
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
    return PartialIndexProfile(tuple(idx), s, k, True)


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


@dataclass(eq=False)
class Step:
    """One order of the scheme: the solution of Lambda0+ N+ + N- = M, Lambda0+ = diag(w^kappas).

    n_plus and n_minus are N+ and N- at the nodes; constant is the full
    n x n constant, its rows with exponent 1 zero; density is the M solved.
    c0, plus_sum and limit are M's zero mode, sum_{p>0} c_p and limit at
    x = infinity (the driver replaces the estimate of a remainder's limit by
    the value propagated from M0's). r and sup_remainder (sup |M|) are set
    by the driver. Off the line, N+ = diag(v^(-kappas)) (Omega0[M] - constant)
    and N- = constant - Omega0[M], v = (z-i)/(z+i).
    """

    n_plus: SampledMatrixFunction
    n_minus: SampledMatrixFunction
    constant: np.ndarray
    kappas: np.ndarray
    density: SampledMatrixFunction
    c0: np.ndarray
    plus_sum: np.ndarray
    limit: np.ndarray
    r: Optional[int] = None
    sup_remainder: Optional[float] = None

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
        """N+(z) in the upper half-plane, z = i included."""
        z = _in_half_plane(z, upper=True)
        val = cauchy.cauchy_off_line(self.density, z) - self.constant
        k = int(self.kappas.sum())  # the rows with exponent 1 come first
        if k and z == 1j:  # v = 0: v^(-1) Omega0[M](z) tends to (1/N) sum_j conj(w_j) M(x_j)
            g = self.density.grid
            val[:k] = node_sum(np.conj(g.w_nodes), self.density.samples[:, :k]) / g.n_points
        elif k:
            val[:k] *= (z + 1j) / (z - 1j)
        return val

    def evaluate_minus(self, z: complex) -> np.ndarray:
        """N-(z) in the lower half-plane."""
        z = _in_half_plane(z, upper=False)
        return self.constant - cauchy.cauchy_off_line(self.density, z)

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


def solve_scalar_index1(m: np.ndarray, grid: MobiusGrid, c_forced: complex = 0.0) -> Step:
    """w n+ + n- = m with n+ analytic at z = i: solve_step for n = 1, kappa = 1.

    Analyticity at i forces the constant to Omega0+[m](i) = 0, the corrected
    operator's normalization; any value further than 1e-8 from it would
    plant a pole and is rejected.
    """
    if abs(c_forced) > 1e-8:
        raise ForcedConstantError(
            f"index-1 constant must equal Omega0+[m](i) = 0, got {c_forced!r}"
        )
    return solve_step(_scalar(m, grid), (1,), np.zeros((0, 1)))


def solve_scalar_index0(m: np.ndarray, grid: MobiusGrid, c_free: complex = 0.0) -> Step:
    """n+ + n- = m: solve_step for n = 1, kappa = 0; c_free shifts the parts oppositely."""
    return solve_step(_scalar(m, grid), (0,), [[c_free]])


def detect_kappas(lambda0_plus: SampledMatrixFunction) -> np.ndarray:
    """Exponents of a diagonal Lambda0+ whose entries are each 1 or (x-i)/(x+i)."""
    s = lambda0_plus.data
    n = s.shape[0]
    for i in range(n):
        for j in range(n):
            # written so that a NaN entry fails the test
            if i != j and not np.abs(s[i, j]).max() <= 1e-12:
                raise ValueError("Lambda0+ must be diagonal with finite entries")
    w = lambda0_plus.grid.w_nodes
    # np.allclose(d, target, atol=1e-9) for a finite target, one pass per test:
    # |d - target| <= 1e-9 + 1e-5 |target| at every node; NaN and inf fail
    targets = ((0, 1.0, 1e-9 + 1e-5), (1, w, 1e-9 + 1e-5 * np.abs(w)))
    diff = np.empty(len(w), dtype=complex)
    gap = np.empty(len(w))
    kappas = np.empty(n, dtype=int)
    for j in range(n):
        for kappa, target, tol in targets:
            np.abs(np.subtract(s[j, j], target, out=diff), out=gap)
            if np.less_equal(gap, tol).all():
                kappas[j] = kappa
                break
        else:
            raise ValueError(
                f"diagonal entry {j} is neither 1 nor (x-i)/(x+i); stable-case scope only"
            )
    if any(a < b for a, b in zip(kappas, kappas[1:])):
        raise ValueError("diagonal exponents must be non-increasing")
    return kappas


def solve_step(
    m: SampledMatrixFunction,
    kappas,
    free_block,
    modes: Optional[cauchy.StepModes] = None,
) -> Step:
    """Solve Lambda0+ N+ + N- = M row by row, Lambda0+ = diag(w^kappas).

    kappas are non-increasing zeros and ones. Rows with exponent 1 use the
    forced (zero) constant; rows with exponent 0 take the supplied free
    constants, one row of free_block per index-0 row. The boundary identity
    holds at the nodes to rounding by construction. A driver that already
    holds them passes in `modes`, which must be cauchy.step_modes(m.samples);
    only their shape is checked, and they are never written.
    """
    n = m.dims[0]
    kappas = np.asarray(kappas)
    if kappas.shape != (n,):
        raise ValueError(f"kappas must have shape {(n,)}, got {kappas.shape}")
    if not np.isin(kappas, (0, 1)).all():
        raise ValueError(f"kappas must be 0 or 1, got {kappas.tolist()}; stable-case scope only")
    if np.any(kappas[:-1] < kappas[1:]):
        raise ValueError(f"kappas must be non-increasing, got {kappas.tolist()}")
    if modes is not None and modes.plus.shape != m.samples.shape:
        raise ValueError(
            f"modes are for samples of shape {modes.plus.shape}, M has {m.samples.shape}"
        )
    kappas = kappas.astype(int)
    k = int(kappas.sum())
    free = np.asarray(free_block, dtype=complex)
    if free.shape != (n - k, n):
        raise ValueError(f"free constant block must have shape {(n - k, n)}, got {free.shape}")

    e = np.zeros((n, n), dtype=complex)
    e[k:] = free

    own = modes is None  # then the split halves are this call's to overwrite
    if own:
        modes = cauchy.step_modes(m.samples)
    # the split halves node-last, (n, n, N); rows are contiguous
    plus, minus = np.moveaxis(modes.plus, 0, -1), np.moveaxis(modes.minus, 0, -1)
    n_plus = np.subtract(plus, e[..., None], out=plus if own else None)
    n_minus = np.add(minus, modes.c0[..., None], out=minus if own else None)
    n_minus += e[..., None]
    if k:
        n_plus[:k] *= np.conj(m.grid.w_nodes)
    return Step(
        n_plus=SampledMatrixFunction.node_last(m.grid, n_plus),
        n_minus=SampledMatrixFunction.node_last(m.grid, n_minus),
        constant=e,
        kappas=kappas,
        density=m,
        c0=np.asarray(modes.c0),
        plus_sum=np.asarray(modes.plus_sum),
        limit=cauchy.limit_or_estimate(m, modes.limit),
    )
