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
from .grid import MobiusGrid, SampledMatrixFunction


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
class ScalarSolution:
    n_plus: np.ndarray
    n_minus: np.ndarray
    constant: complex
    kappa: int


def solve_scalar_index1(m: np.ndarray, grid: MobiusGrid, c_forced: complex = 0.0) -> ScalarSolution:
    """w n+ + n- = m with n+ analytic at z = i.

    n+ = (1/w)(Omega0+[m] - c), n- = -Omega0-[m] + c. Analyticity at i forces
    c = Omega0+[m](i), which is 0 for the corrected operator; any other value
    would plant a pole and is rejected.
    """
    if abs(c_forced) > 1e-8:
        raise ForcedConstantError(
            f"index-1 constant must equal Omega0+[m](i) = 0, got {c_forced!r}"
        )
    m = np.asarray(m, dtype=complex)
    plus, minus, c0 = cauchy.mode_split(m)
    n_plus = np.conj(grid.w_nodes) * (plus - c_forced)
    n_minus = minus + c0 + c_forced
    return ScalarSolution(n_plus, n_minus, complex(c_forced), 1)


def solve_scalar_index0(m: np.ndarray, grid: MobiusGrid, c_free: complex = 0.0) -> ScalarSolution:
    """n+ + n- = m; the additive constant is free and shifts the parts oppositely."""
    m = np.asarray(m, dtype=complex)
    plus, minus, c0 = cauchy.mode_split(m)
    n_plus = plus - c_free
    n_minus = minus + c0 + c_free
    return ScalarSolution(n_plus, n_minus, complex(c_free), 0)


@dataclass(eq=False)
class StepSolution:
    """One step of the matrix boundary problem Lambda0+ N+ + N- = M."""

    n_plus: SampledMatrixFunction
    n_minus: SampledMatrixFunction
    constant_used: np.ndarray  # full n x n constant, forced rows zero
    kappas: np.ndarray
    hp_plus: cauchy.HalfPlaneFunction
    hp_minus: cauchy.HalfPlaneFunction
    c0: np.ndarray
    plus_sum: np.ndarray
    limit: np.ndarray


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
    lambda0_plus: SampledMatrixFunction,
    m: SampledMatrixFunction,
    free_rows_constant,
    modes: Optional[cauchy.StepModes] = None,
    kappas: Optional[np.ndarray] = None,
) -> StepSolution:
    """Solve Lambda0+ N+ + N- = M row by row.

    Rows with exponent 1 use the forced (zero) constant; rows with exponent 0
    take the supplied free constants, one row of the block per index-0 row.
    The boundary identity holds at the nodes to rounding by construction.
    A driver that already holds them passes in `modes`, which must be
    cauchy.step_modes(m.samples), and `kappas`, which must be
    detect_kappas(lambda0_plus); only their shapes are checked, and they are
    never written.
    """
    if kappas is None:
        kappas = detect_kappas(lambda0_plus)
    n = m.dims[0]
    if lambda0_plus.dims != m.dims:
        raise ValueError("Lambda0+ and M dimensions disagree")
    if kappas.shape != (n,):
        raise ValueError(f"kappas must have shape {(n,)}, got {kappas.shape}")
    if modes is not None and modes.plus.shape != m.samples.shape:
        raise ValueError(
            f"modes are for samples of shape {modes.plus.shape}, M has {m.samples.shape}"
        )
    k = int(kappas.sum())
    free = np.asarray(free_rows_constant, dtype=complex)
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
    n_plus = SampledMatrixFunction.node_last(m.grid, n_plus)
    n_minus = SampledMatrixFunction.node_last(m.grid, n_minus)

    row_powers = kappas.copy()
    hp_plus = cauchy.HalfPlaneFunction("upper", n_plus, m, -e, sign=1, row_powers=row_powers)
    hp_minus = cauchy.HalfPlaneFunction("lower", n_minus, m, e, sign=-1)
    return StepSolution(
        n_plus=n_plus,
        n_minus=n_minus,
        constant_used=e,
        kappas=kappas,
        hp_plus=hp_plus,
        hp_minus=hp_minus,
        c0=np.asarray(modes.c0),
        plus_sum=np.asarray(modes.plus_sum),
        limit=cauchy.limit_or_estimate(m, modes.limit),
    )
