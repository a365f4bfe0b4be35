"""Iterative factorization driver and convergence bookkeeping.

Given the diagonal pattern Lambda0+ (k entries w, then ones) and a remainder
M0 in the shifted frame, the scheme solves one matrix boundary problem per
order,

    Lambda0+ N_r+ + N_r- = M_{r-1},   M_r = -sum_{j=1..r} N_j- N_{r+1-j}+,

and assembles the truncated factor series

    h- = I + sum_r N_r- (Lambda0+)^(-1),   h+ = I + sum_r N_r+.

All step identities hold exactly at the grid nodes, so the reported residual
of h- Lambda0 h+ against Lambda0 + M0 measures pure truncation on the same
grid (and truncation plus interpolation on a refined one). The common
unimodular shift w^s multiplies both sides of the factorization identically
and drops out of every sup norm taken on the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import cauchy
from .evaluators import ClosedForm
from .grid import (
    MobiusGrid,
    SampledMatrixFunction,
    hoelder_norm,
    matrix_norm,
    node_det,
    node_matmul,
    sample,
    sup_norm,
)
from .rbvp import (
    PartialIndexProfile,
    Step,
    _in_half_plane,
    detect_kappas,
    solve_step,
    split_indices,
)


class NumericalError(RuntimeError):
    """A non-finite intermediate quantity; the run cannot continue."""


# ---------------------------------------------------------------------------
# constant-choice strategies


class CanonicalZero:
    """All free constants zero: the plain corrected-operator solution."""

    name = "canonical-zero"

    def free_block(self, r: int, remainder: SampledMatrixFunction,
                   profile: PartialIndexProfile, plus_sum: np.ndarray) -> np.ndarray:
        n, k = profile.n, profile.k
        return np.zeros((n - k, n), dtype=complex)


class ExplicitConstants:
    """User-supplied free blocks, one per step; the last block repeats."""

    name = "explicit"

    def __init__(self, blocks: Sequence):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        if not blocks:
            raise ValueError("explicit strategy needs at least one constant block")
        self.blocks = blocks

    def free_block(self, r, remainder, profile, plus_sum):
        return self.blocks[min(r - 1, len(self.blocks) - 1)]


class MinimizeRemainderInfinity:
    """Zero the free rows of the total constant, shrinking the next remainder at infinity."""

    name = "minimize-remainder-infinity"

    def free_block(self, r, remainder, profile, plus_sum):
        return np.asarray(plus_sum)[profile.k:, :].copy()


_BUILTIN_STRATEGIES = {
    "canonical-zero": CanonicalZero,
    "minimize-remainder-infinity": MinimizeRemainderInfinity,
}


def _as_strategy(strategy, explicit_constants=None):
    if hasattr(strategy, "free_block"):
        return strategy
    if strategy == "explicit":
        if explicit_constants is None:
            raise ValueError("strategy 'explicit' requires explicit_constants")
        return ExplicitConstants(explicit_constants)
    try:
        return _BUILTIN_STRATEGIES[strategy]()
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None


# ---------------------------------------------------------------------------
# remainder recurrence


def next_remainder(steps: Sequence[Step]) -> SampledMatrixFunction:
    """M_r = -sum_{j=1..r} N_j- N_{r+1-j}+ node-wise, r = len(steps).

    The products are added in place into the first one, in order of j, and
    the sum is negated in place: the adds of the plain sum, so its bits.
    Solver terms carry no closed form, and the result carries none.
    """
    r = len(steps)
    if r < 1:
        raise ValueError("need at least one solved step")
    acc = (steps[0].n_minus @ steps[r - 1].n_plus).data
    for j in range(2, r + 1):
        acc += (steps[j - 1].n_minus @ steps[r - j].n_plus).data
    return SampledMatrixFunction.node_last(steps[0].n_plus.grid, np.negative(acc, out=acc))


# ---------------------------------------------------------------------------
# convergence diagnostics


def alpha_coefficients(r_max: int):
    """Exact rational alpha_r: alpha_1 = 1/2, then the self-convolution halved."""
    r_max = int(r_max)
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    alphas = [Fraction(1, 2)]
    for r in range(2, r_max + 1):
        s = sum(alphas[j - 1] * alphas[r - j - 1] for j in range(1, r))
        alphas.append(s / 2)
    return alphas


@dataclass(eq=False)
class ConvergenceDiagnostics:
    A: float
    epsilon_bound: float
    C_mu_used: float
    hoelder_norm_N: float
    mu: float
    small_enough: bool
    alpha: tuple
    per_step_norms: tuple = ()


def convergence_from_norm(norm: float, c_mu: float) -> float:
    """A = norm * (1 + c_mu)^2, the geometric-series constant of the scheme."""
    return float(norm) * (1.0 + float(c_mu)) ** 2


def convergence_constant(m0: SampledMatrixFunction, mu: float, c_mu: float) -> ConvergenceDiagnostics:
    """Diagnostics from the Hoelder norm of the full perturbation.

    The small parameter is folded into m0, so the reported A already bounds
    the series ratio; partial sums converge geometrically when A < 1 and the
    admissible-perturbation bound is 1/A.
    """
    mu = float(mu)
    c_mu = float(c_mu)
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if c_mu <= 0.0:
        raise ValueError(f"c_mu must be positive, got {c_mu}")
    est = hoelder_norm(m0, mu)
    a = convergence_from_norm(est.total, c_mu)
    eps = float("inf") if a == 0.0 else 1.0 / a
    return ConvergenceDiagnostics(
        A=a,
        epsilon_bound=eps,
        C_mu_used=c_mu,
        hoelder_norm_N=est.total,
        mu=mu,
        small_enough=bool(a < 1.0),
        alpha=tuple(float(v) for v in alpha_coefficients(12)),
    )


def c_mu_lower_bound(grid: MobiusGrid, mu: float) -> float:
    """Empirical lower bound for the singular-operator norm on H_mu.

    Max of hoelder_norm(S0[f]) / hoelder_norm(f) over the fixed density bank;
    a lower bound only, so A built from it may be an underestimate.
    """
    best = 0.0
    for _name, f in cauchy.reference_densities():
        vals = np.asarray(f(grid.x_nodes), dtype=complex)[:, None, None]
        m = SampledMatrixFunction(grid, vals)
        num = hoelder_norm(cauchy.singular_S0(m), mu).total
        den = hoelder_norm(m, mu).total
        if den > 0:
            best = max(best, num / den)
    return best


# ---------------------------------------------------------------------------
# the driver


@dataclass(frozen=True)
class FactorConditionReport:
    unit_column_defect: float
    unit_columns_ok: bool
    infinity_product_defect: float
    infinity_product_ok: bool
    min_abs_det_h_minus: float
    min_abs_det_h_plus: float


def build_lambda0(profile: PartialIndexProfile, grid: MobiusGrid) -> SampledMatrixFunction:
    """Shifted diagonal pattern diag(w x k, 1 x (n-k)) with its closed form."""
    kappas = tuple(int(v) for v in profile.shifted_kappas())
    return sample(ClosedForm.mobius_power_diag(kappas), grid)


@dataclass(eq=False)
class FactorizationResult:
    grid: MobiusGrid
    profile: PartialIndexProfile
    strategy_name: str
    order: int
    order_reached: int
    h_minus: SampledMatrixFunction
    h_plus: SampledMatrixFunction
    lambda_factor: SampledMatrixFunction
    residual_sup: float
    steps: list
    diagnostics: Optional[ConvergenceDiagnostics]
    lambda0: SampledMatrixFunction
    m0: SampledMatrixFunction

    def h_plus_infinity(self) -> np.ndarray:
        n = self.profile.n
        total = np.eye(n, dtype=complex)
        for step in self.steps:
            total = total + step.plus_at_infinity()
        return total

    def h_minus_infinity(self) -> np.ndarray:
        n = self.profile.n
        total = np.eye(n, dtype=complex)
        for step in self.steps:
            total = total + step.limit + step.c_total
        return total

    def h_minus_at_minus_i(self) -> np.ndarray:
        """Exact value: the w^(-1) column factors vanish at z = -i."""
        n, k = self.profile.n, self.profile.k
        scale = np.ones(n)
        scale[:k] = 0.0
        total = np.eye(n, dtype=complex)
        for step in self.steps:
            total = total + (step.c0 + step.constant) * scale[None, :]
        return total

    def evaluate_h_plus(self, z: complex) -> np.ndarray:
        z = _in_half_plane(z, upper=True)
        total = np.eye(self.profile.n, dtype=complex)
        for step in self.steps:
            total = total + step.evaluate_plus(z)
        return total

    def evaluate_h_minus(self, z: complex) -> np.ndarray:
        z = _in_half_plane(z, upper=False)
        colfac = ((z + 1j) / (z - 1j)) ** self.profile.shifted_kappas()
        total = np.eye(self.profile.n, dtype=complex)
        for step in self.steps:
            total = total + step.evaluate_minus(z) * colfac[None, :]
        return total

    def residual_sup_at(self, refine: int = 1) -> float:
        """Sup of h- Lambda0 h+ - (Lambda0 + M0), optionally on a finer grid.

        Factor series and remainder are band-limited grid objects, so their
        refined samples are their exact trigonometric continuations; the
        diagonal is rebuilt from its closed form.
        """
        refine = int(refine)
        if refine < 1:
            raise ValueError("refine must be >= 1")
        hm, hp, l0, m0 = self.h_minus, self.h_plus, self.lambda0, self.m0
        if refine > 1:  # one refined grid for all four
            fine = MobiusGrid.build(self.grid.n_points * refine)
            hm, hp, l0, m0 = (cauchy._resample_to(f, fine) for f in (hm, hp, l0, m0))
        diff = (hm @ l0 @ hp) - (l0 + m0)
        return sup_norm(diff)


def run_factorization(
    lambda0: SampledMatrixFunction,
    m0: SampledMatrixFunction,
    profile: PartialIndexProfile,
    order: int,
    strategy: Union[str, object] = "canonical-zero",
    explicit_constants=None,
    atol: float = 1e-12,
    mu: float = 0.5,
    c_mu: float = 1.0,
    refine_check: int = 1,
    convergence: Optional[bool] = None,
) -> FactorizationResult:
    """Run the order-by-order scheme in the shifted frame.

    m0 must already carry the w^(-s) shift when the profile has s != 0; the
    assembled factors then pair with the full diagonal (exponents as given in
    the profile), and the shift cancels from all reported sup norms.
    Early stop: a remainder with sup norm below atol ends the loop.
    `convergence` turns the Hoelder diagnostics on (True) or off (False);
    None computes them on grids of up to 8192 nodes.
    """
    if convergence is not None and not isinstance(convergence, (bool, np.bool_)):
        raise TypeError(
            f"convergence must be None or a bool, got {type(convergence).__name__}"
        )
    if not isinstance(profile, PartialIndexProfile):
        profile = split_indices(profile)
    order = int(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    strat = _as_strategy(strategy, explicit_constants)
    grid = m0.grid
    n, k = profile.n, profile.k
    if m0.dims != (n, n):
        raise ValueError(f"m0 must be {n} x {n} for this profile")
    if lambda0.dims != (n, n) or lambda0.grid.n_points != grid.n_points:
        raise ValueError("lambda0 must match m0's grid and dimensions")

    kappas = detect_kappas(lambda0)
    if not np.array_equal(kappas, profile.shifted_kappas()):
        raise ValueError(
            f"lambda0 has diagonal exponents {tuple(kappas)}, "
            f"the profile needs {tuple(profile.shifted_kappas())}"
        )

    steps = []
    current = m0
    for r in range(1, order + 1):
        sup_m = sup_norm(current)
        if not np.isfinite(sup_m):
            raise NumericalError(f"remainder at step {r} contains non-finite values")
        if sup_m < atol:
            break
        modes = cauchy.step_modes(current.samples)  # the step's only forward FFT
        # the strategy gets its own copy: modes.plus_sum goes into the step
        block = np.asarray(
            strat.free_block(r, current, profile, modes.plus_sum.copy()), dtype=complex
        )
        if block.shape != (n - k, n):
            raise ValueError(
                f"strategy returned a free block of shape {block.shape}, expected {(n - k, n)}"
            )
        if not np.all(np.isfinite(block)):
            raise NumericalError(f"strategy returned non-finite constants at step {r}")
        step = solve_step(current, kappas, block, modes)
        del modes  # the split halves are dead once the step is solved
        if not (np.all(np.isfinite(step.n_plus.data)) and np.all(np.isfinite(step.n_minus.data))):
            raise NumericalError(f"step {r} produced non-finite factor terms")
        step.r, step.sup_remainder = r, sup_m
        if r > 1:  # M0's own limit stays; later ones follow the convolution below
            step.limit = limit
        steps.append(step)
        if r < order:
            current = next_remainder(steps)
            # limits obey the same convolution as the remainders
            limit = np.zeros((n, n), dtype=complex)
            for j in range(1, r + 1):
                limit = limit + node_matmul(steps[j - 1].minus_at_infinity(), steps[r - j].c_total)

    # node-last sums, (n, n, N): column q of each N_r- scales by conj(w)^kappa_q
    colfac = np.conj(grid.w_nodes) ** kappas[:, None]
    hm_samples = np.zeros((n, n, grid.n_points), dtype=complex)
    hm_samples[np.arange(n), np.arange(n)] = 1.0
    hp_samples = hm_samples.copy()
    for step in steps:
        hm_samples += step.n_minus.data * colfac
        hp_samples += step.n_plus.data
    h_minus = SampledMatrixFunction.node_last(grid, hm_samples)
    h_plus = SampledMatrixFunction.node_last(grid, hp_samples)
    lambda_factor = sample(ClosedForm.mobius_power_diag(profile.indices), grid)

    diag = None
    want_diag = convergence if convergence is not None else grid.n_points <= 8192
    if want_diag:
        diag = convergence_constant(m0, mu, c_mu)
        diag.per_step_norms = tuple((step.sup_n_plus, step.sup_n_minus) for step in steps)

    result = FactorizationResult(
        grid=grid,
        profile=profile,
        strategy_name=getattr(strat, "name", type(strat).__name__),
        order=order,
        order_reached=len(steps),
        h_minus=h_minus,
        h_plus=h_plus,
        lambda_factor=lambda_factor,
        residual_sup=0.0,
        steps=steps,
        diagnostics=diag,
        lambda0=lambda0,
        m0=m0,
    )
    result.residual_sup = result.residual_sup_at(refine_check)
    return result


def check_factor_conditions(result: FactorizationResult, k: Optional[int] = None) -> FactorConditionReport:
    """Defects of the two normalization conditions plus node-wise invertibility.

    Columns q < k of h-(-i) are unit vectors by the column structure of the
    assembled series (checked through the off-line evaluator); the product
    h-(inf) h+(inf) equals I only up to the truncation order, so its defect
    is reported as a magnitude with a sanity flag rather than a tolerance.
    """
    if k is None:
        k = result.profile.k
    n = result.profile.n
    hm_at = result.evaluate_h_minus(-1j)
    unit_defect = 0.0
    if k:
        diff = hm_at[:, :k] - np.eye(n, dtype=complex)[:, :k]
        unit_defect = float(np.abs(diff).max())
    prod = node_matmul(result.h_minus_infinity(), result.h_plus_infinity())
    inf_defect = float(matrix_norm(prod - np.eye(n)))
    det_hm = np.abs(node_det(result.h_minus.samples))
    det_hp = np.abs(node_det(result.h_plus.samples))
    return FactorConditionReport(
        unit_column_defect=unit_defect,
        unit_columns_ok=bool(unit_defect < 1e-8),
        infinity_product_defect=inf_defect,
        infinity_product_ok=bool(inf_defect < 1.0),
        min_abs_det_h_minus=float(det_hm.min()),
        min_abs_det_h_plus=float(det_hp.min()),
    )
