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

check_total_index judges the declared total index before a run, and
run_factorization only solves. A = |M0|_mu (1 + C_mu)^2 is a property of M0
and comes from convergence_constant, with the Hoelder norm on at most
DIAGNOSTIC_NODES = 2048 nodes: a larger closed-form M0 is sampled there,
any other M0 is used as given. c_mu_lower_bound takes at most
C_MU_NODES = 1024 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import cauchy
from .evaluators import _BLOCK, ClosedForm
from .grid import (
    MobiusGrid,
    SampledMatrixFunction,
    _matmul_node_last,
    as_integer,
    hoelder_norm,
    matrix_norm,
    node_det,
    node_matmul,
    node_values,
    sample,
    sup_norm,
    winding,
)
from .rbvp import (
    PartialIndexProfile,
    Step,
    _in_half_plane,
    solve_step,
    split_indices,
)


class NumericalError(RuntimeError):
    """A computed quantity that cannot be trusted; the run cannot continue.

    A non-finite intermediate quantity, or two routes to the same quantity
    that disagree (the example family's route cross-check).
    """


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


def _as_strategy(strategy):
    if hasattr(strategy, "free_block"):
        return strategy
    try:
        return _BUILTIN_STRATEGIES[strategy]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; pass explicit constants as ExplicitConstants(blocks)"
        ) from None


# ---------------------------------------------------------------------------
# remainder recurrence


def _series(n: int, terms, nodes: tuple = ()) -> np.ndarray:
    """I plus each term, added in step order: (n, n), or node-last (n, n, N) for nodes = (N,)."""
    total = np.zeros((n, n) + nodes, dtype=complex)
    total[np.arange(n), np.arange(n)] = 1.0
    for term in terms:
        total += term
    return total


def _convolve(minus: Sequence[np.ndarray], plus: Sequence[np.ndarray]) -> np.ndarray:
    """-sum_{j=1..r} minus_j plus_{r+1-j} over node-last (n, n, N) arrays, r = len(minus).

    The products are added in place into the first one, in order of j, and
    the sum is negated in place: the adds of the plain sum, so its bits.
    """
    pairs = zip(minus, reversed(plus))
    acc = _matmul_node_last(*next(pairs))
    for a, b in pairs:
        acc += _matmul_node_last(a, b)
    return np.negative(acc, out=acc)


def next_remainder(steps: Sequence[Step]) -> SampledMatrixFunction:
    """M_r = -sum_{j=1..r} N_j- N_{r+1-j}+ node-wise, r = len(steps).

    Solver terms carry no closed form, and the result carries none.
    """
    if not steps:
        raise ValueError("need at least one solved step")
    acc = _convolve([s.n_minus.data for s in steps], [s.n_plus.data for s in steps])
    return SampledMatrixFunction.node_last(steps[0].n_plus.grid, acc)


# ---------------------------------------------------------------------------
# convergence diagnostics


def alpha_coefficients(r_max: int):
    """Exact rational alpha_r: alpha_1 = 1/2, then the self-convolution halved."""
    r_max = as_integer(r_max, "r_max")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    alphas = [Fraction(1, 2)]
    for r in range(2, r_max + 1):
        s = sum(alphas[j - 1] * alphas[r - j - 1] for j in range(1, r))
        alphas.append(s / 2)
    return alphas


# the Hoelder norm of M0 is taken on at most this many nodes
DIAGNOSTIC_NODES = 2048
# the empirical C_mu bound is taken on at most this many nodes
C_MU_NODES = 1024


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    A: float
    epsilon_bound: float
    C_mu_used: float
    hoelder_norm: float
    mu: float
    small_enough: bool


def convergence_from_norm(norm: float, c_mu: float) -> float:
    """A = norm * (1 + c_mu)^2, the geometric-series constant of the scheme."""
    return float(norm) * (1.0 + float(c_mu)) ** 2


def convergence_constant(m0: SampledMatrixFunction, mu: float, c_mu: float) -> ConvergenceDiagnostics:
    """Diagnostics from the Hoelder norm of the full perturbation.

    The small parameter is folded into m0, so the reported A already bounds
    the series ratio; partial sums converge geometrically when A < 1 and the
    admissible-perturbation bound is 1/A. An m0 on more than DIAGNOSTIC_NODES
    nodes is sampled on that many from its closed form; an m0 on fewer, or
    without a closed form, is used as given.
    """
    mu = float(mu)
    c_mu = float(c_mu)
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not 0.0 < c_mu < np.inf:
        raise ValueError(f"c_mu must be positive and finite, got {c_mu}")
    if m0.grid.n_points > DIAGNOSTIC_NODES and m0.closed_form is not None:
        m0 = sample(m0.closed_form, MobiusGrid.build(DIAGNOSTIC_NODES))
    est = hoelder_norm(m0, mu)
    a = convergence_from_norm(est.total, c_mu)
    eps = float("inf") if a == 0.0 else 1.0 / a
    return ConvergenceDiagnostics(
        A=a,
        epsilon_bound=eps,
        C_mu_used=c_mu,
        hoelder_norm=est.total,
        mu=mu,
        small_enough=bool(a < 1.0),
    )


def c_mu_lower_bound(grid: MobiusGrid, mu: float) -> float:
    """Empirical lower bound for the singular-operator norm on H_mu.

    Max of hoelder_norm(S0[f]) / hoelder_norm(f) over the fixed density bank,
    on a grid of more than C_MU_NODES nodes taken on that many; a lower
    bound only, so A built from it may be an underestimate.
    """
    if grid.n_points > C_MU_NODES:
        grid = MobiusGrid.build(C_MU_NODES)
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

# a remainder with a smaller sup norm ends the loop
ATOL = 1e-12


@dataclass(frozen=True)
class FactorConditionReport:
    unit_column_defect: float
    infinity_product_defect: float
    min_abs_det_h_minus: float
    min_abs_det_h_plus: float


def build_lambda0(profile: PartialIndexProfile, grid: MobiusGrid) -> SampledMatrixFunction:
    """Shifted diagonal pattern diag(w x k, 1 x (n-k)) with its closed form."""
    kappas = tuple(int(v) for v in profile.shifted_kappas())
    return sample(ClosedForm.mobius_power_diag(kappas), grid)


def check_total_index(lambda0, m0, profile: PartialIndexProfile) -> None:
    """Raise ValueError when the winding of det(Lambda0 + M0) contradicts the declared total index.

    In the shifted frame det(Lambda0 + M0) winds profile.k times around 0
    when the indices are right; a count grid.winding finds unreliable is left unjudged.
    """
    count, largest, reliable = winding(node_det((lambda0.data + m0.data).transpose(2, 0, 1)))
    if reliable and count != profile.k:
        shift = profile.n * profile.s  # the winding the w^(-s) shift took out
        raise ValueError(
            f"indices {list(profile.indices)} declare total index {profile.k + shift}, "
            f"but det(Lambda + M0) winds {count + shift} times around 0 "
            f"on {m0.grid.n_points} nodes (largest phase step {largest:.3g} rad)"
        )


def _check_lambda0(lambda0: SampledMatrixFunction, kappas: np.ndarray) -> None:
    """Raise ValueError unless lambda0 is diag(w^kappas) at every node.

    Off-diagonal entries must lie within 1e-12 of 0, and diagonal ones
    within 1e-9 + 1e-5 |target|, as np.allclose(d, target, atol=1e-9)
    judges; NaN and inf fail.
    """
    w = lambda0.grid.w_nodes
    for i in range(len(kappas)):
        for j in range(len(kappas)):
            target = (w if kappas[j] else 1.0) if i == j else 0.0
            tol = 1e-9 + 1e-5 * np.abs(target) if i == j else 1e-12
            if not np.all(np.abs(lambda0.data[i, j] - target) <= tol):
                raise ValueError(
                    "lambda0 does not match the profile's diagonal exponents "
                    f"{tuple(kappas.tolist())}: entry ({i}, {j}) is off diag(w^kappas)"
                )


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
    lambda0: SampledMatrixFunction
    m0: SampledMatrixFunction

    def h_plus_infinity(self) -> np.ndarray:
        return _series(self.profile.n, (step.plus_at_infinity() for step in self.steps))

    def h_minus_infinity(self) -> np.ndarray:
        return _series(self.profile.n, (step.minus_at_infinity() for step in self.steps))

    def h_minus_at_minus_i(self) -> np.ndarray:
        """Exact value: the w^(-1) column factors vanish at z = -i."""
        scale = 1.0 - self.profile.shifted_kappas()  # 0 on the k columns with exponent 1
        return _series(self.profile.n, ((step.c0 + step.constant) * scale for step in self.steps))

    def evaluate_h_plus(self, z: complex) -> np.ndarray:
        z = _in_half_plane(z, upper=True)
        return _series(self.profile.n, (step.evaluate_plus(z) for step in self.steps))

    def evaluate_h_minus(self, z: complex) -> np.ndarray:
        z = _in_half_plane(z, upper=False)
        colfac = ((z + 1j) / (z - 1j)) ** self.profile.shifted_kappas()
        return _series(self.profile.n, (step.evaluate_minus(z) * colfac for step in self.steps))

    def residual_sup_at(self, refine: int = 1) -> float:
        """Sup of h- Lambda0 h+ - (Lambda0 + M0), optionally on a finer grid.

        Factor series and remainder are band-limited grid objects, so their
        refined samples are their exact trigonometric continuations: an
        operand without a closed form is resampled onto the one fine grid,
        and one with a closed form (the diagonal, a sampled M0) is
        evaluated there. The residual and its sup are formed one block of
        evaluators._BLOCK nodes at a time, the closed forms evaluated on
        each block's nodes. These are the evaluator's own blocks, so every
        value has the bits of the whole-array formula, and no full-size
        product or sum is held.
        """
        refine = as_integer(refine, "refine")
        if refine < 1:
            raise ValueError("refine must be >= 1")
        operands = (self.h_minus, self.h_plus, self.lambda0, self.m0)
        if refine == 1:
            grid, sources = self.grid, [f.data for f in operands]
        else:  # one refined grid for all four
            grid = MobiusGrid.build(self.grid.n_points * refine)
            sources = [cauchy._resample_to(f, grid).data if f.closed_form is None else f.closed_form
                       for f in operands]
        sups = []
        for k in range(0, grid.n_points, _BLOCK):
            nodes = slice(k, k + _BLOCK)
            hm, hp, l0, m0 = (src[..., nodes] if isinstance(src, np.ndarray)
                              else node_values(src, grid, nodes) for src in sources)
            diff = _matmul_node_last(_matmul_node_last(hm, l0), hp)
            diff -= l0 + m0
            sups.append(matrix_norm(np.moveaxis(diff, -1, 0)).max())
        return float(np.max(sups))  # np.max keeps a NaN, which max() would drop


def run_factorization(
    lambda0: SampledMatrixFunction,
    m0: SampledMatrixFunction,
    profile: PartialIndexProfile,
    order: int,
    strategy: Union[str, object] = "canonical-zero",
    refine_check: int = 1,
) -> FactorizationResult:
    """Run the order-by-order scheme in the shifted frame.

    m0 must already carry the w^(-s) shift when the profile has s != 0; the
    assembled factors then pair with the full diagonal (exponents as given in
    the profile), and the shift cancels from all reported sup norms.
    Early stop: a remainder with sup norm below ATOL ends the loop.
    The run only solves; convergence_constant gives the diagnostics of m0.
    """
    if not isinstance(profile, PartialIndexProfile):
        profile = split_indices(profile)
    order = as_integer(order, "order")
    if order < 1:
        raise ValueError("order must be >= 1")
    refine_check = as_integer(refine_check, "refine_check")
    if refine_check < 1:
        raise ValueError("refine_check must be >= 1")
    strat = _as_strategy(strategy)
    grid = m0.grid
    n = profile.n
    if m0.dims != (n, n):
        raise ValueError(f"m0 must be {n} x {n} for this profile")
    if lambda0.dims != (n, n) or lambda0.grid.n_points != grid.n_points:
        raise ValueError("lambda0 must match m0's grid and dimensions")

    kappas = profile.shifted_kappas()
    _check_lambda0(lambda0, kappas)

    steps = []
    current = m0
    for r in range(1, order + 1):
        sup_m = sup_norm(current)
        if not np.isfinite(sup_m):
            raise NumericalError(f"remainder at step {r} contains non-finite values")
        if sup_m < ATOL:
            break

        def free_block(plus_sum):  # the strategy's block, from the solve's own transform
            block = np.asarray(strat.free_block(r, current, profile, plus_sum), dtype=complex)
            if not np.all(np.isfinite(block)):
                raise NumericalError(f"strategy returned non-finite constants at step {r}")
            return block
        step = solve_step(current, kappas, free_block)
        if not (np.all(np.isfinite(step.n_plus.data)) and np.all(np.isfinite(step.n_minus.data))):
            raise NumericalError(f"step {r} produced non-finite factor terms")
        step.r, step.sup_remainder = r, sup_m
        if r > 1:  # M0's own limit stays; later ones follow the convolution below
            step.limit = limit
        steps.append(step)
        if r < order:
            current = next_remainder(steps)
            # limits obey the same convolution as the remainders, at x = infinity
            limit = _convolve([s.minus_at_infinity()[..., None] for s in steps],
                              [s.plus_at_infinity()[..., None] for s in steps])[..., 0]

    # column q of each N_r- scales by conj(w)^kappa_q
    colfac = np.conj(grid.w_nodes) ** kappas[:, None]
    nodes = (grid.n_points,)
    hm_samples = _series(n, (step.n_minus.data * colfac for step in steps), nodes)
    hp_samples = _series(n, (step.n_plus.data for step in steps), nodes)
    h_minus = SampledMatrixFunction.node_last(grid, hm_samples)
    h_plus = SampledMatrixFunction.node_last(grid, hp_samples)
    # with shift s = 0 the factor's diagonal is Lambda0 itself: one set of samples
    lambda_form = ClosedForm.mobius_power_diag(profile.indices)
    lambda_factor = lambda0
    if not (lambda0.grid is grid and isinstance(lambda0.closed_form, ClosedForm)
            and lambda0.closed_form.entries == lambda_form.entries):
        lambda_factor = sample(lambda_form, grid)

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
        lambda0=lambda0,
        m0=m0,
    )
    del current, colfac  # the refined residual's fine arrays need the room
    result.residual_sup = result.residual_sup_at(refine_check)
    return result


def check_factor_conditions(result: FactorizationResult) -> FactorConditionReport:
    """Defects of the two normalization conditions plus node-wise invertibility.

    Columns q < k of h-(-i) are unit vectors by the column structure of the
    assembled series (checked through the off-line evaluator); the product
    h-(inf) h+(inf) equals I only up to the truncation order, so its defect
    is reported as a magnitude. The report judges neither defect; a caller
    compares them with its own tolerance.
    """
    n, k = result.profile.n, result.profile.k
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
        infinity_product_defect=inf_defect,
        min_abs_det_h_minus=float(det_hm.min()),
        min_abs_det_h_plus=float(det_hp.min()),
    )
