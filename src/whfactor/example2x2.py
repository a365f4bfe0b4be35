"""A 2x2 oscillatory family with every quantity available in closed form.

The base matrix F factors through constant matrices as F = F- diag(w, 1) F+
with w = (x-i)/(x+i), so its partial indices are (1, 0) and the perturbed
target reduces to G1 = diag(w, 1) + M0 where M0 carries e^(+-i phi x)
oscillations and vanishes at x = 0 and at infinity for every phi. The
additive split M0 = M0+ + M0- is explicit, which pins the whole first
step of the scheme in closed form:

    N1+ = (Lambda0+)^(-1) (M0+ - C0),   N1- = M0- + C0,

admissible for any C0 sharing its first row with M0+(i) = psi * B0,
psi = e^(-phi) - 1. Four such constants (B0..B3 below, scaled by psi) give
first remainders M1 = -N1- N1+ with markedly different behavior at
infinity, all predicted by M1(inf) = C0^2.

This module is the library's ground truth: closed forms are exact, so the
quadrature path can be cross-checked against them route by route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rbvp
from .engine import NumericalError
from .evaluators import _BLOCK, ClosedForm, Term
from .grid import MobiusGrid, SampledMatrixFunction, as_integer, node_matmul, sample

_DEN = (1j, 1.0)  # x + i, ascending

F_PLUS = np.array([[2.0, 1.0], [1.0, 1.0]])
F_MINUS = np.array([[1.0, -1.0], [-1.0, 2.0]])

B_MATRICES = (
    np.array([[4.0, -6.0], [3.0, -4.0]]),
    np.array([[4.0, -6.0], [0.0, 0.0]]),
    np.array([[4.0, -6.0], [0.0, 4.0]]),
    np.array([[4.0, -6.0], [8.0 / 3.0, -4.0]]),
)


@dataclass(eq=False)
class ExampleInstance:
    phi: float
    psi: float
    F: ClosedForm
    F_minus: ClosedForm
    F_plus: ClosedForm
    Lambda0: ClosedForm
    G_phi: ClosedForm
    G1: ClosedForm
    M0: ClosedForm
    M0_plus: ClosedForm
    M0_minus: ClosedForm


def _finite_phi(phi: float) -> float:
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    return phi


def build_example(phi: float) -> ExampleInstance:
    """All closed forms of the family at one parameter value.

    phi = 0 collapses every oscillatory numerator to zero, leaving M0
    identically zero and G_phi equal to the base matrix F. A non-finite
    phi raises a ValueError.
    """
    phi = _finite_phi(phi)
    psi = math.expm1(-phi)  # e^(-phi) - 1
    d = math.exp(-phi)

    # minus part: g * [[1, -1], [1, -1]], g = 4i (e^(-i phi x) - e^(-phi)) / (x + i);
    # the numerator vanishes at x = -i, so g continues into the lower half-plane
    g_terms = (Term((4j,), _DEN, -phi), Term((-4j * d,), _DEN))
    neg_g = tuple(t.scaled(-1) for t in g_terms)
    m0_minus = ClosedForm([[g_terms, neg_g], [g_terms, neg_g]])

    # plus part: (2i/(x+i)) (a + b e^(i phi x) + c e^(-phi)) entry-wise
    def pcell(a, b, c):
        return (Term((2j * (a + c * d),), _DEN), Term((2j * b,), _DEN, phi))

    m0_plus = ClosedForm(
        [
            [pcell(-4, 2, 2), pcell(6, -4, -2)],
            [pcell(-3, 1, 2), pcell(4, -2, -2)],
        ]
    )

    m0 = m0_plus + m0_minus
    lambda0 = ClosedForm.mobius_power_diag((1, 0))
    g1 = lambda0 + m0
    f_plus = ClosedForm.constant(F_PLUS)
    f_minus = ClosedForm.constant(F_MINUS)
    return ExampleInstance(
        phi=phi,
        psi=psi,
        F=f_minus @ lambda0 @ f_plus,
        F_minus=f_minus,
        F_plus=f_plus,
        Lambda0=lambda0,
        G_phi=f_minus @ g1 @ f_plus,
        G1=g1,
        M0=m0,
        M0_plus=m0_plus,
        M0_minus=m0_minus,
    )


@dataclass(frozen=True)
class VariantSpec:
    id: int
    phi: float
    c0: np.ndarray
    predicted_M1_infinity: np.ndarray


def variant_constant(variant_id: int, phi: float) -> VariantSpec:
    """C0 = psi * B_id and the squared prediction for M1 at infinity.

    A non-finite phi raises a ValueError.
    """
    variant_id = as_integer(variant_id, "variant")
    if not 0 <= variant_id < len(B_MATRICES):
        raise ValueError(f"variant must be one of 0..{len(B_MATRICES) - 1}, got {variant_id}")
    phi = _finite_phi(phi)
    c0 = (math.expm1(-phi) * B_MATRICES[variant_id]).astype(complex)
    return VariantSpec(
        id=variant_id,
        phi=phi,
        c0=c0,
        predicted_M1_infinity=node_matmul(c0, c0),
    )


# Grid the route cross-check runs on.  The spectral tail of the example
# densities folds into every node of a coarse grid, so the check needs a
# fine one regardless of the grid the caller wants samples on; 2**19 nodes
# push the median route disagreement below 1e-6 for phi <= 1.
_CHECK_GRID_N = 1 << 19
_KAPPAS = np.array([1, 0])  # the exponents of Lambda0 = diag(w, 1)
_check_grid: Optional[MobiusGrid] = None
_checked_phis: set = set()


def _route_gap_median(instance: ExampleInstance, e_full: np.ndarray,
                      c0: np.ndarray, g: MobiusGrid) -> float:
    """Median over the nodes of g of the largest entry-wise gap between routes.

    M0 is sampled once on the whole grid, node-last, and the quadrature
    route solves the step for it with the known exponents (1, 0) of
    Lambda0. The exact route works one block of nodes at a time: M0- is
    sampled on the block's nodes only (it has two distinct entries and four
    quotients, M0+ eight), and from it and M0 come N1- = M0- + C0,
    N1+ = diag(conj w, 1)(M0 - N1-) and their eight entry gaps to the
    solver's factors. The check so holds three full (2, 2, N) arrays: M0
    and the solver's two factors.
    """
    x = g.x_nodes
    m0 = np.moveaxis(instance.M0(x), 0, -1)
    step = rbvp.solve_step(SampledMatrixFunction.node_last(g, m0, instance.M0),
                           _KAPPAS, e_full[1:, :])
    n_plus, n_minus = step.n_plus.data, step.n_minus.data
    c = c0[..., None]
    gap = np.empty(g.n_points)
    for k in range(0, g.n_points, _BLOCK):
        s = slice(k, k + _BLOCK)
        minus = np.moveaxis(instance.M0_minus(x[s]), 0, -1)  # M0- on the block
        minus += c  # the exact N1-
        plus = m0[..., s] - minus
        plus[0] *= np.conj(g.w_nodes[s])  # the exact N1+
        np.subtract(n_plus[..., s], plus, out=plus)
        np.subtract(n_minus[..., s], minus, out=minus)
        # largest of the eight entry gaps; a NaN at a node carries through
        np.abs(plus).max(axis=(0, 1), out=gap[s])
        np.maximum(gap[s], np.abs(minus).max(axis=(0, 1)), out=gap[s])
    return float(np.median(gap, overwrite_input=True))


def _cross_check_routes(instance: ExampleInstance, variant: VariantSpec) -> None:
    """Compare the generic step solver against the closed-form split.

    The solver gets E = C0 - psi*B0, the split's canonical-frame constant.
    A convention fault (wrong Plemelj sign, misplaced constant, wrong row
    scaling) offsets the two routes by O(phi) at essentially every node.
    Discretization noise is different: it is a folded spectral tail, small
    in median but with slowly decaying outliers. The gate therefore bounds
    the median node-wise gap by 1e-6 on a fixed fine grid; the result is
    cached per phi since the gap does not depend on the variant constant
    (both routes carry it exactly). A non-finite median, from a NaN or an
    infinity at some node, fails the gate too, and a failed gate raises
    NumericalError. The solver gets M0 sampled on the whole grid and never
    computes the mode sums, which the check does not read; the exact
    factors are formed block by block, from M0 and from M0- sampled on each
    block's nodes, so the check holds three full (2, 2, N) arrays at once
    (see _route_gap_median). figure_data runs this gate for every phi.
    """
    global _check_grid
    if instance.phi in _checked_phis:
        return
    if _check_grid is None:
        _check_grid = MobiusGrid.build(_CHECK_GRID_N)
    c0 = variant.c0
    e_full = c0 - (instance.psi * B_MATRICES[0]).astype(complex)
    median = _route_gap_median(instance, e_full, c0, _check_grid)
    if not median <= 1e-6:
        verdict = "above 1e-6" if math.isfinite(median) else "is not finite"
        raise NumericalError(
            "closed-form and quadrature factor routes disagree "
            f"(median gap {median:.3g} {verdict} on {_check_grid.n_points} nodes): "
            "quadrature/convention fault"
        )
    _checked_phis.add(instance.phi)


def first_step_factors(instance: ExampleInstance, variant: VariantSpec,
                       grid: MobiusGrid) -> rbvp.Step:
    """First factor terms from the closed-form split, sampled on grid.

    Only closed forms are evaluated: N1+ and N1- are the exact split with
    constant C0, and the step carries the equivalent canonical free
    constant E = C0 - psi*B0 (first row zero by the shared-row structure).
    Infinity data on the returned step is exact. The quadrature solver is
    checked against this split by _cross_check_routes, which figure_data
    runs for every phi.
    """
    if not math.isclose(instance.phi, variant.phi, rel_tol=0.0, abs_tol=1e-14):
        raise ValueError(
            f"instance (phi={instance.phi}) and variant (phi={variant.phi}) disagree"
        )
    c0 = variant.c0
    psi_b0 = (instance.psi * B_MATRICES[0]).astype(complex)
    e_full = c0 - psi_b0  # canonical-frame constant; row 0 is exactly zero

    n1p_cf = ClosedForm.mobius_power_diag((-1, 0)) @ (instance.M0_plus - ClosedForm.constant(c0))
    n1m_cf = instance.M0_minus + ClosedForm.constant(c0)
    return rbvp.Step(
        n_plus=sample(n1p_cf, grid),
        n_minus=sample(n1m_cf, grid),
        constant=e_full,
        kappas=_KAPPAS.copy(),
        c0=sample(instance.M0, grid).data.mean(axis=-1),
        plus_sum=-psi_b0,  # exact plus-part value at infinity of the split density
        limit=np.zeros((2, 2), dtype=complex),
    )


FIGURE_COLUMNS = (
    "variant",
    "phi",
    "x",
    "p",
    "q",
    "re_norm",
    "im_norm",
    "abs_norm",
    "x_abs_norm",
)


def first_remainder(variant_id: int, phi: float, grid: MobiusGrid) -> SampledMatrixFunction:
    """M1 = -N1- N1+ on the grid, carried with its closed form."""
    sol = first_step_factors(build_example(phi), variant_constant(variant_id, phi), grid)
    return -(sol.n_minus @ sol.n_plus)


def figure_data(variant: int, phis, grid: MobiusGrid):
    """Normalized first-remainder table, each phi gated by the route cross-check.

    Returns (FIGURE_COLUMNS, rows) where each row is
    (variant, phi, x, p, q, Re m_pq/phi^2, Im m_pq/phi^2, |m_pq|/phi^2,
    x*|m_pq|/phi^2) with 1-based p, q; rows ordered by phi, then (p, q),
    then node. Each phi's instance passes _cross_check_routes before its
    rows are formed; a failed gate raises NumericalError.
    """
    vid = as_integer(variant, "variant")
    phis = [float(p) for p in phis]
    if not phis:
        raise ValueError("phis must be nonempty")
    if not all(0 < p < math.inf for p in phis):
        raise ValueError("each phi must be positive and finite")
    x = grid.x_nodes
    blocks = []
    for phi in phis:
        inst, vs = build_example(phi), variant_constant(vid, phi)
        _cross_check_routes(inst, vs)
        sol = first_step_factors(inst, vs, grid)
        m1 = -(sol.n_minus @ sol.n_plus)
        scaled = m1.data / phi**2
        for p in range(2):
            for q in range(2):
                col = scaled[p, q]
                a = np.abs(col)
                blocks.append(
                    np.column_stack(
                        [
                            np.full(x.shape, float(vid)),
                            np.full(x.shape, phi),
                            x,
                            np.full(x.shape, float(p + 1)),
                            np.full(x.shape, float(q + 1)),
                            col.real,
                            col.imag,
                            a,
                            x * a,
                        ]
                    )
                )
    return FIGURE_COLUMNS, np.vstack(blocks)
