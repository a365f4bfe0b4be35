"""Grid construction, Moebius maps, sampled-matrix algebra, norms."""

import numpy as np
import pytest

from whfactor.evaluators import ClosedForm, Term
from whfactor.grid import (
    HoelderEstimate,
    MobiusGrid,
    SampledMatrixFunction,
    hoelder_norm,
    matrix_norm,
    mobius_forward,
    mobius_inverse,
    sample,
    sup_norm,
)


def test_nodes_are_midpoints_on_circle():
    g = MobiusGrid.build(64)
    assert g.n_points == 64
    expected = (2 * np.arange(64) + 1) * np.pi / 64
    assert np.allclose(g.theta_nodes, expected)
    assert np.allclose(np.abs(g.w_nodes), 1.0, atol=1e-15)
    # w = 1 (the image of infinity) is never a node
    assert np.abs(g.w_nodes - 1.0).min() > 1e-3


def test_x_nodes_monotone_and_paired():
    g = MobiusGrid.build(128)
    assert np.all(np.diff(g.x_nodes) > 0)
    # midpoint grid is symmetric: x_j = -x_{n-1-j}
    assert np.allclose(g.x_nodes + g.x_nodes[::-1], 0.0, atol=1e-9)


def test_extreme_x_matches_built_grid():
    for n in (64, 2048):
        g = MobiusGrid.build(n)
        assert np.isclose(np.abs(g.x_nodes).max(), MobiusGrid.extreme_x(n), rtol=1e-12)


def test_mobius_round_trip():
    rng = np.random.default_rng(7)
    x = rng.standard_cauchy(200)
    w = mobius_forward(x)
    assert np.allclose(np.abs(w), 1.0, atol=1e-12)
    back = mobius_inverse(w)
    assert np.allclose(back, x, rtol=1e-7, atol=1e-9)


def test_forward_matches_grid_nodes():
    g = MobiusGrid.build(256)
    assert np.allclose(mobius_forward(g.x_nodes), g.w_nodes, atol=1e-9)


def test_spacing_formula():
    g = MobiusGrid.build(4096)
    x = g.x_nodes
    mid = slice(1000, 3000)
    gaps = np.diff(x)[mid]
    predicted = g.spacing_at(0.5 * (x[:-1] + x[1:]))[mid]
    assert np.allclose(gaps, predicted, rtol=1e-3)


def _two_smfs(n=32):
    g = MobiusGrid.build(n)
    rng = np.random.default_rng(11)
    a = SampledMatrixFunction(g, rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    b = SampledMatrixFunction(g, rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    return g, a, b


def test_sampled_algebra():
    g, a, b = _two_smfs()
    assert np.allclose((a + b).samples, a.samples + b.samples)
    assert np.allclose((a - b).samples, a.samples - b.samples)
    assert np.allclose((-a).samples, -a.samples)
    assert np.allclose((a @ b).samples, a.samples @ b.samples)
    assert np.allclose((a * 2.5j).samples, 2.5j * a.samples)
    assert a.dims == (2, 2)


def test_algebra_rejects_mismatched_grids():
    _, a, _ = _two_smfs(32)
    _, c, _ = _two_smfs(64)
    with pytest.raises(ValueError):
        a + c


def test_closed_form_carried_through_algebra():
    g = MobiusGrid.build(64)
    cf = ClosedForm.constant(np.array([[1.0, 0.5], [0.0, 2.0]]))
    a = sample(cf, g)
    b = sample(cf, g)
    assert (a + b).closed_form is not None
    assert (a @ b).closed_form is not None
    z = np.array([0.3, -2.0])
    assert np.allclose((a @ b).closed_form(z), cf(z) @ cf(z))
    # dropping a closed form on one operand drops it on the result
    bare = SampledMatrixFunction(g, b.samples)
    assert (a + bare).closed_form is None


def test_sample_validates_finiteness():
    g = MobiusGrid.build(64)
    x5 = g.x_nodes[5]
    # denominator root placed exactly on a node
    bad = ClosedForm([[(Term((1.0,), (-x5, 1.0)),)]])
    with pytest.raises(ValueError, match="node"):
        sample(bad, g)


def test_matrix_norm_is_max_row_sum():
    a = np.array([[1.0, -2.0], [3.0j, 4.0]])
    assert np.isclose(matrix_norm(a[None])[0], 7.0)
    g = MobiusGrid.build(8)
    s = np.zeros((8, 2, 2), dtype=complex)
    s[3] = a
    assert np.isclose(sup_norm(SampledMatrixFunction(g, s)), 7.0)


def test_hoelder_norm_constant_function():
    g = MobiusGrid.build(128)
    c = np.array([[2.0, 0.0], [0.0, 2.0]])
    f = sample(ClosedForm.constant(c), g)
    est = hoelder_norm(f, 0.5)
    assert isinstance(est, HoelderEstimate)
    assert np.isclose(est.sup_part, 2.0)
    assert est.seminorm_part < 1e-12
    assert np.isclose(est.total, 2.0)


def test_hoelder_seminorm_grows_with_mu():
    # chordal distances are <= 1, so dividing by d^mu grows with mu
    g = MobiusGrid.build(256)
    cf = ClosedForm([[(Term((1.0,), (1j, 1.0)),)]])  # 1/(x+i)
    f = sample(cf, g)
    lo = hoelder_norm(f, 0.3).seminorm_part
    hi = hoelder_norm(f, 0.7).seminorm_part
    assert 0 < lo < hi
    est = hoelder_norm(f, 0.5)
    assert est.total >= est.sup_part


def _pair_scan_seminorm(f, mu_values, rows=64):
    """Brute-force reference: every node pair, by the Hoelder-norm formula."""
    s, w, n = f.samples, f.grid.w_nodes, f.grid.n_points
    best = dict.fromkeys(mu_values, 0.0)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        diff = matrix_norm(s[a:b, None] - s[None, a:])  # pairs (j, k >= j) only
        dist = np.abs(w[a:b, None] - w[None, a:]) / 2
        np.fill_diagonal(dist, 1.0)
        for mu in mu_values:
            best[mu] = max(best[mu], float((diff / dist**mu).max()))
    return best


def _hoelder_inputs(grid, n):
    rng = np.random.default_rng(1000 * grid.n_points + n)
    x = grid.x_nodes[:, None, None]
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    phi = rng.uniform(0.2, 3.0, size=(n, n))
    yield "constant", np.broadcast_to(a, (grid.n_points, n, n))
    yield "smooth", a / (x + 1j)
    yield "oscillatory", np.exp(1j * phi * x) / (x + 1j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("n_points", [64, 100, 257, 1000, 2048])
def test_hoelder_norm_equals_pair_scan(n_points, n):
    g = MobiusGrid.build(n_points)
    mus = (0.1, 0.5, 0.9, 1.0)
    for kind, samples in _hoelder_inputs(g, n):
        f = SampledMatrixFunction(g, samples)
        ref = _pair_scan_seminorm(f, mus)
        for mu in mus:
            assert hoelder_norm(f, mu).seminorm_part == ref[mu], (kind, mu)


def test_c_mu_lower_bound_is_pinned():
    from whfactor.engine import c_mu_lower_bound

    assert c_mu_lower_bound(MobiusGrid.build(1024), 0.5) == 1.2091843126627935
