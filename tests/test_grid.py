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
    node_det,
    node_matmul,
    node_sum,
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
    # a fractional size is refused, not truncated; a whole float is taken
    assert MobiusGrid.build(256.0).n_points == 256
    with pytest.raises(ValueError, match=r"n_points must be an integer, got 256\.9"):
        MobiusGrid.build(256.9)
    with pytest.raises(ValueError, match="at least 4"):
        MobiusGrid.build(3)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=rf"n_points must be an integer, got {bad}"):
            MobiusGrid.build(bad)


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

    assert c_mu_lower_bound(MobiusGrid.build(1024), 0.5) == 1.2091843126627917


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])  # 8 and up take numpy's pairwise path
def test_matrix_norm_equals_reductions(n):
    rng = np.random.default_rng(n)
    for shape in ((n, n), (300, n, n)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a *= np.exp(rng.uniform(-20, 20, shape))  # wide magnitudes expose any reordering
        want = np.abs(a).sum(axis=-1).max(axis=-1)
        got = matrix_norm(a)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    a[7, n - 1, 0] = np.nan
    got = matrix_norm(a)
    assert np.isnan(got[7]) and np.isfinite(np.delete(got, 7)).all()


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_matmul_is_the_fixed_order_sum(n):
    rng = np.random.default_rng(10 + n)
    for lead in ((), (300,)):
        for k, m in ((n, n), (n + 1, 2)):
            a = _random_complex(rng, lead + (n, k))
            b = _random_complex(rng, lead + (k, m))
            want = np.empty(lead + (n, m), dtype=complex)
            for i in range(n):
                for j in range(m):
                    acc = a[..., i, 0] * b[..., 0, j]
                    for l in range(1, k):
                        acc = acc + a[..., i, l] * b[..., l, j]
                    want[..., i, j] = acc
            got = node_matmul(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            # BLAS rounds differently, but only at the scale of the terms
            assert np.all(np.abs(got - a @ b) <= 1e-14 * (np.abs(a) @ np.abs(b)))


def test_node_matmul_rejects_mismatched_shapes():
    a2, a3 = np.ones((2, 2)), np.ones((5, 2, 2))
    for a, b in ((np.ones((2, 3)), np.ones((2, 3))),  # inner sizes differ
                 (a3, a2), (a2, a3),  # a stack times a single matrix
                 (a3, np.ones((4, 2, 2))),  # different node counts
                 (np.ones(2), np.ones(2)), (np.ones((1, 5, 2, 2)),) * 2,
                 (np.ones((2, 0)), np.ones((0, 2)))):
        with pytest.raises(ValueError):
            node_matmul(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_det_matches_lapack(n):
    rng = np.random.default_rng(20 + n)
    a = _random_complex(rng, (400, n, n))
    a[0] = 0.0  # a zero matrix: no pivot in any column
    singular = [0]
    if n > 1:
        a[1, :, 0] = 0.0  # an all-zero first column
        a[2, 1] = a[2, 0]  # two equal rows
        a[3, 0, 0] = 0.0  # a zero leading entry forces a row swap
        a[4] = np.eye(n)[::-1]  # a permutation matrix: determinant exactly +-1
        singular += [1, 2]
    got = node_det(a)
    want = np.linalg.det(a)
    assert got.shape == (400,) and np.isfinite(got).all()
    # exactly 0 on the singular nodes, where LAPACK may leave a rounding residue
    assert np.all(got[singular] == 0) and np.abs(want[singular]).max() < 1e-13
    if n > 1:
        assert got[4] == want[4]
    np.testing.assert_allclose(np.delete(got, singular), np.delete(want, singular),
                               rtol=1e-12, atol=0)
    for bad in (np.ones((3, n, n + 1)), np.ones((n, n))):  # not square; not a stack
        with pytest.raises(ValueError):
            node_det(bad)


@pytest.mark.parametrize("shape", [(257,), (257, 1, 1), (257, 3, 3)])
def test_node_sum_matches_tensordot(shape):
    rng = np.random.default_rng(len(shape))
    w = _random_complex(rng, shape[:1])
    s = _random_complex(rng, shape)
    got = node_sum(w, s)
    assert np.array_equal(got, (w.reshape(shape[:1] + (1,) * (len(shape) - 1)) * s).sum(axis=0))
    np.testing.assert_allclose(got, np.tensordot(w, s, axes=(0, 0)), rtol=1e-14, atol=0)
    with pytest.raises(ValueError):
        node_sum(w[1:], s)
