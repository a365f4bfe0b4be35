"""Index profiles and the scalar/matrix boundary value problems of one step."""

import numpy as np
import pytest

from whfactor import cauchy, rbvp
from whfactor.evaluators import ClosedForm, Term
from whfactor.grid import MobiusGrid, SampledMatrixFunction, sample


def test_split_indices_basic():
    p = rbvp.split_indices((1, 0))
    assert (p.indices, p.s, p.k, p.n) == ((1, 0), 0, 1, 2)
    assert p.stable
    assert np.array_equal(p.shifted_kappas(), [1, 0])


def test_split_indices_shift():
    p = rbvp.split_indices((2, 1, 1))
    assert (p.s, p.k) == (1, 1)
    assert np.array_equal(p.shifted_kappas(), [1, 0, 0])
    q = rbvp.split_indices((3, 3))
    assert (q.s, q.k) == (3, 0)
    assert np.array_equal(q.shifted_kappas(), [0, 0])
    r = rbvp.split_indices((-1, -2))
    assert (r.s, r.k) == (-2, 1)


def test_split_indices_rejects_unstable():
    with pytest.raises(rbvp.UnstableIndicesError, match="unstable partial indices"):
        rbvp.split_indices((2, 0))
    with pytest.raises(rbvp.UnstableIndicesError, match="kappa_1 - kappa_n = 3"):
        rbvp.split_indices((1, 1, -2))


def test_split_indices_rejects_malformed():
    with pytest.raises(ValueError):
        rbvp.split_indices(())
    with pytest.raises(ValueError):
        rbvp.split_indices((0, 1))  # must be non-increasing
    with pytest.raises(ValueError):
        rbvp.split_indices((1.5, 0.5))


def test_shift_density():
    g = MobiusGrid.build(128)
    cf = ClosedForm([[(Term((1.0,), (2j, 1.0)),)]])
    m = sample(cf, g)
    shifted = rbvp.shift_density(m, 2)
    assert np.allclose(shifted.samples, m.samples * np.conj(g.w_nodes)[:, None, None] ** 2)
    # the carried closed form agrees with the samples
    assert shifted.closed_form is not None
    assert np.allclose(shifted.closed_form(g.x_nodes), shifted.samples, atol=1e-12)


def test_scalar_index1_pole_density():
    # m = 1/(t+i) = (1 - w)/(2i): n+ = i/2 and n- = -i/2, both constant
    g = MobiusGrid.build(256)
    sol = rbvp.solve_scalar_index1(1.0 / (g.x_nodes + 1j), g)
    assert np.allclose(sol.n_plus.samples[:, 0, 0], 0.5j, atol=1e-13)
    assert np.allclose(sol.n_minus.samples[:, 0, 0], -0.5j, atol=1e-13)
    assert sol.kappas.tolist() == [1] and sol.constant.tolist() == [[0]]


def test_scalar_index1_plus_part_at_i():
    # n+ is analytic at the normalization point: n+(i) = i/2 for m = 1/(x+i),
    # the limit (1/N) sum_j conj(w_j) m_j of v^(-1) Omega0+[m](z)
    g = MobiusGrid.build(256)
    sol = rbvp.solve_scalar_index1(1.0 / (g.x_nodes + 1j), g)
    assert abs(sol.evaluate_plus(1j)[0, 0] - 0.5j) < 1e-12
    assert abs(sol.evaluate_plus(1j + 1e-7)[0, 0] - 0.5j) < 1e-12


def test_scalar_index1_boundary_identity():
    g = MobiusGrid.build(512)
    rng = np.random.default_rng(21)
    m = np.zeros(512, dtype=complex)
    for p in range(-8, 9):
        m += (rng.standard_normal() + 1j * rng.standard_normal()) * g.w_nodes**p
    sol = rbvp.solve_scalar_index1(m, g)
    n_plus, n_minus = sol.n_plus.samples[:, 0, 0], sol.n_minus.samples[:, 0, 0]
    assert np.allclose(g.w_nodes * n_plus + n_minus, m, atol=1e-12)


def test_scalar_index1_rejects_forced_constant():
    g = MobiusGrid.build(64)
    with pytest.raises(rbvp.ForcedConstantError):
        rbvp.solve_scalar_index1(1.0 / (g.x_nodes + 1j), g, c_forced=0.3)


def test_scalar_index0_constant_freedom():
    g = MobiusGrid.build(128)
    m = 1.0 / (g.x_nodes**2 + 4) + 0j
    base = rbvp.solve_scalar_index0(m, g)
    moved = rbvp.solve_scalar_index0(m, g, c_free=1.5 - 2j)
    assert np.allclose(base.n_plus.samples + base.n_minus.samples, m[:, None, None], atol=1e-13)
    assert np.allclose(moved.n_plus.samples, base.n_plus.samples - (1.5 - 2j), atol=1e-13)
    assert np.allclose(moved.n_minus.samples, base.n_minus.samples + (1.5 - 2j), atol=1e-13)
    assert moved.kappas.tolist() == [0] and moved.constant.tolist() == [[1.5 - 2j]]


def _step_inputs(n_points=512, seed=31):
    g = MobiusGrid.build(n_points)
    lam = sample(ClosedForm.mobius_power_diag((1, 0)), g)
    rng = np.random.default_rng(seed)
    samples = np.zeros((n_points, 2, 2), dtype=complex)
    for p in range(-6, 7):
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        samples += c * (g.w_nodes**p)[:, None, None]
    return g, lam, SampledMatrixFunction(g, samples)


def test_solve_step_boundary_identity():
    g, lam, m = _step_inputs()
    e = np.array([[0.7, -1j]])
    sol = rbvp.solve_step(m, [1, 0], e)
    lhs = lam.samples @ sol.n_plus.samples + sol.n_minus.samples
    assert np.abs(lhs - m.samples).max() < 1e-12
    assert np.array_equal(sol.kappas, [1, 0])
    assert np.allclose(sol.constant[0], 0.0)
    assert np.allclose(sol.constant[1], e[0])
    assert sol.density is m


def test_solve_step_forced_row_is_scaled():
    g, lam, m = _step_inputs()
    sol = rbvp.solve_step(m, [1, 0], np.zeros((1, 2)))
    plus, _, _ = cauchy.mode_split(m.samples)
    assert np.allclose(sol.n_plus.samples[:, 0, :], np.conj(g.w_nodes)[:, None] * plus[:, 0, :], atol=1e-12)
    assert np.allclose(sol.n_plus.samples[:, 1, :], plus[:, 1, :], atol=1e-12)


def test_solve_step_validates_inputs():
    g, lam, m = _step_inputs(128)
    with pytest.raises(ValueError, match="shape"):
        rbvp.solve_step(m, [1, 0], np.zeros((2, 2)))
    # the solver checks the exponents it is given ...
    with pytest.raises(ValueError, match="stable-case scope"):
        rbvp.solve_step(m, [2, 0], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="non-increasing"):
        rbvp.solve_step(m, [0, 1], np.zeros((1, 2)))
    # ... and detect_kappas those of a sampled Lambda0+
    full = SampledMatrixFunction(g, np.ones((128, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="diagonal"):
        rbvp.detect_kappas(full)
    wrong_diag = sample(ClosedForm.mobius_power_diag((2, 0)), g)
    with pytest.raises(ValueError, match="stable-case scope"):
        rbvp.detect_kappas(wrong_diag)
    increasing = sample(ClosedForm.mobius_power_diag((0, 1)), g)
    with pytest.raises(ValueError, match="non-increasing"):
        rbvp.detect_kappas(increasing)


def test_solve_step_limit_from_closed_form():
    g = MobiusGrid.build(256)
    c = np.array([[0.5, 1j], [2.0, -1.0]])
    cf = ClosedForm.constant(c) + ClosedForm([[(Term((1.0,), (1j, 1.0)),), ()], [(), ()]])
    m = sample(cf, g)
    sol = rbvp.solve_step(m, [1, 0], np.zeros((1, 2)))
    assert np.allclose(sol.limit, c, atol=1e-14)


def test_solve_step_half_plane_handles():
    g, lam, m = _step_inputs(256)
    sol = rbvp.solve_step(m, [1, 0], np.zeros((1, 2)))
    up = sol.evaluate_plus(2j)
    dn = sol.evaluate_minus(-2j)
    assert up.shape == (2, 2) and np.all(np.isfinite(up))
    assert dn.shape == (2, 2) and np.all(np.isfinite(dn))
    with pytest.raises(ValueError):
        sol.evaluate_plus(-1j)


def test_solve_step_with_shared_modes_and_kappas_is_identical():
    g, lam, m = _step_inputs(257)
    e = np.array([[0.7, -1j]])
    own = rbvp.solve_step(m, [1, 0], e)
    shared = rbvp.solve_step(m, rbvp.detect_kappas(lam), e, cauchy.step_modes(m.samples))
    for field in ("constant", "kappas", "c0", "plus_sum", "limit"):
        assert np.array_equal(getattr(shared, field), getattr(own, field)), field
    assert np.array_equal(shared.n_plus.samples, own.n_plus.samples)
    assert np.array_equal(shared.n_minus.samples, own.n_minus.samples)


def test_solve_step_rejects_mismatched_modes_and_kappas():
    g, lam, m = _step_inputs(257)
    e = np.zeros((1, 2))
    with pytest.raises(ValueError, match="kappas must have shape"):
        rbvp.solve_step(m, np.array([1, 0, 0]), e)
    other = cauchy.step_modes(_step_inputs(256)[2].samples)
    with pytest.raises(ValueError, match="modes are for samples"):
        rbvp.solve_step(m, rbvp.detect_kappas(lam), e, other)


def test_solve_step_leaves_supplied_modes_alone():
    g, lam, m = _step_inputs(257)
    e = np.array([[0.7, -1j]])
    modes = cauchy.step_modes(m.samples)
    plus, minus = modes.plus.copy(), modes.minus.copy()
    kappas = rbvp.detect_kappas(lam)
    first = rbvp.solve_step(m, kappas, e, modes)
    second = rbvp.solve_step(m, kappas, e, modes)
    assert np.array_equal(first.n_plus.samples, second.n_plus.samples)
    assert np.array_equal(first.n_minus.samples, second.n_minus.samples)
    assert np.array_equal(modes.plus, plus)
    assert np.array_equal(modes.minus, minus)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_detect_kappas_rejects_non_finite_off_diagonal(bad):
    g = MobiusGrid.build(64)
    samples = sample(ClosedForm.mobius_power_diag((1, 0)), g).samples.copy()
    samples[17, 1, 0] = bad
    with pytest.raises(ValueError, match="diagonal"):
        rbvp.detect_kappas(SampledMatrixFunction(g, samples))


def test_detect_kappas_rejects_non_finite_diagonal():
    g = MobiusGrid.build(64)
    samples = sample(ClosedForm.mobius_power_diag((1, 0)), g).samples.copy()
    samples[5, 1, 1] = np.nan
    with pytest.raises(ValueError, match="neither 1 nor"):
        rbvp.detect_kappas(SampledMatrixFunction(g, samples))


@pytest.mark.parametrize("kappa", [0, 1])
def test_detect_kappas_keeps_allclose_tolerance(kappa):
    # accepted iff |d - target| <= 1e-9 + 1e-5 |target| at every node, as
    # np.allclose(d, target, atol=1e-9) decides: 1.00005e-5 off passes only
    # through the sum of both tolerances, 1.00015e-5 off fails
    g = MobiusGrid.build(64)
    target = g.w_nodes if kappa else np.ones(64, dtype=complex)
    for rel, ok in ((1.00005e-5, True), (-1.00005e-5, True), (1.00015e-5, False), (-1.00015e-5, False)):
        d = target * (1 + rel)
        assert np.allclose(d, target, atol=1e-9) == ok
        lam = SampledMatrixFunction(g, d[:, None, None])
        if ok:
            assert rbvp.detect_kappas(lam).tolist() == [kappa]
        else:
            with pytest.raises(ValueError, match="neither 1 nor"):
                rbvp.detect_kappas(lam)
    d = target.copy()
    d[9] = np.inf
    with pytest.raises(ValueError, match="neither 1 nor"):
        rbvp.detect_kappas(SampledMatrixFunction(g, d[:, None, None]))
