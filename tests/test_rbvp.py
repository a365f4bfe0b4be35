"""Index profiles and the scalar/matrix boundary value problems of one step."""

import numpy as np
import pytest

from whfactor import cauchy, engine, example2x2, rbvp
from whfactor.evaluators import ClosedForm, Term
from whfactor.grid import MobiusGrid, SampledMatrixFunction, sample


def test_split_indices_basic():
    p = rbvp.split_indices((1, 0))
    assert (p.indices, p.s, p.k, p.n) == ((1, 0), 0, 1, 2)
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


def test_split_indices_refuses_non_integers():
    # inf and nan give a ValueError, not an OverflowError, and True is not read as index 1
    with pytest.raises(ValueError, match="partial indices must be integers"):
        rbvp.split_indices((1.5, 0.5))
    for bad in ((float("inf"),), (float("nan"), 0), (True, 0)):
        with pytest.raises(ValueError, match="partial indices must be integers"):
            rbvp.split_indices(bad)


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


def test_scalar_index1_forces_a_zero_constant():
    # analyticity of n+ at z = i leaves no choice: the constant is exactly 0
    g = MobiusGrid.build(64)
    sol = rbvp.solve_scalar_index1(1.0 / (g.x_nodes + 1j), g)
    assert sol.constant.shape == (1, 1) and sol.constant[0, 0] == 0


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
    # ... the profile gives only stable exponents, and a sampled Lambda0+
    # must hold the profile's
    with pytest.raises(rbvp.UnstableIndicesError):
        rbvp.split_indices((2, 0))
    kappas = rbvp.split_indices((1, 0)).shifted_kappas()
    full = SampledMatrixFunction(g, np.ones((128, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="diagonal exponents"):
        engine._check_lambda0(full, kappas)
    for wrong in ((2, 0), (0, 1)):
        with pytest.raises(ValueError, match="diagonal exponents"):
            engine._check_lambda0(sample(ClosedForm.mobius_power_diag(wrong), g), kappas)


def test_solve_step_limit_from_closed_form():
    g = MobiusGrid.build(256)
    c = np.array([[0.5, 1j], [2.0, -1.0]])
    cf = ClosedForm.constant(c) + ClosedForm([[(Term((1.0,), (1j, 1.0)),), ()], [(), ()]])
    m = sample(cf, g)
    sol = rbvp.solve_step(m, [1, 0], lambda plus_sum: np.zeros((1, 2)))
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


def test_solve_step_with_a_block_function_is_identical():
    # a function of the plus-sum in place of the block, and the profile's
    # exponents in place of a list, solve the same step bit for bit; the
    # function sees the plus-sum the step keeps, and only its step has sums
    g, lam, m = _step_inputs(257)
    e = np.array([[0.7, -1j]])
    own = rbvp.solve_step(m, [1, 0], e)
    seen = []

    def block(plus_sum):
        seen.append(plus_sum)
        return e

    shared = rbvp.solve_step(m, rbvp.split_indices((1, 0)).shifted_kappas(), block)
    for field in ("constant", "kappas", "c0"):
        assert np.array_equal(getattr(shared, field), getattr(own, field)), field
    assert np.array_equal(shared.n_plus.samples, own.n_plus.samples)
    assert np.array_equal(shared.n_minus.samples, own.n_minus.samples)
    assert len(seen) == 1 and np.array_equal(seen[0], shared.plus_sum)
    assert shared.plus_sum is not None and shared.limit is not None
    assert own.plus_sum is None and own.limit is None


def _density(n, grid, form, seed=5):
    """An n x n density: bare trigonometric samples, or a sampled closed form
    that settles at infinity or oscillates there (so has no limit)."""
    rng = np.random.default_rng(seed + n)
    if form == "bare":
        samples = np.zeros((grid.n_points, n, n), dtype=complex)
        for p in range(-5, 6):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            samples += c * (grid.w_nodes**p)[:, None, None]
        return SampledMatrixFunction(grid, samples)
    phase = 0.0 if form == "settling" else 0.7
    coeffs = rng.standard_normal((n, n, 2)) + 1j * rng.standard_normal((n, n, 2))
    cf = ClosedForm([[(Term(tuple(coeffs[i, j]), (1j, 1.0), phase),) for j in range(n)]
                     for i in range(n)])
    return sample(cf, grid)


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("form", ["bare", "settling", "oscillating"])
@pytest.mark.parametrize("n_points", [64, 256, 2048])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_plain_block_step_carries_no_mode_sums(n, n_points, form):
    # a solve with a block function takes the mode sums, with the bits of
    # the public helpers; one with a plain block takes none, and its step
    # has the same factors and None for both sums
    m = _density(n, MobiusGrid.build(n_points), form)
    kappas = [1] * (n - 1) + [0]
    free = np.arange(1, n + 1) * (0.3 - 0.2j)
    eager = rbvp.solve_step(m, kappas, lambda plus_sum: free[None, :])
    assert _same_bytes(eager.plus_sum, cauchy.plus_coefficient_sum(m.samples))
    assert _same_bytes(eager.limit, cauchy.limit_or_estimate(m, cauchy.limit_estimate(m.samples)))
    plain = rbvp.solve_step(m, kappas, free[None, :])
    for name in ("constant", "c0"):
        assert _same_bytes(getattr(plain, name), getattr(eager, name)), name
    for name in ("n_plus", "n_minus"):
        assert _same_bytes(getattr(plain, name).data, getattr(eager, name).data), name
    assert plain.plus_sum is None and plain.limit is None


def test_a_plain_block_step_refuses_its_values_at_infinity():
    # with no plus-sum or limit, c_total and both values at infinity raise
    # one ValueError that says why, not a TypeError on None
    m = sample(example2x2.build_example(0.2).M0, MobiusGrid.build(256))
    plain = rbvp.solve_step(m, [1, 0], np.zeros((1, 2)))
    for read in (lambda: plain.c_total, plain.plus_at_infinity, plain.minus_at_infinity):
        with pytest.raises(ValueError, match="plain free block, so it carries no plus-sum or limit"):
            read()


def test_solve_step_sums_modes_once_and_reads_a_closed_form_limit(monkeypatch):
    # a block-function solve takes one pass of mode sums; its limit comes
    # from the closed form when that has one, else from the estimate; a
    # plain-block solve takes no pass at all
    g = MobiusGrid.build(256)
    settling, oscillating = _density(2, g, "settling"), _density(2, g, "oscillating")
    exact = np.asarray(settling.closed_form.limit_at_infinity(), dtype=complex)
    estimate = cauchy.limit_estimate(oscillating.samples)
    calls = []
    real = cauchy._mode_sums

    def recording(raw):
        calls.append(raw.shape)
        return real(raw)

    def block(plus_sum):
        return np.zeros((1, 2))

    monkeypatch.setattr(cauchy, "_mode_sums", recording)
    assert _same_bytes(rbvp.solve_step(settling, [1, 0], block).limit, exact)
    assert calls == [(2, 2, 256)]
    assert _same_bytes(rbvp.solve_step(oscillating, [1, 0], block).limit, estimate)
    assert calls == [(2, 2, 256)] * 2
    for m in (settling, oscillating):
        rbvp.solve_step(m, [1, 0], np.zeros((1, 2)))
    assert calls == [(2, 2, 256)] * 2


def test_solve_step_rejects_mismatched_kappas_and_blocks():
    g, lam, m = _step_inputs(257)
    e = np.zeros((1, 2))
    with pytest.raises(ValueError, match="kappas must have shape"):
        rbvp.solve_step(m, np.array([1, 0, 0]), e)
    # a block function's block is checked as a plain block is
    with pytest.raises(ValueError, match="free constant block must have shape"):
        rbvp.solve_step(m, [1, 0], lambda plus_sum: plus_sum)


def test_solve_step_leaves_its_inputs_alone():
    # the solve never writes M's samples, and a block function that writes
    # into its plus-sum argument leaves the step's plus_sum alone
    g, lam, m = _step_inputs(257)
    e = np.array([[0.7, -1j]])
    data = m.data.copy()

    def scribbling(plus_sum):
        plus_sum[...] = 1e6
        return e

    first = rbvp.solve_step(m, [1, 0], scribbling)
    assert np.array_equal(m.data, data)
    second = rbvp.solve_step(m, [1, 0], lambda plus_sum: e)
    assert np.array_equal(m.data, data)
    assert _same_bytes(first.plus_sum, second.plus_sum)
    assert _same_bytes(first.plus_sum, cauchy.plus_coefficient_sum(m.samples))
    assert np.array_equal(first.n_plus.samples, second.n_plus.samples)
    assert np.array_equal(first.n_minus.samples, second.n_minus.samples)


@pytest.mark.parametrize("index", [0, 1])
def test_scalar_solvers_keep_their_mode_sums(index):
    # the public scalar solvers choose their block by a function, so their
    # steps carry the sums, with the bits of the public helpers
    g = MobiusGrid.build(512)
    x = g.x_nodes
    m = (1.0 / (x + 1j) + 0.3 * np.exp(1j * x) / (x - 2j)).astype(complex)
    step = (rbvp.solve_scalar_index0(m, g, 0.25j) if index == 0
            else rbvp.solve_scalar_index1(m, g))
    assert step.plus_sum is not None and step.limit is not None
    density = SampledMatrixFunction(g, m[:, None, None])
    s = density.samples
    assert _same_bytes(step.plus_sum, cauchy.plus_coefficient_sum(s))
    assert _same_bytes(step.limit, cauchy.limit_or_estimate(density, cauchy.limit_estimate(s)))
    assert np.all(np.isfinite(step.plus_at_infinity()))
    assert np.all(np.isfinite(step.minus_at_infinity()))
