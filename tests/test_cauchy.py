"""Jump operators, off-line Cauchy evaluation, resampling, the jump problem and its parts."""

import tracemalloc

import numpy as np
import pytest

from whfactor import cauchy, rbvp
from whfactor.evaluators import ClosedForm, Term
from whfactor.grid import MobiusGrid, SampledMatrixFunction, sample


def _trig_smf(grid, rng, band=10, dims=(2, 2)):
    """Random trigonometric polynomial with known circle modes."""
    coeffs = {}
    n = grid.n_points
    samples = np.zeros((n,) + dims, dtype=complex)
    for p in range(-band, band + 1):
        c = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        coeffs[p] = c
        samples += c * (grid.w_nodes**p)[:, None, None]
    return SampledMatrixFunction(grid, samples), coeffs


def test_mode_split_recovers_band():
    g = MobiusGrid.build(128)
    rng = np.random.default_rng(2)
    m, coeffs = _trig_smf(g, rng)
    plus, minus, c0 = cauchy.mode_split(m.samples)
    w = g.w_nodes[:, None, None]
    plus_true = sum(coeffs[p] * w**p for p in range(1, 11))
    minus_true = sum(coeffs[p] * w**p for p in range(-10, 0))
    assert np.allclose(plus, plus_true, atol=1e-12)
    assert np.allclose(minus, minus_true, atol=1e-12)
    assert np.allclose(c0, coeffs[0], atol=1e-13)


def test_plemelj_jump_exact_at_nodes():
    g = MobiusGrid.build(512)
    rng = np.random.default_rng(4)
    m, _ = _trig_smf(g, rng, band=60)
    plus, minus, c0 = cauchy.mode_split(m.samples)
    om_plus, om_minus = plus, -minus - c0  # the boundary values Omega0+-[m]
    gap = np.abs(om_plus - om_minus - m.samples).max()
    assert gap < 1e-12


def test_s0_relations():
    g = MobiusGrid.build(256)
    rng = np.random.default_rng(6)
    m, _ = _trig_smf(g, rng)
    plus, minus, c0 = cauchy.mode_split(m.samples)
    om_plus, om_minus = plus, -minus - c0
    s0 = cauchy.singular_S0(m)
    assert np.allclose(2 * om_plus, m.samples + s0.samples, atol=1e-12)
    assert np.allclose(2 * om_minus, -m.samples + s0.samples, atol=1e-12)


def test_s0_eigenfunctions():
    g = MobiusGrid.build(128)
    w = g.w_nodes[:, None, None]
    plus = SampledMatrixFunction(g, w**3)
    minus = SampledMatrixFunction(g, w**-2)
    const = SampledMatrixFunction(g, np.ones((128, 1, 1)) * (2.0 - 1j))
    assert np.allclose(cauchy.singular_S0(plus).samples, plus.samples, atol=1e-13)
    assert np.allclose(cauchy.singular_S0(minus).samples, -minus.samples, atol=1e-13)
    assert np.allclose(cauchy.singular_S0(const).samples, -const.samples, atol=1e-13)


def test_corrected_operator_normalizations():
    # Omega0+ vanishes at z=i; the value at z=-i is minus the zero mode.
    g = MobiusGrid.build(512)
    rng = np.random.default_rng(8)
    m, coeffs = _trig_smf(g, rng, band=20)
    assert np.abs(cauchy.cauchy_off_line(m, 1j)).max() < 1e-13
    assert np.allclose(cauchy.cauchy_off_line(m, -1j), -coeffs[0], atol=1e-12)


def test_off_line_residue_oracle():
    # density 1/(t^2+4): values from residue calculus, Omega0 = Omega - Omega(i)
    g = MobiusGrid.build(2048)
    cf = ClosedForm([[(Term((1.0,), (4.0, 0.0, 1.0)),)]])
    m = sample(cf, g)

    def omega0_upper(z):
        return 1.0 / (z**2 + 4) + 1.0 / (4j * (2j - z)) - 1.0 / 12

    def omega0_lower(z):
        return 1.0 / (4j * (2j - z)) - 1.0 / 12

    for z in (2.5j, -1.5j, 1.0 + 1j, -2.0 - 3j):
        want = omega0_upper(z) if z.imag > 0 else omega0_lower(z)
        got = cauchy.cauchy_off_line(m, z)[0, 0]
        assert abs(got - want) < 1e-10, (z, got, want)


def test_off_line_accuracy_guard():
    g = MobiusGrid.build(512)
    m = sample(ClosedForm([[(Term((1.0,), (1j, 1.0)),)]]), g)
    with pytest.raises(cauchy.AccuracyError):
        cauchy.cauchy_off_line(m, 0.02j)
    # far from the line in Im but large Re widens the exclusion band
    with pytest.raises(cauchy.AccuracyError):
        cauchy.cauchy_off_line(m, 50.0 + 5j)


def test_resample_with_closed_form_is_exact():
    g = MobiusGrid.build(64)
    cf = ClosedForm([[(Term((1.0, 0.5), (2j, 1.0)),)]])
    m = sample(cf, g)
    fine = cauchy.resample(m, 4)
    direct = sample(cf, MobiusGrid.build(256))
    assert fine.samples.shape == (256, 1, 1)
    assert np.allclose(fine.samples, direct.samples, atol=1e-14)


def test_resample_zero_padded_modes():
    g = MobiusGrid.build(64)
    f = lambda x: 1.0 / (x**2 + 4)
    m = SampledMatrixFunction(g, f(g.x_nodes)[:, None, None].astype(complex))
    fine = cauchy.resample(m, 2)
    g2 = MobiusGrid.build(128)
    assert np.allclose(fine.samples[:, 0, 0], f(g2.x_nodes), atol=1e-12)


def test_a_resample_holds_only_its_output():
    # each entry is carried inside its own row of the fine array, so no
    # spectrum of the samples is held next to it; the fine grid is built
    # beforehand, as residual_sup_at builds one for all its operands
    g, fine_grid = MobiusGrid.build(65536), MobiusGrid.build(2 * 65536)
    rng = np.random.default_rng(3)
    m = SampledMatrixFunction.node_last(g, rng.standard_normal((2, 2, 65536))
                                        + 1j * rng.standard_normal((2, 2, 65536)))
    cauchy._resample_to(m, fine_grid)  # fills the twiddle caches
    tracemalloc.start()
    try:
        fine = cauchy._resample_to(m, fine_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * fine.data.nbytes, f"peak {peak / fine.data.nbytes:.2f} outputs"


def test_resample_factor_one_is_identity():
    g = MobiusGrid.build(32)
    m = SampledMatrixFunction(g, np.random.default_rng(0).standard_normal((32, 1, 1)) + 0j)
    same = cauchy.resample(m, 1)
    assert np.allclose(same.samples, m.samples)
    # a fractional factor is refused, not truncated
    assert cauchy.resample(m, 2.0).grid.n_points == 64
    with pytest.raises(ValueError, match=r"factor must be an integer, got 2\.5"):
        cauchy.resample(m, 2.5)
    with pytest.raises(ValueError, match="factor must be >= 1"):
        cauchy.resample(m, 0)


def test_jump_solution_continuation():
    # pure plus density w: A+ continues to w(z) in the upper half plane, A- is 0;
    # the jump problem A+ + A- = m is the step with every exponent 0
    g = MobiusGrid.build(256)
    m = sample(ClosedForm.mobius_power_diag((1,)), g)
    sol = rbvp.solve_step(m, [0], lambda plus_sum: np.zeros((1, 1)))
    z = 0.5j
    w_z = (z - 1j) / (z + 1j)
    assert abs(sol.evaluate_plus(z)[0, 0] - w_z) < 1e-12
    assert abs(sol.evaluate_minus(-2j)[0, 0]) < 1e-12
    assert abs(sol.plus_at_infinity()[0, 0] - 1.0) < 1e-12
    assert abs(sol.minus_at_infinity()[0, 0]) < 1e-12


def test_jump_constant_freedom():
    g = MobiusGrid.build(128)
    rng = np.random.default_rng(12)
    m, _ = _trig_smf(g, rng, band=5, dims=(2, 2))
    c = np.array([[0.3, -1j], [0.0, 2.0]])
    sol0 = rbvp.solve_step(m, [0, 0], np.zeros((2, 2)))
    solc = rbvp.solve_step(m, [0, 0], c)
    # the constant moves between the parts; the boundary sum is unchanged
    assert np.allclose(solc.n_plus.samples, sol0.n_plus.samples - c)
    assert np.allclose(solc.n_minus.samples, sol0.n_minus.samples + c)
    total = solc.n_plus.samples + solc.n_minus.samples
    assert np.allclose(total, m.samples, atol=1e-12)


def test_half_plane_sign_validation():
    g = MobiusGrid.build(128)
    m = sample(ClosedForm.mobius_power_diag((1,)), g)
    sol = rbvp.solve_step(m, [0], np.zeros((1, 1)))
    with pytest.raises(ValueError):
        sol.evaluate_plus(-1.5j)
    with pytest.raises(ValueError):
        sol.evaluate_minus(1.5j)


def test_reference_densities_bank():
    bank = cauchy.reference_densities()
    assert len(bank) == 8
    x = np.linspace(-5, 5, 11)
    names = set()
    for name, f in bank:
        names.add(name)
        vals = np.asarray(f(x))
        assert vals.shape == x.shape
        assert np.all(np.isfinite(vals))
    assert len(names) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("n_points", [256, 257])
def test_solve_step_transform_equals_separate_transforms(n_points, n):
    # the one transform of a step solved with a block function gives exactly
    # what the three separate ones give: with exponents and constants all
    # zero, N+ is the plus part itself
    rng = np.random.default_rng(100 * n + n_points)
    samples = rng.standard_normal((n_points, n, n)) + 1j * rng.standard_normal((n_points, n, n))
    m = SampledMatrixFunction(MobiusGrid.build(n_points), samples)
    step = rbvp.solve_step(m, np.zeros(n, dtype=int), lambda plus_sum: np.zeros((n, n)))
    plus, _, c0 = cauchy.mode_split(m.samples)
    assert np.array_equal(step.n_plus.samples, plus)
    assert np.array_equal(step.c0, c0)
    assert np.array_equal(step.plus_sum, cauchy.plus_coefficient_sum(m.samples))
    assert np.array_equal(step.limit, cauchy.limit_estimate(m.samples))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("n_points", [256, 257])
def test_split_reproduces_the_density(n_points, n):
    # discrete inversion: plus + minus + c0 = M to a few roundings of max |M|,
    # and the step identity Lambda0+ N+ + N- = M to a few of its terms'
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7 * n + n_points)
    samples = rng.standard_normal((n_points, n, n)) + 1j * rng.standard_normal((n_points, n, n))
    plus, minus, c0 = cauchy.mode_split(samples)
    assert np.abs(plus + minus + c0 - samples).max() <= 4 * eps * np.abs(samples).max()
    g = MobiusGrid.build(n_points)
    m = SampledMatrixFunction(g, samples)
    k = n // 2
    kappas = np.array([1] * k + [0] * (n - k))
    free = rng.standard_normal((n - k, n)) + 1j * rng.standard_normal((n - k, n))
    step = rbvp.solve_step(m, kappas, free)
    lam = np.where(kappas[:, None] == 1, g.w_nodes, 1)  # diag(w^kappas), (n, N)
    lhs = lam[:, None, :] * step.n_plus.data + step.n_minus.data
    scale = max(np.abs(a).max() for a in (m.data, step.n_plus.data, step.n_minus.data))
    assert np.abs(lhs - m.data).max() <= 4 * eps * scale


@pytest.mark.parametrize("n_points", [1, 2, 64, 257, 2048])
def test_twiddles_are_cached_bit_for_bit(n_points):
    p = np.rint(np.fft.fftfreq(n_points) * n_points).astype(int)
    assert np.array_equal(cauchy._signed_modes(n_points), p)
    for args, want in (((), np.exp(-1j * np.pi * p / n_points)),
                       ((3 * n_points,), np.exp(1j * np.pi * p / (3 * n_points)))):
        got = cauchy._twiddles(n_points, *args)
        assert got.view(float).tobytes() == want.view(float).tobytes()
        assert cauchy._twiddles(n_points, *args) is got and not got.flags.writeable
    info = cauchy._twiddles.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_limit_or_estimate_prefers_closed_form():
    g = MobiusGrid.build(128)
    c = np.array([[0.5, 1j], [2.0, -1.0]])
    settling = sample(ClosedForm.constant(c) + ClosedForm([[(Term((1.0,), (1j, 1.0)),), ()], [(), ()]]), g)
    estimate = np.full((2, 2), 7.0 + 0j)
    assert np.array_equal(cauchy.limit_or_estimate(settling, estimate), c)
    # an oscillating closed form, or none at all, falls back to the estimate
    oscillating = sample(ClosedForm([[(Term((1.0,), (1.0,), 2.0),)]]), g)
    assert np.array_equal(cauchy.limit_or_estimate(oscillating, estimate[:1, :1]), estimate[:1, :1])
    bare = SampledMatrixFunction(g, settling.samples)
    assert np.array_equal(cauchy.limit_or_estimate(bare, estimate), estimate)


@pytest.mark.parametrize("z", [0.0, 0.5, -3.0 + 0j])
def test_cauchy_off_line_refuses_a_real_z(z):
    m = sample(ClosedForm.identity(2), MobiusGrid.build(64))
    with pytest.raises(ValueError, match=r"^z must lie off the real line$"):
        cauchy.cauchy_off_line(m, z)
