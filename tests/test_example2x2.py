"""Worked 2x2 family: closed forms, first-step factors, figure tables."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from whfactor import cauchy, engine, evaluators, example2x2, rbvp
from whfactor.evaluators import ClosedForm
from whfactor.grid import MobiusGrid, sample


def test_base_matrix_identity():
    # F = F- diag(w, 1) F+ with det F+- = 1 and the frozen value at x = 0
    inst = example2x2.build_example(0.3)
    g = MobiusGrid.build(256)
    lhs = sample(inst.F, g).samples
    rhs = example2x2.F_MINUS @ sample(inst.Lambda0, g).samples @ example2x2.F_PLUS
    assert np.abs(lhs - rhs).max() < 1e-14
    assert abs(np.linalg.det(example2x2.F_PLUS) - 1.0) < 1e-14
    assert abs(np.linalg.det(example2x2.F_MINUS) - 1.0) < 1e-14
    f0 = inst.F(np.array([0.0]))[0]
    assert np.allclose(f0, [[-3.0, -2.0], [4.0, 3.0]], atol=1e-14)


def test_phi_zero_collapses_to_base():
    inst = example2x2.build_example(0.0)
    x = np.linspace(-50.0, 50.0, 101)
    assert np.abs(inst.M0(x)).max() == 0.0
    assert np.abs(inst.G_phi(x) - inst.F(x)).max() < 1e-14


def test_m0_split_and_values():
    phi = 0.2
    inst = example2x2.build_example(phi)
    x = np.linspace(-30.0, 30.0, 61)
    total = inst.M0_plus(x) + inst.M0_minus(x)
    assert np.abs(inst.M0(x) - total).max() < 1e-14
    # M0 vanishes at the origin and at infinity
    assert np.abs(inst.M0(np.array([0.0]))).max() < 1e-14
    assert np.allclose(inst.M0.limit_at_infinity(), 0.0, atol=1e-15)
    # plus part at z = i is psi * B0
    psi = math.expm1(-phi)
    at_i = inst.M0_plus(np.array([1j]))[0]
    assert np.abs(at_i - psi * example2x2.B_MATRICES[0]).max() < 1e-15


def test_m0_minus_extends_into_lower_half_plane():
    inst = example2x2.build_example(0.4)
    # removable singularity at z = -i: nearby values stay bounded and agree
    near = inst.M0_minus(np.array([-1j + 1e-3, -1j + 1e-6]))
    assert np.all(np.isfinite(near))
    assert np.abs(near[0] - near[1]).max() < 1e-2
    # decay deep in the lower half-plane
    deep = inst.M0_minus(np.array([-40.0j]))
    assert np.abs(deep).max() < 0.2


def test_variant_constants():
    phi = 0.15
    psi = math.expm1(-phi)
    for vid, b in enumerate(example2x2.B_MATRICES):
        vs = example2x2.variant_constant(vid, phi)
        assert vs.id == vid and vs.phi == phi
        assert np.allclose(vs.c0, psi * b, atol=1e-15)
        assert np.allclose(vs.predicted_M1_infinity, vs.c0 @ vs.c0, atol=1e-15)
    # squared structure: B0^2 = -2 I, B1^2 keeps only the first row, B3^2 = 0
    b0, b1, _, b3 = example2x2.B_MATRICES
    assert np.allclose(b0 @ b0, -2.0 * np.eye(2), atol=1e-12)
    assert np.allclose(b1 @ b1, [[16.0, -24.0], [0.0, 0.0]], atol=1e-12)
    assert np.abs(b3 @ b3).max() < 1e-12
    with pytest.raises(ValueError):
        example2x2.variant_constant(4, phi)
    with pytest.raises(ValueError):
        example2x2.variant_constant(-1, phi)


def test_first_step_factors_structure():
    phi = 0.1
    inst = example2x2.build_example(phi)
    vs = example2x2.variant_constant(2, phi)
    g = MobiusGrid.build(1024)
    n_plus, n_minus = example2x2.first_step_factors(inst, vs, g)
    psi = inst.psi
    psi_b0 = psi * example2x2.B_MATRICES[0]
    # boundary identity diag(w,1) N1+ + N1- = M0 at every node
    lam = sample(inst.Lambda0, g).samples
    m0 = sample(inst.M0, g)
    defect = lam @ n_plus.samples + n_minus.samples - m0.samples
    assert np.abs(defect).max() < 1e-13
    # closed-form limits: N1+(inf) = -C0, N1-(inf) = C0
    assert np.allclose(n_plus.closed_form.limit_at_infinity(), -vs.c0, atol=1e-13)
    assert np.allclose(n_minus.closed_form.limit_at_infinity(), vs.c0, atol=1e-13)
    # the split as a step: the canonical-frame constant E = C0 - psi*B0 has
    # an exactly zero forced row, the split density's plus part is -psi*B0
    # at infinity, and M0 vanishes there
    e_full = vs.c0 - psi_b0
    assert np.abs(e_full[0]).max() == 0.0
    sol = rbvp.Step(n_plus, n_minus, e_full, np.array([1, 0]), m0.data.mean(axis=-1),
                    plus_sum=-psi_b0, limit=np.zeros((2, 2), dtype=complex))
    # infinity data from the step's exact plus-sum and limit: the pair
    # cancels, and N1+(inf) = -C0, N1-(inf) = C0
    inf_p = sol.plus_at_infinity()
    inf_m = sol.minus_at_infinity()
    assert np.abs(inf_p + inf_m).max() < 1e-13
    assert np.abs(inf_p + vs.c0).max() < 1e-13
    assert np.abs(inf_m - vs.c0).max() < 1e-13
    # off-line evaluation tracks the closed forms away from the line
    z_up, z_dn = 0.4 + 0.8j, -0.5 - 1.3j
    cf_p = ClosedForm.mobius_power_diag((-1, 0)) @ (inst.M0_plus - ClosedForm.constant(vs.c0))
    cf_m = inst.M0_minus + ClosedForm.constant(vs.c0)
    assert np.abs(sol.evaluate_plus(z_up) - cf_p(np.array([z_up]))[0]).max() < 5e-3
    assert np.abs(sol.evaluate_minus(z_dn) - cf_m(np.array([z_dn]))[0]).max() < 5e-3


def test_first_step_rejects_phi_mismatch():
    inst = example2x2.build_example(0.1)
    vs = example2x2.variant_constant(0, 0.2)
    with pytest.raises(ValueError, match="disagree"):
        example2x2.first_step_factors(inst, vs, MobiusGrid.build(256))


def test_first_remainder_limit_matches_prediction():
    g = MobiusGrid.build(512)
    for vid in range(4):
        m1 = example2x2.first_remainder(vid, 0.25, g)
        vs = example2x2.variant_constant(vid, 0.25)
        got = m1.closed_form.limit_at_infinity()
        assert np.allclose(got, vs.predicted_M1_infinity, atol=1e-13), vid
    # variant 3 remainder dies off at infinity entirely
    m1 = example2x2.first_remainder(3, 0.25, g)
    assert np.abs(m1.closed_form.limit_at_infinity()).max() < 1e-13


def test_route_cross_check_gate_runs_and_caches(monkeypatch):
    phi = 0.37519
    inst = example2x2.build_example(phi)
    vs = example2x2.variant_constant(1, phi)
    assert phi not in example2x2._checked_phis
    example2x2._cross_check_routes(inst, vs)
    assert phi in example2x2._checked_phis
    # cached: the solver must not be consulted again for the same phi
    def explode(*a, **k):
        raise AssertionError("gate re-ran for a cached phi")
    monkeypatch.setattr(rbvp, "solve_step", explode)
    example2x2._cross_check_routes(inst, vs)


def test_closed_form_oracle_runs_no_solver(monkeypatch):
    # first_step_factors and first_remainder only evaluate closed forms: a
    # fresh phi consults no solver and is not gated
    phi = 0.35711
    assert phi not in example2x2._checked_phis

    def explode(*a, **k):
        raise AssertionError("the closed-form oracle called the step solver")

    monkeypatch.setattr(rbvp, "solve_step", explode)
    g = MobiusGrid.build(64)
    n_plus, n_minus = example2x2.first_step_factors(
        example2x2.build_example(phi), example2x2.variant_constant(1, phi), g)
    assert n_plus.grid is g and n_minus.grid is g
    example2x2.first_remainder(2, phi, g)
    assert phi not in example2x2._checked_phis


def test_closed_form_oracle_samples_only_the_split(monkeypatch):
    # the oracle evaluates N1+ and N1- once each, on the caller's grid, and
    # never M0: each factor carries the closed form it was sampled from
    phi = 0.19
    inst = example2x2.build_example(phi)
    g = MobiusGrid.build(128)
    calls = []
    real_call = ClosedForm.__call__

    def counting_call(self, z):
        calls.append((self, np.array(z)))
        return real_call(self, z)

    monkeypatch.setattr(ClosedForm, "__call__", counting_call)
    n_plus, n_minus = example2x2.first_step_factors(inst, example2x2.variant_constant(3, phi), g)
    assert len(calls) == 2
    assert calls[0][0] is n_plus.closed_form and calls[1][0] is n_minus.closed_form
    for _, z in calls:
        np.testing.assert_array_equal(z, g.x_nodes)


def _no_route_check(*a, **k):
    raise AssertionError("the route cross-check ran")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_is_refused(monkeypatch, bad):
    # no instance is built, and figure_data refuses before any route check
    monkeypatch.setattr(example2x2, "_route_gap_median", _no_route_check)
    with pytest.raises(ValueError, match="phi must be finite"):
        example2x2.build_example(bad)
    with pytest.raises(ValueError, match="each phi must be positive and finite"):
        example2x2.figure_data(1, [0.2, bad], MobiusGrid.build(64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_variant_constant_refuses_non_finite_phi(bad):
    # refused before psi is formed: no NaN constant and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"phi must be finite, got {bad}"):
            example2x2.variant_constant(1, bad)


def test_fractional_variant_is_refused(monkeypatch):
    # a fractional or bool variant is refused, not read as variant 1; a whole float is taken
    monkeypatch.setattr(example2x2, "_route_gap_median", _no_route_check)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="variant must be an integer"):
            example2x2.variant_constant(bad, 0.2)
    with pytest.raises(ValueError, match=r"variant must be an integer, got 1\.7"):
        example2x2.figure_data(1.7, [0.2], MobiusGrid.build(64))
    assert example2x2.variant_constant(2.0, 0.2).id == 2


def test_figure_data_gates_each_phi(monkeypatch):
    monkeypatch.setattr(example2x2, "_checked_phis", set())
    example2x2.figure_data(1, [0.26183], MobiusGrid.build(64))
    assert example2x2._checked_phis == {0.26183}


def test_route_gap_median_is_pinned():
    # the median the 1e-6 gate judges, at the gate's own grid; a cheaper
    # check must still measure this quantity
    g = MobiusGrid.build(example2x2._CHECK_GRID_N)
    for phi, want in ((0.3, 2.7484857477013826e-07), (0.05, 7.0883650e-08), (0.61, 3.8764300e-07)):
        inst = example2x2.build_example(phi)
        vs = example2x2.variant_constant(1, phi)
        e_full = vs.c0 - inst.psi * example2x2.B_MATRICES[0]
        median = example2x2._route_gap_median(inst, e_full, vs.c0, g)
        assert median == pytest.approx(want, rel=1e-7), phi


def _assert_skew_caught(monkeypatch, part):
    phi = 0.41837
    inst = example2x2.build_example(phi)
    vs = example2x2.variant_constant(0, phi)
    real_solve = rbvp.solve_step

    def skewed(m, kappas, free_block):
        sol = real_solve(m, kappas, free_block)
        getattr(sol, part).samples[...] += 1e-3
        return sol

    monkeypatch.setattr(rbvp, "solve_step", skewed)
    with pytest.raises(engine.NumericalError, match="quadrature/convention fault"):
        example2x2._cross_check_routes(inst, vs)
    example2x2._checked_phis.discard(phi)


def test_route_cross_check_detects_convention_fault(monkeypatch):
    _assert_skew_caught(monkeypatch, "n_plus")


def test_route_cross_check_detects_a_skew_of_n_minus_alone(monkeypatch):
    # N- comes from the identity N- = M - (plus - E), not from a transform
    # of its own: a fault there alone must offset the routes too
    _assert_skew_caught(monkeypatch, "n_minus")


def test_route_cross_check_rejects_a_non_finite_gap(monkeypatch):
    # one NaN in N+ makes the median NaN, which no comparison with the
    # bound passes; the gate must fail on it and leave the phi uncached
    phi = 0.43291
    inst = example2x2.build_example(phi)
    vs = example2x2.variant_constant(0, phi)
    real_solve = rbvp.solve_step

    def nan_at_one_node(m, kappas, free_block):
        sol = real_solve(m, kappas, free_block)
        sol.n_plus.data[0, 0, m.grid.n_points // 3] = np.nan
        return sol

    monkeypatch.setattr(rbvp, "solve_step", nan_at_one_node)
    with pytest.raises(engine.NumericalError,
                       match="median gap nan is not finite.*quadrature/convention fault"):
        example2x2._cross_check_routes(inst, vs)
    assert phi not in example2x2._checked_phis


def test_route_cross_check_samples_only_the_split(monkeypatch):
    # per phi, the check samples M0 once on its whole grid, and M0- only on
    # blocks of at most _BLOCK nodes that cover that grid once, in order; it
    # never evaluates M0+, and the solver is called once, with
    # (m, kappas, free_block) alone
    phi = 0.28613
    inst = example2x2.build_example(phi)
    vs = example2x2.variant_constant(2, phi)
    on_check_grid = []
    minus_blocks = []
    plus_calls = []
    solver_calls = []
    real_call = ClosedForm.__call__
    real_solve = rbvp.solve_step

    def counting_call(self, z):
        if np.shape(z) == (example2x2._CHECK_GRID_N,):
            on_check_grid.append(self)
        if self is inst.M0_minus:
            minus_blocks.append(np.array(z))
        if self is inst.M0_plus:
            plus_calls.append(np.shape(z))
        return real_call(self, z)

    def recording_solve(*args, **kwargs):
        solver_calls.append((len(args), kwargs))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(ClosedForm, "__call__", counting_call)
    monkeypatch.setattr(rbvp, "solve_step", recording_solve)
    assert phi not in example2x2._checked_phis
    example2x2._cross_check_routes(inst, vs)
    example2x2._checked_phis.discard(phi)
    assert len(on_check_grid) == 1
    assert on_check_grid[0].entries == inst.M0.entries
    assert minus_blocks and all(len(b) <= evaluators._BLOCK for b in minus_blocks)
    np.testing.assert_array_equal(np.concatenate(minus_blocks), example2x2._check_grid.x_nodes)
    assert plus_calls == []
    assert solver_calls == [(3, {})]


def test_route_cross_check_computes_no_mode_sums(monkeypatch):
    # the check reads only the solver's factors: a fresh phi takes no mode
    # sums and builds no twiddle table, the 2^19 one (8 MiB) included
    monkeypatch.setattr(example2x2, "_checked_phis", set())
    sums, twiddles = [], []
    real_sums, real_twiddles = cauchy._mode_sums, cauchy._twiddles

    def recording_sums(raw):
        sums.append(raw.shape)
        return real_sums(raw)

    def recording_twiddles(*args):
        twiddles.append(args)
        return real_twiddles(*args)

    monkeypatch.setattr(cauchy, "_mode_sums", recording_sums)
    monkeypatch.setattr(cauchy, "_twiddles", recording_twiddles)
    phi = 0.23917
    inst = example2x2.build_example(phi)
    vs = example2x2.variant_constant(1, phi)
    example2x2._cross_check_routes(inst, vs)
    assert example2x2._checked_phis == {phi}
    assert sums == [] and twiddles == []


def test_route_cross_check_stacked_halves_are_the_separate_samplings():
    # a closed form whose rows stack M0+'s over M0-'s gives each half the
    # bits of that part's own sampling: stacking never changes a value
    inst = example2x2.build_example(0.61)
    x = MobiusGrid.build(4096).x_nodes
    both = ClosedForm(inst.M0_plus.entries + inst.M0_minus.entries)(x)
    np.testing.assert_array_equal(both[:, :2], inst.M0_plus(x))
    np.testing.assert_array_equal(both[:, 2:], inst.M0_minus(x))


def test_route_check_m0_is_the_sum_of_its_split_on_the_check_grid():
    # the check solves M0 sampled from its own closed form, and forms the
    # exact route from M0 and M0-; M0 agrees with M0+ + M0- to 1e-13 at every
    # node (2.7e-15 measured), far below the 1e-6 gate, so the gate measures
    # the solver and not the sampling
    x = MobiusGrid.build(example2x2._CHECK_GRID_N).x_nodes
    for phi in (0.05, 0.3, 0.61):
        inst = example2x2.build_example(phi)
        gap = np.abs(inst.M0(x) - (inst.M0_plus(x) + inst.M0_minus(x))).max()
        assert gap <= 1e-13, (phi, gap)


def test_route_gap_median_footprint():
    # one check at the gate's grid holds three full (2, 2, N) arrays: M0 and
    # the solver's N+ and N-. M0- and the exact route are formed block by
    # block; the solver's own temporaries come on top. The grid is built
    # beforehand, and the check builds no twiddle table.
    phi = 0.3
    inst = example2x2.build_example(phi)
    vs = example2x2.variant_constant(1, phi)
    e_full = vs.c0 - inst.psi * example2x2.B_MATRICES[0]
    g = MobiusGrid.build(example2x2._CHECK_GRID_N)
    tracemalloc.start()
    try:
        example2x2._route_gap_median(inst, e_full, vs.c0, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = 2 * 2 * g.n_points * np.dtype(complex).itemsize
    assert peak < 3.75 * full, f"peak {peak / full:.2f} full arrays"


def test_route_cross_check_passes_known_kappas(monkeypatch):
    # Lambda0 = diag(w, 1) is known: the check hands its exponents (1, 0) to
    # the solver, and builds and checks no Lambda0 on its grid
    monkeypatch.setattr(example2x2, "_check_grid", None)
    monkeypatch.setattr(example2x2, "_checked_phis", set())
    calls = []
    real_solve = rbvp.solve_step

    def recording_solve(m, kappas, *args):
        calls.append((m, np.array(kappas)))
        return real_solve(m, kappas, *args)

    def no_check(*args):
        raise AssertionError("the check checked a Lambda0 whose exponents it already knows")

    monkeypatch.setattr(rbvp, "solve_step", recording_solve)
    monkeypatch.setattr(engine, "_check_lambda0", no_check)
    for phi in (0.31, 0.17):
        inst = example2x2.build_example(phi)
        example2x2._cross_check_routes(inst, example2x2.variant_constant(1, phi))
    assert len(calls) == 2
    for m, kappas in calls:
        assert m.grid is example2x2._check_grid and m.dims == (2, 2)
        assert kappas.tolist() == [1, 0]
    assert not hasattr(example2x2, "_diag_w_one")
    assert example2x2._checked_phis == {0.31, 0.17}


def test_figure_data_is_each_first_remainder_over_phi_squared():
    g = MobiusGrid.build(64)
    phis = [0.3, 0.1]
    scaled = example2x2.figure_data(1, phis, g)
    assert len(scaled) == len(phis)
    for phi, got in zip(phis, scaled):
        want = example2x2.first_remainder(1, phi, g).data / phi**2
        assert got.shape == (2, 2, g.n_points) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        example2x2.figure_data(1, [], g)
    with pytest.raises(ValueError):
        example2x2.figure_data(1, [0.1, -0.2], g)
