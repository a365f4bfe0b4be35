"""Factorization engine: recurrence, strategies, diagnostics, factor conditions."""

import gc
import re
import tracemalloc
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest

from whfactor import cauchy, engine, example2x2, rbvp
from whfactor.evaluators import ClosedForm, Term
from whfactor.grid import (MobiusGrid, SampledMatrixFunction, hoelder_norm, node_matmul, sample,
                           sup_norm)

PROFILE = rbvp.split_indices((1, 0))


def _example_run(phi=0.1, n_points=1024, order=2, **kw):
    g = MobiusGrid.build(n_points)
    inst = example2x2.build_example(phi)
    lam0 = engine.build_lambda0(PROFILE, g)
    return g, engine.run_factorization(lam0, sample(inst.M0, g), PROFILE, order, **kw)


def test_alpha_coefficients_exact():
    a = engine.alpha_coefficients(6)
    assert a[:4] == [Fraction(1, 2), Fraction(1, 8), Fraction(1, 16), Fraction(5, 128)]
    # recurrence alpha_r = (1/2) sum_{j<r} alpha_j alpha_{r-j}
    for r in range(2, 7):
        assert a[r - 1] == Fraction(1, 2) * sum(a[j - 1] * a[r - j - 1] for j in range(1, r))


def test_alpha_generating_function():
    # sum alpha_r x^r = 1 - sqrt(1 - x)
    a = engine.alpha_coefficients(60)
    x = 0.5
    partial = sum(float(v) * x**r for r, v in enumerate(a, start=1))
    assert abs(partial - (1 - np.sqrt(1 - x))) < 1e-12


def test_convergence_from_norm():
    assert engine.convergence_from_norm(0.1, 1.0) == 0.4
    assert engine.convergence_from_norm(0.0, 3.0) == 0.0


def test_convergence_constant_hand_fed():
    g = MobiusGrid.build(128)
    m0 = sample(ClosedForm.zeros(2), g)
    d = engine.convergence_constant(m0, mu=0.5, c_mu=1.0)
    assert d.A == 0.0 and d.epsilon_bound == np.inf and d.small_enough
    alphas = engine.alpha_coefficients(12)  # the series the CLI reports next to A
    assert len(alphas) == 12 and alphas[0] == 0.5
    with pytest.raises(ValueError):
        engine.convergence_constant(m0, mu=1.2, c_mu=1.0)
    with pytest.raises(ValueError):
        engine.convergence_constant(m0, mu=0.5, c_mu=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convergence_constant_refuses_non_finite_c_mu(bad):
    # either would give a meaningless A (nan) or epsilon_bound (0.0)
    m0 = sample(ClosedForm.zeros(2), MobiusGrid.build(128))
    with pytest.raises(ValueError, match="c_mu must be positive and finite"):
        engine.convergence_constant(m0, mu=0.5, c_mu=bad)


def test_whole_number_arguments():
    # a fractional r_max or a bool order is refused, not truncated or read as 1
    with pytest.raises(ValueError, match=r"r_max must be an integer, got 2\.5"):
        engine.alpha_coefficients(2.5)
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="order must be an integer"):
            _example_run(phi=0.3, n_points=256, order=bad)


def test_c_mu_lower_bound_at_least_one():
    # S0 fixes plus functions, so its norm is >= 1 and the bank must see that
    g = MobiusGrid.build(512)
    assert engine.c_mu_lower_bound(g, 0.5) >= 1.0 - 1e-12


def test_next_remainder_matches_direct_sum():
    g = MobiusGrid.build(128)
    rng = np.random.default_rng(17)

    def rand_smf():
        return SampledMatrixFunction(g, rng.standard_normal((128, 2, 2)) + 1j * rng.standard_normal((128, 2, 2)))

    nm = [rand_smf() for _ in range(3)]
    npl = [rand_smf() for _ in range(3)]
    steps = [types.SimpleNamespace(n_plus=p, n_minus=m) for p, m in zip(npl, nm)]
    got = engine.next_remainder(steps)
    want = -sum((nm[j - 1].samples @ npl[3 - j].samples for j in range(1, 4)),
                np.zeros((128, 2, 2), dtype=complex))
    assert np.abs(got.samples - want).max() < 1e-12
    # the in-place sum makes the adds of the plain one, in the same order
    acc = None
    for j in range(1, 4):
        term = nm[j - 1] @ npl[3 - j]
        acc = term if acc is None else acc + term
    assert np.array_equal(got.data, (-acc).data)
    assert got.closed_form is None and got.data.flags.c_contiguous
    for p, m in zip(npl, nm):  # the terms are read, never written
        assert not np.shares_memory(got.data, p.data) and not np.shares_memory(got.data, m.data)
    with pytest.raises(ValueError, match="at least one"):
        engine.next_remainder([])


def test_strategy_dispatch():
    assert engine._as_strategy("canonical-zero").name == "canonical-zero"
    assert engine._as_strategy("minimize-remainder-infinity").name == "minimize-remainder-infinity"
    exp = engine._as_strategy(engine.ExplicitConstants([np.zeros((1, 2))]))
    assert exp.name == "explicit"
    with pytest.raises(ValueError, match="ExplicitConstants"):
        engine._as_strategy("explicit")
    with pytest.raises(ValueError):
        engine._as_strategy("no-such-strategy")

    class Custom:
        name = "custom"

        def free_block(self, r, remainder, profile, plus_sum):
            return np.zeros((profile.n - profile.k, profile.n))

    assert engine._as_strategy(Custom()).name == "custom"


def test_explicit_constants_repeat_last():
    blocks = [np.ones((1, 2)), 2 * np.ones((1, 2))]
    strat = engine.ExplicitConstants(blocks)
    assert np.allclose(strat.free_block(1, None, PROFILE, None), 1.0)
    assert np.allclose(strat.free_block(2, None, PROFILE, None), 2.0)
    assert np.allclose(strat.free_block(5, None, PROFILE, None), 2.0)


def test_run_telescoping_identity():
    # h- Lambda0 h+ - (Lambda0 + M0) equals the cross tail sum_{j+l>R} Nj- Nl+
    g, res = _example_run(phi=0.3, n_points=512, order=3)
    R = res.order_reached
    lam0 = res.lambda0.samples
    lhs = res.h_minus.samples @ lam0 @ res.h_plus.samples - (lam0 + res.m0.samples)
    tail = np.zeros_like(lhs)
    for j in range(1, R + 1):
        for l in range(1, R + 1):
            if j + l >= R + 1:
                tail += res.steps[j - 1].n_minus.samples @ res.steps[l - 1].n_plus.samples
    assert np.abs(lhs - tail).max() < 1e-8


def test_residual_ratio_order_scaling():
    # phi-halving scales the order-R residual by about 2^(R+1)
    g = MobiusGrid.build(1024)
    lam0 = engine.build_lambda0(PROFILE, g)
    for order, target in ((1, 4.0), (2, 8.0)):
        sups = []
        for phi in (0.2, 0.1):
            inst = example2x2.build_example(phi)
            r = engine.run_factorization(lam0, sample(inst.M0, g), PROFILE, order)
            sups.append(r.residual_sup)
        ratio = sups[0] / sups[1]
        assert abs(ratio - target) / target < 0.15, (order, ratio)


def test_step_norms_bounded_by_constant_when_small():
    # with A < 1 the per-step norms obey ||N_r||^(1/r) <= A
    g, res = _example_run(phi=1e-4, n_points=2048, order=6)
    diag = engine.convergence_constant(res.m0, mu=0.5, c_mu=1.0)
    A = diag.A
    assert diag.small_enough
    for rec in res.steps:
        r = rec.r
        assert rec.sup_n_plus ** (1.0 / r) <= A * 1.01
        assert rec.sup_n_minus ** (1.0 / r) <= A * 1.01


def test_factor_conditions_report():
    g, res = _example_run(phi=0.1, n_points=1024, order=2)
    rep = engine.check_factor_conditions(res)
    # the report holds the defects only, and its caller judges them: demo 04
    # with 1e-8 and 1.0, this test the infinity product with the tighter 0.1
    assert rep.unit_column_defect < 1e-8
    assert rep.min_abs_det_h_minus > 0.5
    assert rep.min_abs_det_h_plus > 0.5
    assert rep.infinity_product_defect < 0.1


def test_infinity_values_consistent_with_far_evaluation():
    # off-line evaluation drifts toward the closed-form limits as |z| grows;
    # the quadrature degrades once w(z) crowds the node gap at w = 1, so the
    # check stops at moderate |z| and asserts the trend plus a small gap there
    g, res = _example_run(phi=0.1, n_points=2048, order=2)
    hp_inf = res.h_plus_infinity()
    hm_inf = res.h_minus_infinity()
    ep = [np.abs(res.evaluate_h_plus(1j * y) - hp_inf).max() for y in (30.0, 1000.0)]
    em = [np.abs(res.evaluate_h_minus(-1j * y) - hm_inf).max() for y in (30.0, 1000.0)]
    assert ep[1] < 1e-2 and em[1] < 1e-2
    assert ep[0] > 5 * ep[1]
    assert em[0] > 5 * em[1]
    assert np.abs(res.evaluate_h_minus(-1j) - res.h_minus_at_minus_i()).max() < 1e-10


def _custom3_run(order=5, n_points=256, strategy="minimize-remainder-infinity"):
    """A shifted 3x3 run, indices (2, 2, 1): M0 entries a e^(i w x) / (x + i b), alternating poles."""
    prof = rbvp.split_indices((2, 2, 1))
    g = MobiusGrid.build(n_points)
    rows = []
    for p in range(3):
        row = []
        for q in range(3):
            k = 3 * p + q
            b = (0.8 + 0.15 * k) * (1 if k % 2 == 0 else -1)
            amp = (0.03 if p == q else 0.018) * np.exp(2j * np.pi * k / 9)
            row.append((Term((amp,), (1j * b, 1.0), -1.0 + 0.25 * k),))
        rows.append(row)
    m0 = rbvp.shift_density(sample(ClosedForm(rows), g), prof.s)
    return engine.run_factorization(engine.build_lambda0(prof, g), m0, prof, order,
                                    strategy=strategy)


def _from_remainder(m, step, z):
    """N+(z) or N-(z) written through the M the step solved.

    N+ = diag(v^(-kappas)) (Omega0[M](z) - E) and N- = E - Omega0[M](z),
    v = (z-i)/(z+i); at z = i, v^(-1) Omega0[M](z) on a row with exponent 1
    tends to (1/N) sum_j conj(w_j) M(x_j).
    """
    om = cauchy.cauchy_off_line(m, z)
    if z.imag < 0:
        return step.constant - om
    val = om - step.constant
    k = int(step.kappas.sum())
    if z == 1j:
        val[:k] = (np.conj(m.grid.w_nodes) * m.data[:k]).mean(axis=-1)
    else:
        val[:k] *= (z + 1j) / (z - 1j)
    return val


@pytest.mark.parametrize("strategy", ["canonical-zero", "minimize-remainder-infinity"])
@pytest.mark.parametrize("problem", ["example", "custom3-shifted"])
def test_step_terms_continue_as_the_remainder_does(problem, strategy):
    # each step continues N+ and N- from their own samples; the values agree
    # with the ones written through the remainder, taken from the recurrence
    if problem == "example":
        _, res = _example_run(phi=0.2, n_points=256, order=4, strategy=strategy)
    else:
        res = _custom3_run(order=4, strategy=strategy)
    assert res.order_reached == 4
    for r, step in enumerate(res.steps, start=1):
        m = res.m0 if r == 1 else engine.next_remainder(res.steps[:r - 1])
        for z in (1j, 0.3 + 0.7j, 2.0 + 1.5j, -1j, -0.4 - 0.9j, 2.0 - 1.5j):
            got = step.evaluate_plus(z) if z.imag > 0 else step.evaluate_minus(z)
            want = _from_remainder(m, step, z)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (r, z)


def test_a_result_holds_no_remainder(monkeypatch):
    # the remainders M_1..M_{R-1} live only while the driver needs them; a
    # result keeps M0 alone
    refs = []
    forward = engine.next_remainder

    def keeping(steps):
        m = forward(steps)
        refs.append(weakref.ref(m))
        return m

    monkeypatch.setattr(engine, "next_remainder", keeping)
    _, res = _example_run(phi=0.1, n_points=256, order=4)
    gc.collect()
    assert res.order_reached == 4 and len(refs) == 3
    assert [ref() for ref in refs] == [None, None, None]


def test_the_driver_holds_no_remainder_while_it_forms_the_residual(monkeypatch):
    # the refined residual's fine arrays are formed with no remainder alive
    refs, alive = [], []
    forward, residual = engine.next_remainder, engine.FactorizationResult.residual_sup_at

    def keeping(steps):
        m = forward(steps)
        refs.append(weakref.ref(m))
        return m

    def counting(self, refine=1):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return residual(self, refine)

    monkeypatch.setattr(engine, "next_remainder", keeping)
    monkeypatch.setattr(engine.FactorizationResult, "residual_sup_at", counting)
    _, res = _example_run(phi=0.1, n_points=256, order=4, refine_check=2)
    assert res.order_reached == 4 and len(refs) == 3
    assert alive == [0]


def _fold(start, terms):
    """start plus each term, one step at a time: the factor series written out."""
    total = start
    for term in terms:
        total = total + term
    return total


@pytest.mark.parametrize("strategy", ["canonical-zero", "minimize-remainder-infinity", "custom3-shifted"])
def test_h_minus_infinity_sums_the_step_limits(strategy):
    # every value of h- and h+ is I plus the step terms, added in step order,
    # bit for bit; each propagated limit is -sum_j N_j-(inf) N_{r+1-j}+(inf)
    if strategy == "custom3-shifted":
        res = _custom3_run(order=5)
    else:
        _, res = _example_run(phi=0.2, n_points=512, order=4, strategy=strategy)
    steps, n, kappas = res.steps, res.profile.n, res.profile.shifted_kappas()
    assert len(steps) == res.order
    eye = np.eye(n, dtype=complex)

    def same(got, terms, start=eye):
        assert got.tobytes() == _fold(start, terms).tobytes()

    same(res.h_plus_infinity(), [s.plus_at_infinity() for s in steps])
    same(res.h_minus_infinity(), [s.minus_at_infinity() for s in steps])
    scale = np.ones(n)
    scale[:res.profile.k] = 0.0
    same(res.h_minus_at_minus_i(), [(s.c0 + s.constant) * scale[None, :] for s in steps])
    zp, zm = 0.7 + 1.3j, 0.7 - 1.3j
    same(res.evaluate_h_plus(zp), [s.evaluate_plus(zp) for s in steps])
    colfac = ((zm + 1j) / (zm - 1j)) ** kappas
    same(res.evaluate_h_minus(zm), [s.evaluate_minus(zm) * colfac[None, :] for s in steps])
    colw = np.conj(res.grid.w_nodes) ** kappas[:, None]
    same(res.h_minus.data, [s.n_minus.data * colw for s in steps], eye[..., None])
    same(res.h_plus.data, [s.n_plus.data for s in steps], eye[..., None])
    for r in range(2, len(steps) + 1):
        want = np.zeros((n, n), dtype=complex)
        for j in range(1, r):
            want = want + node_matmul(steps[j - 1].minus_at_infinity(), steps[r - j - 1].c_total)
        assert np.array_equal(steps[r - 1].limit, want)
    assert np.abs(steps[-1].limit).max() > 0


def test_h_plus_at_the_normalization_point():
    # h+ is analytic at z = i, where the index-1 rows take their limit
    g, res = _example_run(phi=0.1, n_points=1024, order=2)
    at_i = res.evaluate_h_plus(1j)
    assert np.all(np.isfinite(at_i))
    assert np.abs(at_i - res.evaluate_h_plus(1j + 1e-7)).max() < 1e-8


def test_factor_evaluation_checks_the_half_plane():
    g, res = _example_run(phi=0.1, n_points=256, order=1)
    for z in (-2j, 3.0, 1.0 - 1e-3j):
        with pytest.raises(ValueError, match="upper half-plane"):
            res.evaluate_h_plus(z)
    for z in (1j, 2j, 3.0):
        with pytest.raises(ValueError, match="lower half-plane"):
            res.evaluate_h_minus(z)
    # a run that took no step checks z all the same
    _, empty = _example_run(phi=0.0, n_points=256, order=2)
    assert empty.order_reached == 0
    assert np.array_equal(empty.evaluate_h_plus(2j), np.eye(2))
    with pytest.raises(ValueError, match="upper half-plane"):
        empty.evaluate_h_plus(-2j)
    with pytest.raises(ValueError, match="lower half-plane"):
        empty.evaluate_h_minus(2j)


def test_early_stop_on_zero_density():
    g = MobiusGrid.build(256)
    inst = example2x2.build_example(0.0)
    lam0 = engine.build_lambda0(PROFILE, g)
    res = engine.run_factorization(lam0, sample(inst.M0, g), PROFILE, order=4)
    assert res.order_reached == 0
    assert res.residual_sup < 1e-14
    assert np.allclose(res.h_plus.samples, np.eye(2), atol=1e-14)
    assert np.allclose(res.h_minus.samples, np.eye(2), atol=1e-14)


def test_non_finite_density_raises():
    g = MobiusGrid.build(256)
    inst = example2x2.build_example(0.1)
    m0 = sample(inst.M0, g)
    m0.samples[7, 0, 0] = np.nan
    m0.closed_form = None
    lam0 = engine.build_lambda0(PROFILE, g)
    with pytest.raises(engine.NumericalError):
        engine.run_factorization(lam0, m0, PROFILE, order=2)


def test_refine_check_is_refused_before_any_solve(monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return rbvp.solve_step(*args, **kw)
    monkeypatch.setattr(engine, "solve_step", counted)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="refine_check must be >= 1"):
            _example_run(phi=0.1, n_points=256, order=4, refine_check=bad)
    assert calls == []
    _example_run(phi=0.1, n_points=256, order=4, refine_check=1)
    assert len(calls) == 4


def test_driver_refuses_non_finite_constants_and_terms(monkeypatch):
    class NanBlock:
        def free_block(self, r, remainder, profile, plus_sum):
            return np.full((1, 2), np.nan if r == 2 else 0.0)
    with pytest.raises(engine.NumericalError, match="strategy returned non-finite constants at step 2"):
        _example_run(phi=0.1, n_points=256, order=3, strategy=NanBlock())

    def poisoned(m, kappas, free_block):  # a solve whose N- turns non-finite at step 2
        step = rbvp.solve_step(m, kappas, free_block)
        if m.closed_form is None:
            step.n_minus.data[1, 0, 5] = np.inf
        return step
    monkeypatch.setattr(engine, "solve_step", poisoned)
    with pytest.raises(engine.NumericalError, match="step 2 produced non-finite factor terms"):
        _example_run(phi=0.1, n_points=256, order=3)


def test_check_total_index():
    # the example family winds once, as indices (1, 0) declare, or its count
    # is not resolved and left unjudged; diag(w, w) winds twice
    g = MobiusGrid.build(64)
    lam0 = engine.build_lambda0(PROFILE, g)
    for phi in (0.01, 0.1, 1.0, 5.0):
        engine.check_total_index(lam0, sample(example2x2.build_example(phi).M0, g), PROFILE)
    twice = ClosedForm([[[], []], [[], [Term((-2j,), (1j, 1.0))]]])  # M0 = diag(0, -2i/(x+i))
    with pytest.raises(ValueError, match=r"^indices \[1, 0\] declare total index 1, but "
                       r"det\(Lambda \+ M0\) winds 2 times around 0 on 64 nodes "
                       r"\(largest phase step 0\.196 rad\)$"):
        engine.check_total_index(lam0, sample(twice, g), PROFILE)


def test_explicit_block_shape_validated():
    g = MobiusGrid.build(256)
    inst = example2x2.build_example(0.1)
    lam0 = engine.build_lambda0(PROFILE, g)
    with pytest.raises(ValueError):
        engine.run_factorization(lam0, sample(inst.M0, g), PROFILE, order=1,
                                 strategy=engine.ExplicitConstants([np.zeros((2, 2))]))


def test_minimize_infinity_strategy_zeroes_free_rows_at_infinity():
    # free constant rows equal the plus sums, so N_r+(inf) has zero free rows
    g, res = _example_run(phi=0.1, n_points=1024, order=3,
                          strategy="minimize-remainder-infinity")
    k = PROFILE.k
    for step in res.steps:
        n_plus_inf = step.plus_at_infinity()
        assert np.abs(n_plus_inf[k:, :]).max() < 1e-12


def test_build_lambda0_shifted_frame():
    # the engine diagonal drops the common shift: (2, 1) builds diag(w, 1)
    g = MobiusGrid.build(128)
    prof = rbvp.split_indices((2, 1))
    lam0 = engine.build_lambda0(prof, g)
    w = g.w_nodes
    assert np.allclose(lam0.samples[:, 0, 0], w, atol=1e-12)
    assert np.allclose(lam0.samples[:, 1, 1], 1.0, atol=1e-12)
    assert np.abs(lam0.samples[:, 0, 1]).max() == 0.0


def test_convergence_grid_rule():
    # the Hoelder norm is taken on at most DIAGNOSTIC_NODES nodes: a larger
    # closed-form M0 is sampled there, any other M0 stays on its own grid
    nodes = engine.DIAGNOSTIC_NODES
    assert nodes == 2048
    m0_form = example2x2.build_example(0.1).M0
    at_rule = engine.convergence_constant(sample(m0_form, MobiusGrid.build(nodes)), 0.5, 1.0)
    big = sample(m0_form, MobiusGrid.build(4 * nodes))
    assert engine.convergence_constant(big, 0.5, 1.0) == at_rule
    bare = SampledMatrixFunction.node_last(big.grid, big.data.copy())
    on_own_grid = engine.convergence_constant(bare, 0.5, 1.0)
    assert on_own_grid.hoelder_norm == hoelder_norm(big, 0.5).total
    assert on_own_grid.hoelder_norm != at_rule.hoelder_norm
    # a shifted M0 at or below the rule keeps its shifted samples
    small = rbvp.shift_density(sample(m0_form, MobiusGrid.build(512)), -1)
    assert (engine.convergence_constant(small, 0.5, 1.0).hoelder_norm
            == hoelder_norm(small, 0.5).total)


def test_c_mu_lower_bound_caps_its_grid():
    # a grid of more than C_MU_NODES nodes gives the bound on that many;
    # a smaller one is used as given
    assert engine.C_MU_NODES == 1024
    at_cap = engine.c_mu_lower_bound(MobiusGrid.build(1024), 0.5)
    assert engine.c_mu_lower_bound(MobiusGrid.build(4096), 0.5) == at_cap
    assert engine.c_mu_lower_bound(MobiusGrid.build(512), 0.5) != at_cap


def test_refined_residual_regimes():
    # truncation-dominated regime: node residual and refined residual agree
    _, res = _example_run(phi=0.3, n_points=2048, order=2)
    r1 = res.residual_sup_at(1)
    r2 = res.residual_sup_at(2)
    assert np.isclose(r1, res.residual_sup)
    assert 0.8 < r2 / r1 < 1.5
    # at small phi the refined residual also sees the off-node interpolation
    # error of the oscillatory density near w = 1, so it can only grow
    _, res_s = _example_run(phi=0.05, n_points=2048, order=2)
    assert res_s.residual_sup_at(2) >= res_s.residual_sup_at(1)
    with pytest.raises(ValueError):
        res.residual_sup_at(0)
    # a fractional count is refused, not truncated; a whole float is taken
    with pytest.raises(ValueError, match=r"refine must be an integer, got 2\.9"):
        res.residual_sup_at(2.9)
    assert res.residual_sup_at(2.0) == r2
    with pytest.raises(ValueError, match=r"order must be an integer, got 2\.7"):
        _example_run(phi=0.3, n_points=256, order=2.7)
    with pytest.raises(ValueError, match=r"refine_check must be an integer, got 1\.9"):
        _example_run(phi=0.3, n_points=256, order=2, refine_check=1.9)
    # so are inf and nan, with the same message
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=rf"order must be an integer, got {bad}"):
            _example_run(phi=0.3, n_points=256, order=bad)
        with pytest.raises(ValueError, match=rf"refine must be an integer, got {bad}"):
            res.residual_sup_at(bad)


def test_refined_residual_builds_one_grid(monkeypatch):
    _, res = _example_run(phi=0.1, n_points=256, order=2)
    # the residual as written before: each operand resampled on its own grid
    hm, hp, l0, m0 = (cauchy.resample(f, 3) for f in (res.h_minus, res.h_plus,
                                                       res.lambda0, res.m0))
    want = sup_norm((hm @ l0 @ hp) - (l0 + m0))
    builds = []
    build = MobiusGrid.build.__func__
    monkeypatch.setattr(MobiusGrid, "build",
                        classmethod(lambda cls, n: builds.append(n) or build(cls, n)))
    assert res.residual_sup_at(3) == want
    assert builds == [768]


def _whole_array_residual(res, refine):
    """The residual formula with every operand held on the whole (fine) grid."""
    hm, hp, l0, m0 = res.h_minus, res.h_plus, res.lambda0, res.m0
    if refine > 1:
        fine = MobiusGrid.build(res.grid.n_points * refine)
        hm, hp, l0, m0 = (cauchy._resample_to(f, fine) for f in (hm, hp, l0, m0))
    return sup_norm((hm @ l0 @ hp) - (l0 + m0))


@pytest.mark.parametrize("refine", [1, 2, 3])
def test_blocked_residual_is_the_whole_array_formula(refine):
    # 10000 nodes: every grid, coarse or fine, ends in a partial block
    _, res = _example_run(phi=0.07, n_points=10000, order=3)
    assert res.residual_sup_at(refine) == _whole_array_residual(res, refine)
    # the same samples without a closed form take the resample path
    res.m0 = SampledMatrixFunction.node_last(res.grid, res.m0.data.copy())
    assert res.residual_sup_at(refine) == _whole_array_residual(res, refine)


def test_blocked_residual_keeps_a_nan():
    _, res = _example_run(phi=0.1, n_points=10000, order=2)
    res.h_plus.data[0, 1, 9000] = np.nan  # in the second block
    assert np.isnan(res.residual_sup_at(1))
    assert np.isnan(res.residual_sup_at(2))


def test_blocked_residual_raises_at_the_first_non_finite_fine_node():
    # a closed form with poles on two fine nodes in the third block: the
    # error is sample's, naming the first of them
    g, res = _example_run(phi=0.1, n_points=10000, order=2)
    fine = MobiusGrid.build(20000)
    x1, x2 = fine.x_nodes[17000], fine.x_nodes[19000]
    poles = ClosedForm([[(Term((1e-3,), (-x1, 1.0)), Term((1e-3,), (-x2, 1.0))), ()],
                        [(), ()]])
    poled = example2x2.build_example(0.1).M0 + poles
    with pytest.raises(ValueError) as whole:
        sample(poled, fine)
    assert repr(x1) in str(whole.value)
    res.m0 = SampledMatrixFunction.node_last(g, res.m0.data, poled)
    assert res.residual_sup_at(1) == res.residual_sup  # the nodes miss the poles
    with pytest.raises(ValueError, match=re.escape(str(whole.value))):
        res.residual_sup_at(2)


def test_refined_residual_footprint():
    # the fine grid holds h- and h+ resampled; the residual and its sup are
    # formed in blocks, and the closed forms evaluated on each block
    g, res = _example_run(phi=0.05, n_points=65536, order=1)
    res.residual_sup_at(2)  # fills the twiddle caches
    tracemalloc.start()
    try:
        res.residual_sup_at(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fine = 2 * 2 * 2 * g.n_points * np.dtype(complex).itemsize
    assert peak < 4 * fine, f"peak {peak / fine:.2f} fine arrays"


def test_lambda_factor_shares_lambda0_without_shift():
    g, res = _example_run(phi=0.1, n_points=256, order=1)
    assert res.lambda_factor is res.lambda0
    # with s = 1 the factor's diagonal is diag(w^2, w), Lambda0 diag(w, 1)
    prof = rbvp.split_indices((2, 1))
    lam0 = engine.build_lambda0(prof, g)
    m0 = rbvp.shift_density(sample(example2x2.build_example(0.1).M0, g), prof.s)
    shifted = engine.run_factorization(lam0, m0, prof, 1)
    assert shifted.lambda_factor is not shifted.lambda0
    want = sample(ClosedForm.mobius_power_diag((2, 1)), g)
    assert np.array_equal(shifted.lambda_factor.data, want.data)


def test_one_forward_fft_per_step(monkeypatch):
    # every step derives its split, plus-sum and limit from one forward FFT,
    # takes one pass of mode sums right after it, and inverts only its plus
    # part; reading the steps' sums afterwards transforms nothing more
    counts = {"fft": 0, "ifft": 0}
    sums_after_fft = []
    real_sums = cauchy._mode_sums

    def recording_sums(raw):
        sums_after_fft.append(counts["fft"])
        return real_sums(raw)

    def counted(name):
        real = getattr(np.fft, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    # stand-ins for numpy and numpy.fft that count, as the benchmark tracer does
    fft_ns = types.ModuleType("numpy.fft")
    fft_ns.__getattr__ = lambda attr: getattr(np.fft, attr)
    fft_ns.fft, fft_ns.ifft = counted("fft"), counted("ifft")
    np_ns = types.ModuleType("numpy")
    np_ns.__getattr__ = lambda attr: getattr(np, attr)
    np_ns.fft = fft_ns
    monkeypatch.setattr(cauchy, "np", np_ns)
    monkeypatch.setattr(cauchy, "_mode_sums", recording_sums)
    for strategy in ("canonical-zero", "minimize-remainder-infinity"):
        for order in (1, 4):
            counts.update(fft=0, ifft=0)
            sums_after_fft.clear()
            _, res = _example_run(phi=0.1, n_points=256, order=order, strategy=strategy,
                                  refine_check=1)
            assert res.order_reached == order
            assert counts == {"fft": order, "ifft": order}
            assert sums_after_fft == list(range(1, order + 1))
            for step in res.steps:
                step.plus_sum, step.limit, step.minus_at_infinity()
            assert counts == {"fft": order, "ifft": order}


def test_lambda0_must_match_profile():
    g = MobiusGrid.build(128)
    lam0 = engine.build_lambda0(rbvp.split_indices((1, 1)), g)
    m0 = sample(example2x2.build_example(0.1).M0, g)
    with pytest.raises(ValueError, match="diagonal exponents"):
        engine.run_factorization(lam0, m0, PROFILE, order=1)


def test_strategy_writing_plus_sum_leaves_records_alone():
    # a strategy that scribbles on its plus_sum argument must not change the run
    class Scribbler:
        name = "scribbler"

        def free_block(self, r, remainder, profile, plus_sum):
            block = np.asarray(plus_sum)[profile.k:, :].copy()
            plus_sum[...] = 1e6
            return block

    _, ref = _example_run(phi=0.1, n_points=256, order=3,
                          strategy="minimize-remainder-infinity")
    _, res = _example_run(phi=0.1, n_points=256, order=3,
                          strategy=Scribbler())
    for a, b in zip(res.steps, ref.steps):
        assert np.array_equal(a.plus_sum, b.plus_sum)
        assert np.array_equal(a.plus_at_infinity(), b.plus_at_infinity())
        assert np.array_equal(a.c_total, b.c_total)
    assert np.array_equal(res.h_plus.samples, ref.h_plus.samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_check_lambda0_rejects_non_finite_off_diagonal(bad):
    g = MobiusGrid.build(64)
    samples = sample(ClosedForm.mobius_power_diag((1, 0)), g).samples.copy()
    samples[17, 1, 0] = bad
    with pytest.raises(ValueError, match=re.escape("diagonal exponents (1, 0): entry (1, 0)")):
        engine._check_lambda0(SampledMatrixFunction(g, samples), PROFILE.shifted_kappas())


def test_check_lambda0_rejects_non_finite_diagonal():
    g = MobiusGrid.build(64)
    samples = sample(ClosedForm.mobius_power_diag((1, 0)), g).samples.copy()
    samples[5, 1, 1] = np.nan
    with pytest.raises(ValueError, match=re.escape("diagonal exponents (1, 0): entry (1, 1)")):
        engine._check_lambda0(SampledMatrixFunction(g, samples), PROFILE.shifted_kappas())


@pytest.mark.parametrize("kappa", [0, 1])
def test_check_lambda0_keeps_allclose_tolerance(kappa):
    # accepted iff |d - target| <= 1e-9 + 1e-5 |target| at every node, as
    # np.allclose(d, target, atol=1e-9) decides: 1.00005e-5 off passes only
    # through the sum of both tolerances, 1.00015e-5 off fails
    g = MobiusGrid.build(64)
    kappas = np.array([kappa])
    target = g.w_nodes if kappa else np.ones(64, dtype=complex)
    for rel, ok in ((1.00005e-5, True), (-1.00005e-5, True), (1.00015e-5, False), (-1.00015e-5, False)):
        d = target * (1 + rel)
        assert np.allclose(d, target, atol=1e-9) == ok
        lam = SampledMatrixFunction(g, d[:, None, None])
        if ok:
            engine._check_lambda0(lam, kappas)
        else:
            with pytest.raises(ValueError, match="diagonal exponents"):
                engine._check_lambda0(lam, kappas)
    d = target.copy()
    d[9] = np.inf
    with pytest.raises(ValueError, match="diagonal exponents"):
        engine._check_lambda0(SampledMatrixFunction(g, d[:, None, None]), kappas)


def test_check_lambda0_off_diagonal_tolerance():
    # an off-diagonal entry passes within 1e-12 of 0 at every node, and no further
    g = MobiusGrid.build(64)
    base = sample(ClosedForm.mobius_power_diag((1, 0)), g).samples
    for size, ok in ((1e-12, True), (1.5e-12, False)):
        samples = base.copy()
        samples[11, 0, 1] = size * np.exp(0.3j)
        lam = SampledMatrixFunction(g, samples)
        if ok:
            engine._check_lambda0(lam, PROFILE.shifted_kappas())
        else:
            with pytest.raises(ValueError, match=re.escape("entry (0, 1)")):
                engine._check_lambda0(lam, PROFILE.shifted_kappas())


def _run_64(order=1, profile=PROFILE, m0_form=None, lambda0_points=64):
    grid = MobiusGrid.build(64)
    m0 = sample(m0_form or example2x2.build_example(0.2).M0, grid)
    lambda0 = engine.build_lambda0(PROFILE, MobiusGrid.build(lambda0_points))
    return engine.run_factorization(lambda0, m0, profile, order)


def _index_tuple_is_coerced():
    got, want = _run_64(profile=(1, 0)), _run_64()
    return got.profile == PROFILE and got.h_minus.data.tobytes() == want.h_minus.data.tobytes()


@pytest.mark.parametrize(
    "call,expected",
    [
        # a normalization: the call returns the expected value
        pytest.param(_index_tuple_is_coerced, True, id="run-index-tuple-coerced"),
        # refusals: the call raises the expected type with the expected message
        pytest.param(lambda: engine.ExplicitConstants([]),
                     ValueError("explicit strategy needs at least one constant block"),
                     id="explicit-no-blocks"),
        pytest.param(lambda: engine.alpha_coefficients(0), ValueError("r_max must be >= 1"),
                     id="alpha-0"),
        pytest.param(lambda: _run_64(order=0), ValueError("order must be >= 1"), id="run-order-0"),
        pytest.param(lambda: _run_64(m0_form=ClosedForm.identity(3)),
                     ValueError("m0 must be 2 x 2 for this profile"), id="run-m0-wrong-size"),
        pytest.param(lambda: _run_64(lambda0_points=128),
                     ValueError("lambda0 must match m0's grid and dimensions"),
                     id="run-lambda0-other-grid"),
    ],
)
def test_engine_input_refusals_and_normalizations(call, expected):
    if not isinstance(expected, Exception):
        assert call() == expected
        return
    with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
        call()
