"""Property test of the step solver inside the driver.

Random stable profiles (n <= 4, common shift s in -2..2) and decaying M0,
each entry a sum of terms a exp(i omega x) / (x + i b), are factored to
order 2 on 64 or 128 nodes with both built-in strategies. At every step the
node identity Lambda0+ N_r+ + N_r- = M_{r-1} holds to 1e-12. The profile's
own Lambda0 is accepted, and one whose exponents differ in one diagonal
entry is rejected.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from whfactor import engine, rbvp  # noqa: E402
from whfactor.evaluators import ClosedForm, Term  # noqa: E402
from whfactor.grid import MobiusGrid, node_matmul, sample  # noqa: E402

# a exp(i omega x) / (x + i b) with 0.1 <= |a| <= 1 and 0.5 <= |b| <= 3: a
# pole off the line, in either half-plane
TERMS = st.builds(
    lambda rho, theta, b, upper, omega: Term((rho * np.exp(1j * theta),),
                                             (1j * (b if upper else -b), 1.0), omega),
    st.floats(0.1, 1.0), st.floats(-np.pi, np.pi), st.floats(0.5, 3.0), st.booleans(),
    st.floats(-3.0, 3.0),
)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n - 1))
    s = draw(st.integers(-2, 2))
    profile = rbvp.split_indices((s + 1,) * k + (s,) * (n - k))
    entries = [[tuple(draw(st.lists(TERMS, min_size=int(i == j), max_size=2))) for j in range(n)]
               for i in range(n)]
    return profile, ClosedForm(entries), draw(st.sampled_from([64, 128])), draw(st.integers(0, n - 1))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(problems())
def test_every_step_solves_its_boundary_problem(problem):
    profile, m0_form, n_points, flip = problem
    grid = MobiusGrid.build(n_points)
    assert (profile.n, profile.k) == (len(m0_form.entries), int(profile.shifted_kappas().sum()))
    m0 = rbvp.shift_density(sample(m0_form, grid), profile.s)
    lambda0 = engine.build_lambda0(profile, grid)
    for strategy in ("canonical-zero", "minimize-remainder-infinity"):
        res = engine.run_factorization(lambda0, m0, profile, 2, strategy=strategy)
        assert res.order_reached >= 1 and res.m0 is m0
        for r, step in enumerate(res.steps, start=1):
            m = (m0 if r == 1 else engine.next_remainder(res.steps[:r - 1])).samples
            identity = node_matmul(lambda0.samples, step.n_plus.samples) + step.n_minus.samples
            assert np.abs(identity - m).max() <= 1e-12, (strategy, step.r)
    kappas = profile.shifted_kappas()
    kappas[flip] = 1 - kappas[flip]
    wrong = sample(ClosedForm.mobius_power_diag(kappas), grid)
    with pytest.raises(ValueError, match="diagonal exponents"):
        engine.run_factorization(wrong, m0, profile, 2)
