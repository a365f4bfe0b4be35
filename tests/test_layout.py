"""Node-last storage: every sampled matrix is one C-contiguous (n, n, N) array.

`samples` is its (N, n, n) view. Products, the FFT split and resampling
keep the bits of the node-first formulas they replace; the benchmark's own
output check and per-layer tracer still work on the results.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from whfactor import cauchy, engine, example2x2, rbvp
from whfactor.evaluators import ClosedForm, Term
from whfactor.grid import MobiusGrid, SampledMatrixFunction, node_matmul, sample

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _node_last_view(a):
    """The (N, ...) view of a C-contiguous node-last copy of the (N, ...) array a."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


def _is_node_last(f, n_points):
    """f is a SampledMatrixFunction on n_points nodes, or an (N, ...) view, stored node-last."""
    data = f.data if isinstance(f, SampledMatrixFunction) else np.moveaxis(f, 0, -1)
    return data.shape[-1] == n_points and data.flags.c_contiguous


def test_samples_is_a_write_through_view_of_node_last_storage():
    g = MobiusGrid.build(64)
    vals = _random_complex(np.random.default_rng(1), (64, 3, 3))
    f = SampledMatrixFunction(g, vals)  # node-first input: copied once into node-last storage
    assert f.data.shape == (3, 3, 64) and f.data.flags.c_contiguous
    assert f.samples.shape == (64, 3, 3) and np.array_equal(f.samples, vals)
    assert np.shares_memory(f.samples, f.data) and not np.shares_memory(f.data, vals)
    f.samples[5, 0, 2] = 7 - 1j
    assert f.data[0, 2, 5] == 7 - 1j
    f.samples[...] += 1.0
    assert f.data[0, 2, 5] == 8 - 1j
    # a samples view, and node-last storage, are adopted without a copy
    for h in (SampledMatrixFunction(g, f.samples), SampledMatrixFunction.node_last(g, f.data)):
        assert np.shares_memory(h.data, f.data) and h.data.flags.c_contiguous
    assert f.dims == (3, 3)


def test_closed_form_values_are_a_view_of_point_last_storage():
    cf = ClosedForm([[(Term((1.0,), (1j, 1.0), 0.5),), (Term((2.0,)),)],
                     [(), (Term((0.0, 1.0), (2j, 0.0, 1.0)),)]])
    g = MobiusGrid.build(128)
    vals = cf(g.x_nodes)
    assert vals.shape == (128, 2, 2)
    assert np.moveaxis(vals, 0, -1).flags.c_contiguous
    assert np.shares_memory(SampledMatrixFunction(g, vals).data, vals)
    assert np.array_equal(sample(cf, g).samples, vals)
    z = g.x_nodes.reshape(8, 16)
    assert np.array_equal(cf(z).reshape(128, 2, 2), vals)
    assert cf(0.25).shape == (2, 2) and np.array_equal(cf(0.25), cf(np.array([0.25]))[0])


def test_every_layer_returns_node_last_storage(monkeypatch):
    g = MobiusGrid.build(256)
    inst = example2x2.build_example(0.15)
    m0 = sample(inst.M0, g)
    bare = SampledMatrixFunction(g, m0.samples)  # no closed form: the FFT resample path
    other = sample(inst.M0_plus, g)
    for f in (m0, bare + other, bare - other, -bare, 2j * bare, bare @ other,
              cauchy.resample(m0, 2), cauchy.resample(bare, 2), cauchy.resample(bare, 3),
              rbvp.shift_density(bare, 2), rbvp.shift_density(m0, -1)):
        assert _is_node_last(f, f.grid.n_points), f
    plus, minus, _ = cauchy.mode_split(bare.samples)
    modes = cauchy.step_modes(bare.samples)
    for a in (plus, minus, modes.plus, modes.minus):
        assert a.shape == (256, 2, 2) and _is_node_last(a, 256)
    lam0 = engine.build_lambda0(rbvp.split_indices((1, 0)), g)
    sol = rbvp.solve_step(bare, [1, 0], np.zeros((1, 2)))
    assert _is_node_last(sol.n_plus, 256) and _is_node_last(sol.n_minus, 256)

    remainders = []
    real_next = engine.next_remainder

    def recording(steps):
        remainders.append(real_next(steps))
        return remainders[-1]

    monkeypatch.setattr(engine, "next_remainder", recording)
    res = engine.run_factorization(lam0, m0, rbvp.split_indices((1, 0)), 3, refine_check=2)
    assert len(remainders) == 2
    terms = [f for step in res.steps for f in (step.n_plus, step.n_minus)]
    for f in [res.h_minus, res.h_plus, res.lambda_factor] + terms + remainders:
        assert _is_node_last(f, 256)


# the node-first formulas the node-last kernels replace


def _old_node_matmul(a, b):
    out = a[..., :, :1] * b[..., :1, :]
    for l in range(1, a.shape[-1]):
        out += a[..., :, l:l + 1] * b[..., l:l + 1, :]
    return out


def _old_mode_split(samples):
    raw = np.fft.fft(samples, axis=0)
    n = raw.shape[0]
    h = (n + 1) // 2
    c0 = raw[0] / n
    plus = np.zeros_like(raw)
    plus[1:h] = raw[1:h]
    plus = np.fft.ifft(plus, axis=0)
    raw[:h] = 0
    return plus, np.fft.ifft(raw, axis=0), c0


def _old_resample(samples, factor):
    n = samples.shape[0]
    big_n = n * factor
    p = np.rint(np.fft.fftfreq(n) * n).astype(int)
    shape = (n,) + (1,) * (samples.ndim - 1)
    c = np.fft.fft(samples, axis=0) / n * np.exp(-1j * np.pi * p / n).reshape(shape)
    big = np.zeros((big_n,) + samples.shape[1:], dtype=complex)
    big[p % big_n] = c * np.exp(1j * np.pi * p / big_n).reshape(shape)
    return np.fft.ifft(big * big_n, axis=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("n_points", [256, 257])
def test_node_last_kernels_keep_the_node_first_bits(n, n_points):
    rng = np.random.default_rng(30 + 7 * n + n_points)
    a = _random_complex(rng, (n_points, n, n))
    b = _random_complex(rng, (n_points, n, n))
    a_view, b_view = _node_last_view(a), _node_last_view(b)
    assert np.array_equal(node_matmul(a_view, b_view), _old_node_matmul(a, b))
    got = cauchy.mode_split(a_view)
    for new, old in zip(got, _old_mode_split(a.copy())):
        assert np.array_equal(new, old)
    g = MobiusGrid.build(n_points)
    fine = cauchy.resample(SampledMatrixFunction(g, a_view), 2)
    assert np.array_equal(fine.samples, _old_resample(a, 2))


def test_mode_sums_over_several_blocks():
    # more bins than one block of the mode sums, with the plus range ending
    # inside a block: the blocked sums match the full twisted spectrum's
    n_points = 2 * cauchy._SUM_BLOCK + 101
    rng = np.random.default_rng(5)
    s = _random_complex(rng, (n_points, 2, 2)) / (1 + np.arange(n_points))[:, None, None]
    p = np.rint(np.fft.fftfreq(n_points) * n_points).astype(int)
    c = np.fft.fft(s, axis=0) / n_points * np.exp(-1j * np.pi * p / n_points)[:, None, None]
    h = (n_points + 1) // 2
    modes = cauchy.step_modes(_node_last_view(s))
    np.testing.assert_allclose(modes.plus_sum, c[1:h].sum(axis=0), rtol=1e-13, atol=0)
    np.testing.assert_allclose(modes.limit, c.sum(axis=0), rtol=1e-13, atol=0)
    assert np.array_equal(modes.plus_sum, cauchy.plus_coefficient_sum(s))
    assert np.array_equal(modes.limit, cauchy.limit_estimate(s))


@pytest.mark.parametrize("strategy", ["canonical-zero", "minimize-remainder-infinity"])
def test_small_run_passes_the_bench_api_check(strategy):
    checks = _bench_module("checks")
    g = MobiusGrid.build(512)
    profile = rbvp.split_indices((1, 0))
    lam0 = engine.build_lambda0(profile, g)
    m0 = sample(example2x2.build_example(0.1).M0, g)
    res = engine.run_factorization(lam0, m0, profile, 3, strategy=strategy, refine_check=2)
    checks.check_api_result(res, lam0, m0)
    # and the check still sees a broken node identity
    res.steps[1].solution.n_minus.samples[3] += 1e-6
    with pytest.raises(checks.CheckError, match="step 2"):
        checks.check_api_result(res, lam0, m0)


def test_tracer_layers_resolve():
    # every name the per-layer trace wraps still exists, looked up as
    # Tracer.install looks it up; nothing is installed
    tracer = _bench_module("tracer")
    for name, (mod_name, attr) in tracer.LAYERS.items():
        mod = importlib.import_module(f"whfactor.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(mod, cls_name).__dict__.get(meth)), name
        else:
            assert callable(getattr(mod, attr, None)), name
    # the FFT counter swaps the numpy that whfactor.cauchy calls through
    assert cauchy.np is np
