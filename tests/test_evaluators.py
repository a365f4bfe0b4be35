"""Closed-form terms: rational-times-exponential algebra and limits."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from whfactor.evaluators import ClosedForm, Term
from whfactor.example2x2 import build_example, variant_constant
from whfactor.grid import MobiusGrid


def test_term_evaluates_rational_times_phase():
    # a term is evaluated as the one entry of a closed form (its complex path)
    t = Term((1.0, 2.0), (1.0, 1.0), 0.5)
    z = np.array([0.0, 1.0, -3.0 + 0.2j])
    direct = (1.0 + 2.0 * z) / (1.0 + z) * np.exp(0.5j * z)
    assert np.allclose(ClosedForm([[(t,)]])(z)[:, 0, 0], direct)


def test_term_defaults():
    t = Term((3.0,))
    assert (t.den, t.phase) == ((1 + 0j,), 0.0)
    assert np.allclose(ClosedForm([[(t,)]])(np.array([7.0, -1.0]))[:, 0, 0], 3.0)


def _random_cf(rng, shape=(2, 2)):
    entries = []
    for _ in range(shape[0]):
        row = []
        for _ in range(shape[1]):
            num = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            row.append((Term(num, (2j, 1.0)), Term((rng.standard_normal(),), (1.0, 0.0, 1.0))))
        entries.append(row)
    return ClosedForm(entries)


def test_closed_form_pointwise_algebra():
    rng = np.random.default_rng(3)
    a = _random_cf(rng)
    b = _random_cf(rng)
    z = rng.standard_normal(5) * 3
    assert np.allclose((a + b)(z), a(z) + b(z))
    assert np.allclose((a - b)(z), a(z) - b(z))
    assert np.allclose((a @ b)(z), a(z) @ b(z))
    assert np.allclose((a * (1 - 2j))(z), (1 - 2j) * a(z))


def test_call_shapes():
    cf = ClosedForm.identity(3)
    assert cf(0.5).shape == (3, 3)
    assert cf(np.zeros((4, 2))).shape == (4, 2, 3, 3)


def test_constant_identity_zeros():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    z = np.array([0.0, 5.0])
    assert np.allclose(ClosedForm.constant(c)(z), c)
    assert np.allclose(ClosedForm.identity(2)(z), np.eye(2))
    assert np.allclose(ClosedForm.zeros(2)(z), 0.0)


def test_mobius_power_diag():
    cf = ClosedForm.mobius_power_diag((1, 0))
    x = np.array([0.0, 1.0, -4.0])
    w = (x - 1j) / (x + 1j)
    vals = cf(x)
    assert np.allclose(vals[:, 0, 0], w)
    assert np.allclose(vals[:, 1, 1], 1.0)
    assert np.allclose(vals[:, 0, 1], 0.0)
    neg = ClosedForm.mobius_power_diag((-2,))
    assert np.allclose(neg(x)[:, 0, 0], w**-2)


def test_mobius_scale():
    rng = np.random.default_rng(5)
    a = _random_cf(rng)
    x = np.array([0.3, 2.0, -1.7])
    w = (x - 1j) / (x + 1j)
    scaled = a.mobius_scale(3)
    assert np.allclose(scaled(x), w[:, None, None] ** 3 * a(x))


def test_limit_at_infinity_cases():
    decaying = ClosedForm([[(Term((1.0,), (1j, 1.0)),)]])
    assert np.allclose(decaying.limit_at_infinity(), 0.0)
    ratio = ClosedForm([[(Term((1.0, 2.0), (3.0, 4.0)),)]])
    assert np.allclose(ratio.limit_at_infinity(), 0.5)
    # equal degree with an oscillating phase has no limit
    osc = ClosedForm([[(Term((1.0, 2.0), (3.0, 4.0), 1.0),)]])
    with pytest.raises(ValueError, match=r"\(0,0\)"):
        osc.limit_at_infinity()
    growing = ClosedForm([[(Term((0.0, 1.0)),)]])
    with pytest.raises(ValueError, match="no limit"):
        growing.limit_at_infinity()


def test_limit_sums_terms():
    cf = ClosedForm([[(Term((2.0, 1.0), (1.0, 1.0)), Term((5.0,), (1j, 1.0)))]])
    # 1 from the first term, 0 from the decaying one
    assert np.allclose(cf.limit_at_infinity(), 1.0)


def test_cancelling_terms_merge_to_zero():
    t = Term((1.0, -2.0), (1j, 1.0), 0.25)
    cf = ClosedForm([[(t,)]]) + ClosedForm([[(t.scaled(-1.0),)]])
    z = np.array([0.0, 1.5, -2.0])
    assert np.allclose(cf(z), 0.0)
    assert np.allclose(cf.limit_at_infinity(), 0.0)


def test_has_real_pole():
    assert not ClosedForm([[(Term((1.0,), (1.0, 0.0, 1.0)),)]]).has_real_pole()
    assert ClosedForm([[(Term((1.0,), (-2.0, 1.0)),)]]).has_real_pole()


def test_dict_round_trip():
    rng = np.random.default_rng(9)
    cf = _random_cf(rng)
    back = ClosedForm.from_dict(cf.to_dict())
    z = rng.standard_normal(6) * 2
    assert np.allclose(back(z), cf(z), atol=1e-14)


def test_from_dict_defaults():
    d = {"shape": [1, 1], "entries": [[[{"num": [[2.0, 0.0]]}]]]}
    cf = ClosedForm.from_dict(d)
    assert np.allclose(cf(np.array([0.0, 3.0])), 2.0)


def test_from_dict_rejects_malformed():
    with pytest.raises((ValueError, KeyError, TypeError)):
        ClosedForm.from_dict({"shape": [1, 1], "entries": [[[{"den": [[1.0, 0.0]]}]]]})
    with pytest.raises((ValueError, KeyError, TypeError)):
        ClosedForm.from_dict({"entries": []})


def _per_term_reference(cf, z):
    """ClosedForm.__call__ as a plain sum over terms, one polyval per use."""
    z = np.asarray(z, dtype=complex)
    n, m = cf.shape
    out = np.zeros(z.shape + (n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            acc = np.zeros_like(z)
            for t in cf.entries[i][j]:
                val = npoly.polyval(z, t.num) / npoly.polyval(z, t.den)
                acc += val * np.exp(1j * t.phase * z) if t.phase != 0.0 else val
            out[..., i, j] = acc
    return out


def test_closed_form_call_equals_per_term_sum():
    inst = build_example(0.1)
    c0 = variant_constant(1, 0.1).c0
    custom3 = []
    for p in range(3):
        row = []
        for q in range(3):
            k = 3 * p + q
            b = (0.8 + 0.15 * k) * (1 if k % 2 == 0 else -1)
            amp = (0.03 if p == q else 0.018) * np.exp(2j * np.pi * k / 9)
            row.append((Term((amp,), (1j * b, 1.0), -1.0 + 0.25 * k),))
        custom3.append(row)
    cases = [
        inst.M0,
        ClosedForm.mobius_power_diag((-1, 0)) @ (inst.M0_plus - ClosedForm.constant(c0)),
        inst.M0_minus + ClosedForm.constant(c0),
        ClosedForm(custom3).mobius_scale(-1),
    ]
    z = np.concatenate([np.linspace(-40.0, 40.0, 257), [0.3 + 2j, -1.5 - 0.5j]])
    for cf in cases:
        assert np.array_equal(cf(z), _per_term_reference(cf, z))


def _custom3_m0():
    """The custom3-style 3x3 M0: entries amp e^(i w x) / (x + i b), alternating poles."""
    rows = []
    for p in range(3):
        row = []
        for q in range(3):
            k = 3 * p + q
            b = (0.8 + 0.15 * k) * (1 if k % 2 == 0 else -1)
            amp = (0.03 if p == q else 0.018) * np.exp(2j * np.pi * k / 9)
            row.append((Term((amp,), (1j * b, 1.0), -1.0 + 0.25 * k),))
        rows.append(row)
    return ClosedForm(rows)


def test_real_node_path_equals_complex_path():
    cases = [
        ClosedForm.mobius_power_diag((2, 1, 0, -1, -2)),
        # both +a and -a phases, and a degree-2 denominator
        ClosedForm([[(Term((1.5 - 0.5j,), (2j, 1.0), 0.3), Term((-0.25j,), (1j, 1.0), -0.3)),
                     (Term((0.7, 2 - 1j), (1j, 0.0, 1.0), -0.3),)]]),
        # coefficients with -0.0 parts, kept apart from +0.0 ones
        ClosedForm([[(Term((complex(-0.0, 1.0), complex(2.0, -0.0)), (complex(1.0, -0.0), 0j, 1.0), 0.4),
                      Term((complex(3.0, -0.0),)),
                      Term((complex(-0.0, 2.0),), (complex(-0.0, 1.0), 1.0)))]]),
        _custom3_m0(),
        _custom3_m0().mobius_scale(-1),
    ]
    for phi in (0.2, 0.05):
        inst = build_example(phi)
        cases += [inst.M0, inst.M0_plus, inst.M0_minus, inst.G1]
        for vid in range(4):
            c0 = variant_constant(vid, phi).c0
            cases.append(ClosedForm.mobius_power_diag((-1, 0)) @ (inst.M0_plus - ClosedForm.constant(c0)))
            cases.append(inst.M0_minus + ClosedForm.constant(c0))
    # three evaluation blocks, the last of one point; both signed zeros
    x = np.concatenate([np.linspace(-300.0, 300.0, 16383), [0.0, -0.0]])
    inputs = [x, np.arange(-7, 8), np.array(0.7), np.array(-0.0), np.zeros(0)]
    for cf in cases:
        for pts in inputs:
            real = cf(pts)
            cplx = cf(np.asarray(pts, dtype=complex))
            assert real.shape == cplx.shape == np.shape(pts) + cf.shape
            assert np.array_equal(real, cplx)
            assert real.tobytes() == cplx.tobytes()  # the signs of zeros too
        z = x[::97] + 0.5j
        assert np.array_equal(cf(z), _per_term_reference(cf, z))


def test_each_entry_has_the_bits_of_its_own_evaluation():
    # entries share their quotients P/Q (and copy an equal earlier entry):
    # none of that may move a bit of any entry from its evaluation alone
    inst = build_example(0.3)
    shared = Term((0.4 - 1.2j, 0.5), (2j, 1.0))
    one_pq = ClosedForm([
        [(shared, Term(shared.num, shared.den, 0.8)), (Term(shared.num, shared.den, -0.8),)],
        [(shared, Term((2.5 + 1j,)), Term((2.5 + 1j,), phase=0.8)), (shared,)],
    ])
    cases = [inst.M0, inst.M0_plus, inst.M0_minus, _custom3_m0(), _custom3_m0().mobius_scale(-1),
             one_pq]
    # three evaluation blocks on the real nodes, the last one short
    x = MobiusGrid.build(2 * 8192 + 64).x_nodes
    z = np.concatenate([x[::64] + 0.5j, x[::97] - 2j])
    for cf in cases:
        for pts in (x, z):
            whole = cf(pts)
            n, m = cf.shape
            for i in range(n):
                for j in range(m):
                    alone = ClosedForm([[cf.entries[i][j]]])(pts)[..., 0, 0]
                    assert whole[..., i, j].tobytes() == alone.tobytes(), (i, j)
