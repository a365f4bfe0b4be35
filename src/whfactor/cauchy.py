"""Corrected Cauchy operators on the real line via circle Fourier algebra.

With w = (t-i)/(t+i) and v = (z-i)/(z+i), the corrected kernel obeys

    (z-i)/((t-i)(t-z)) dt = v dw / (w (w - v)),

so the operator Omega0[m](z) = (z-i)/(2 pi i) * integral m(t) dt/((t-i)(t-z))
is the circle Cauchy integral of the transplanted density minus its value at
v = 0. On the midpoint grid this reduces to splitting the DFT modes c_p of
the samples: the upper boundary value is the p > 0 part, the lower one is
minus the p < 0 part minus c_0, and their difference reproduces the samples
exactly at the nodes (discrete inversion identity). The normalization
Omega0+[m](i) = 0 is structural: the plus part has no zero mode.

Off the line the same quadrature is a single weighted sum over the nodes,
accurate once z keeps clear of the sampled axis.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .grid import MobiusGrid, SampledMatrixFunction, node_sum, sample as _sample


class AccuracyError(RuntimeError):
    """Evaluation request outside the quadrature's trust region."""


def _signed_modes(n: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


# Samples are passed around node axis first, (N, ...), as
# SampledMatrixFunction.samples shows them, and stored node-last. Every
# transform below works on the node axis moved last: for a `samples` view
# that is the contiguous storage itself, and results are again node-last
# arrays, handed back as their (N, ...) views.


def _node_last(samples) -> np.ndarray:
    return np.moveaxis(np.asarray(samples, dtype=complex), 0, -1)


def _spectrum(samples) -> np.ndarray:
    """DFT bins of (N, ...) samples along the node axis, as a C-contiguous (..., N) array."""
    x = _node_last(samples)
    return np.fft.fft(x, axis=-1, out=np.empty(x.shape, dtype=complex))


def _twist(raw: np.ndarray, p: np.ndarray, n: int, out=None) -> np.ndarray:
    """True circle modes c_p from the DFT bins p of an n-point grid: raw / n times exp(-i p pi / n).

    raw holds the bins along its last axis; the result is written into out
    when given, and out may be raw itself.
    """
    c = np.divide(raw, n, out=out)
    c *= np.exp(-1j * np.pi * p / n)
    return c


def _split(raw: np.ndarray):
    """(plus, minus, c0) from the DFT bins (last axis); raw is reused for the minus half.

    Bins [1:h] hold the modes p > 0 and [:h] those p >= 0, h = (N+1)//2.
    """
    n = raw.shape[-1]
    h = (n + 1) // 2
    c0 = raw[..., 0] / n
    plus = np.zeros_like(raw)
    plus[..., 1:h] = raw[..., 1:h]
    np.fft.ifft(plus, axis=-1, out=plus)
    raw[..., :h] = 0
    np.fft.ifft(raw, axis=-1, out=raw)
    return plus, raw, c0


_SUM_BLOCK = 1 << 13  # bins per block of the mode sums


def _mode_sums(raw: np.ndarray):
    """(sum_{p>0} c_p, sum_p c_p) from the DFT bins (last axis), block by block.

    These are the plus part and the density at x = infinity. The twisted
    modes c_p are formed for one block of bins at a time, so no full-size
    twisted spectrum is held. Each block is summed along its contiguous
    last axis, pairwise as numpy sums it, and the block sums are added in
    order of the bins.
    """
    n = raw.shape[-1]
    h = (n + 1) // 2
    p = _signed_modes(n)
    plus = total = None
    for k in range(0, n, _SUM_BLOCK):
        c = _twist(raw[..., k:k + _SUM_BLOCK], p[k:k + _SUM_BLOCK], n)
        block = c.sum(axis=-1)
        total = block if total is None else total + block
        lo, hi = max(k, 1) - k, min(k + c.shape[-1], h) - k  # the block's bins with p > 0
        if lo < hi:
            part = block if hi - lo == c.shape[-1] else c[..., lo:hi].sum(axis=-1)
            plus = part if plus is None else plus + part
    return plus, total


def mode_split(samples: np.ndarray):
    """Split node samples into (plus, minus, c0).

    plus_j = sum_{p>0} c_p w_j^p, minus_j = sum_{p<0} c_p w_j^p, and c0 is the
    mean mode; plus + minus + c0 = samples to rounding. The midpoint phase
    twist exp(-i p pi / N) relating DFT bins to circle modes cancels in these
    node-space projections, so only masking is needed.
    """
    plus, minus, c0 = _split(_spectrum(samples))
    return np.moveaxis(plus, -1, 0), np.moveaxis(minus, -1, 0), c0


def plus_coefficient_sum(samples: np.ndarray) -> np.ndarray:
    """sum_{p>0} c_p, the value at infinity of the upper boundary function."""
    return _mode_sums(_spectrum(samples))[0]


def limit_estimate(samples: np.ndarray) -> np.ndarray:
    """Trigonometric estimate of the density's limit at x = infinity (theta = 0)."""
    return _mode_sums(_spectrum(samples))[1]


@dataclass(eq=False)
class StepModes:
    """What one solver step needs from its density, all from one forward FFT.

    plus, minus and c0 are mode_split's, plus and minus as (N, n, n) views
    of node-last arrays; plus_sum is plus_coefficient_sum's and limit is
    limit_estimate's, bit for bit.
    """

    plus: np.ndarray
    minus: np.ndarray
    c0: np.ndarray
    plus_sum: np.ndarray
    limit: np.ndarray


def step_modes(samples: np.ndarray) -> StepModes:
    """Transform the samples once and derive the split and both mode sums."""
    raw = _spectrum(samples)
    plus_sum, limit = _mode_sums(raw)
    plus, minus, c0 = _split(raw)
    return StepModes(np.moveaxis(plus, -1, 0), np.moveaxis(minus, -1, 0), c0, plus_sum, limit)


def limit_or_estimate(m: SampledMatrixFunction, estimate: np.ndarray) -> np.ndarray:
    """Limit of m at x = infinity: exact from its closed form when that has one.

    Otherwise (no closed form, or one that oscillates or grows) the
    trigonometric estimate sum_p c_p, which the caller has already computed.
    """
    cf = m.closed_form
    if cf is not None and hasattr(cf, "limit_at_infinity"):
        try:
            return np.asarray(cf.limit_at_infinity(), dtype=complex)
        except ValueError:
            pass
    return np.asarray(estimate, dtype=complex)


def singular_S0(m: SampledMatrixFunction) -> SampledMatrixFunction:
    """Corrected principal-value operator, S0[m] = Omega0+[m] + Omega0-[m]."""
    plus, minus, c0 = mode_split(m.samples)
    return SampledMatrixFunction(m.grid, plus - minus - c0)


def cauchy_off_line(m: SampledMatrixFunction, z: complex) -> np.ndarray:
    """Omega0[m](z) for z strictly off the real line.

    One weighted node sum evaluates both half-planes; the weights are the
    transplanted kernel v/(w - v), rewritten through u = 1/v for |v| > 1 so
    that z near -i (v near infinity) stays stable. Exactly at z = i the result
    is the zero matrix, the built-in normalization.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must lie off the real line")
    guard = 10 * np.pi * (1 + z.real**2) / m.grid.n_points
    if abs(z.imag) < guard:
        raise AccuracyError(
            f"z = {z} is closer to the axis than 10 node spacings ({guard:.3g}); refine the grid"
        )
    w = m.grid.w_nodes
    if abs(z - 1j) <= abs(z + 1j):  # |v| <= 1, upper half-plane branch
        v = (z - 1j) / (z + 1j)
        weights = v / (w - v)
    else:
        u = (z + 1j) / (z - 1j)
        weights = -1.0 / (1.0 - w * u)
    return node_sum(weights, m.samples) / m.grid.n_points


def resample(m: SampledMatrixFunction, factor: int) -> SampledMatrixFunction:
    """Carry samples to a factor-times finer midpoint grid.

    Uses the exact closed form when the function has one; otherwise
    trigonometric interpolation by zero-padding the circle modes (midpoint
    phase twists applied on both grids).
    """
    factor = int(factor)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return m
    return _resample_to(m, MobiusGrid.build(m.grid.n_points * factor))


def _resample_to(m: SampledMatrixFunction, fine: MobiusGrid) -> SampledMatrixFunction:
    """`resample` onto a finer grid the caller built, so that several functions share it."""
    if m.closed_form is not None:
        return _sample(m.closed_form, fine)
    n, big_n = m.grid.n_points, fine.n_points
    p = _signed_modes(n)
    raw = _spectrum(m.samples)
    c = _twist(raw, p, n, out=raw)
    big = np.zeros(m.dims + (big_n,), dtype=complex)
    big[..., p % big_n] = c * np.exp(1j * np.pi * p / big_n)
    big *= big_n
    return SampledMatrixFunction.node_last(fine, np.fft.ifft(big, axis=-1, out=big))


def reference_densities():
    """Fixed bank of eight scalar test densities on the line.

    Rational and rational-times-exponential functions, Hoelder continuous on
    the compactified line (the last one has a nonzero limit at infinity).
    Used by the operator test suite and the empirical S0 norm bound.
    """
    return (
        ("pole_lower", lambda x: 1.0 / (x + 1j)),
        ("pole_upper", lambda x: 1.0 / (x - 1j)),
        ("even_rational", lambda x: 1.0 / (x**2 + 4)),
        ("odd_rational", lambda x: x / (x**2 + 1)),
        ("double_pole", lambda x: 1.0 / (x + 2j) ** 2),
        ("osc_plus", lambda x: np.exp(2j * x) / (x + 1j)),
        ("osc_minus", lambda x: np.exp(-1j * x) / (x - 2j)),
        ("unit_limit", lambda x: (x**2 + 3 - 2j) / (x**2 + 1)),
    )
