"""Corrected Cauchy operators on the real line via circle Fourier algebra.

With w = (t-i)/(t+i) and v = (z-i)/(z+i), the corrected kernel obeys

    (z-i)/((t-i)(t-z)) dt = v dw / (w (w - v)),

so the operator Omega0[m](z) = (z-i)/(2 pi i) * integral m(t) dt/((t-i)(t-z))
is the circle Cauchy integral of the transplanted density minus its value at
v = 0. On the midpoint grid this reduces to splitting the DFT modes c_p of
the samples: the upper boundary value is the p > 0 part, the lower one is
minus the p < 0 part minus c_0, and their difference reproduces the samples
exactly at the nodes (discrete inversion identity). So one forward FFT and
one inverse FFT, of the p > 0 bins alone, give both: the p < 0 part is the
samples minus the plus part minus c_0. The normalization Omega0+[m](i) = 0
is structural: the plus part has no zero mode.

Off the line the same quadrature is a single weighted sum over the nodes,
accurate once z keeps clear of the sampled axis.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .grid import MobiusGrid, SampledMatrixFunction, as_integer, node_sum, sample as _sample


class AccuracyError(RuntimeError):
    """Evaluation request outside the quadrature's trust region."""


def _signed_modes(n: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


@functools.lru_cache(maxsize=16)
def _twiddles(n: int, fine: Optional[int] = None) -> np.ndarray:
    """exp(-i pi p / n) over the signed modes p of an n-point grid, in bin order; read-only.

    That is the midpoint phase twist from DFT bins to circle modes. With
    fine, exp(+i pi p / fine) instead: the same modes twisted back on a
    fine-point grid. Both depend on the grid sizes only, so each is
    computed once.
    """
    p = _signed_modes(n)
    tw = np.exp(-1j * np.pi * p / n) if fine is None else np.exp(1j * np.pi * p / fine)
    tw.flags.writeable = False
    return tw


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


def _twist(raw: np.ndarray, twiddles: np.ndarray, n: int, out=None) -> np.ndarray:
    """True circle modes c_p from DFT bins of an n-point grid: raw / n times their twiddles.

    raw holds the bins along its last axis and twiddles the matching
    exp(-i p pi / n); the result is written into out when given, and out
    may be raw itself.
    """
    c = np.divide(raw, n, out=out)
    c *= twiddles
    return c


def _split(raw: np.ndarray):
    """(plus, c0) from the DFT bins (last axis); plus overwrites raw.

    Bins [1:h] hold the modes p > 0, h = (N+1)//2: the others are zeroed in
    place and one inverse FFT gives the plus part at the nodes. The minus
    part is then the samples minus plus minus c0 (discrete inversion).
    """
    n = raw.shape[-1]
    h = (n + 1) // 2
    c0 = raw[..., 0] / n
    raw[..., 0] = 0
    raw[..., h:] = 0
    return np.fft.ifft(raw, axis=-1, out=raw), c0


def _mode_sums(raw: np.ndarray):
    """(sum_{p>0} c_p, sum_p c_p) from the DFT bins (last axis), which it leaves alone.

    These are the plus part and the density at x = infinity: the twisted
    modes c_p are formed once, in a temporary of raw's size, and summed
    along their contiguous last axis, pairwise as numpy sums.
    """
    n = raw.shape[-1]
    c = _twist(raw, _twiddles(n), n)
    return c[..., 1:(n + 1) // 2].sum(axis=-1), c.sum(axis=-1)


def mode_split(samples: np.ndarray):
    """Split node samples into (plus, minus, c0).

    plus_j = sum_{p>0} c_p w_j^p, minus_j = sum_{p<0} c_p w_j^p, and c0 is the
    mean mode. The midpoint phase twist exp(-i p pi / N) relating DFT bins to
    circle modes cancels in these node-space projections, so only masking is
    needed. minus is taken as samples - plus - c0, so plus + minus + c0 =
    samples to one rounding.
    """
    plus, c0 = _split(_spectrum(samples))
    minus = np.subtract(_node_last(samples), plus)
    minus -= c0[..., None]
    return np.moveaxis(plus, -1, 0), np.moveaxis(minus, -1, 0), c0


def plus_coefficient_sum(samples: np.ndarray) -> np.ndarray:
    """sum_{p>0} c_p, the value at infinity of the upper boundary function."""
    return _mode_sums(_spectrum(samples))[0]


def limit_estimate(samples: np.ndarray) -> np.ndarray:
    """Trigonometric estimate of the density's limit at x = infinity (theta = 0)."""
    return _mode_sums(_spectrum(samples))[1]


def limit_or_estimate(m: SampledMatrixFunction, estimate: np.ndarray) -> np.ndarray:
    """Limit of m at x = infinity: exact from its closed form when that has one.

    Otherwise, when m has no closed form or one that oscillates or grows,
    the trigonometric estimate sum_p c_p, which the caller has already
    computed.
    """
    cf = m.closed_form
    if cf is not None and hasattr(cf, "limit_at_infinity"):
        try:
            return np.asarray(cf.limit_at_infinity(), dtype=complex)
        except ValueError:
            pass
    return np.asarray(estimate, dtype=complex)


def singular_S0(m: SampledMatrixFunction) -> SampledMatrixFunction:
    """Corrected principal-value operator, S0[m] = Omega0+[m] + Omega0-[m].

    At the nodes that is plus - minus - c0 = 2 plus - m, by the discrete
    inversion identity.
    """
    plus, _ = _split(_spectrum(m.samples))
    plus *= 2
    return SampledMatrixFunction.node_last(m.grid, np.subtract(plus, m.data, out=plus))


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
    factor = as_integer(factor, "factor")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return m
    return _resample_to(m, MobiusGrid.build(m.grid.n_points * factor))


def _resample_to(m: SampledMatrixFunction, fine: MobiusGrid) -> SampledMatrixFunction:
    """`resample` onto a finer grid the caller built, so that several functions share it.

    Each matrix entry is carried inside its own row of the fine array: its
    DFT bins are taken into the row's head and twisted there, the n - h
    modes p < 0 move to the row's tail and the h modes p >= 0 stay in
    front, each untwisted for the fine grid, the bins between are zeroed,
    and one inverse FFT in place gives the row's fine samples. So the fine
    array is the only array a resample allocates.
    """
    if m.closed_form is not None:
        return _sample(m.closed_form, fine)
    n, big_n = m.grid.n_points, fine.n_points
    h = (n + 1) // 2
    twist, untwist = _twiddles(n), _twiddles(n, big_n)
    tail = big_n - (n - h)
    big = np.empty(m.dims + (big_n,), dtype=complex)
    for entry, row in zip(m.data.reshape(-1, n), big.reshape(-1, big_n)):
        head = row[:n]
        _twist(np.fft.fft(entry, out=head), twist, n, out=head)
        for bins, fine_bins in ((slice(0, h), slice(0, h)), (slice(h, n), slice(tail, big_n))):
            part = np.multiply(head[bins], untwist[bins], out=row[fine_bins])
            part *= big_n
        row[h:tail] = 0
        np.fft.ifft(row, out=row)
    return SampledMatrixFunction.node_last(fine, big)


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
