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
from typing import Optional

import numpy as np

from .grid import MobiusGrid, SampledMatrixFunction, node_sum, sample as _sample


class AccuracyError(RuntimeError):
    """Evaluation request outside the quadrature's trust region."""


def _signed_modes(n: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def _along_nodes(v: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-mode vector to broadcast against (N, ...) samples."""
    return v.reshape((len(v),) + (1,) * (ndim - 1))


def _twist(raw: np.ndarray, p: np.ndarray, out=None) -> np.ndarray:
    """True circle modes c_p from the DFT bins: raw / N times exp(-i p pi / N).

    Written into out when given; out may be raw itself.
    """
    n = raw.shape[0]
    c = np.divide(raw, n, out=out)
    c *= _along_nodes(np.exp(-1j * np.pi * p / n), raw.ndim)
    return c


def _split(raw: np.ndarray):
    """(plus, minus, c0) from the DFT bins; raw is reused for the minus half.

    Bins [1:h] hold the modes p > 0 and [:h] those p >= 0, h = (N+1)//2.
    """
    n = raw.shape[0]
    h = (n + 1) // 2
    c0 = raw[0] / n
    plus = np.zeros_like(raw)
    plus[1:h] = raw[1:h]
    np.fft.ifft(plus, axis=0, out=plus)
    raw[:h] = 0
    np.fft.ifft(raw, axis=0, out=raw)
    return plus, raw, c0


def _coefficient_sums(c: np.ndarray):
    """(sum_{p>0} c_p, sum_p c_p): the plus part and the density at x = infinity."""
    return c[1:(c.shape[0] + 1) // 2].sum(axis=0), c.sum(axis=0)


def mode_split(samples: np.ndarray):
    """Split node samples into (plus, minus, c0).

    plus_j = sum_{p>0} c_p w_j^p, minus_j = sum_{p<0} c_p w_j^p, and c0 is the
    mean mode; plus + minus + c0 = samples to rounding. The midpoint phase
    twist exp(-i p pi / N) relating DFT bins to circle modes cancels in these
    node-space projections, so only masking is needed.
    """
    samples = np.asarray(samples, dtype=complex)
    return _split(np.fft.fft(samples, axis=0))


def _circle_coefficients(samples: np.ndarray):
    """True circle modes c_p (phase twist applied) and their indices p."""
    samples = np.asarray(samples, dtype=complex)
    p = _signed_modes(samples.shape[0])
    raw = np.fft.fft(samples, axis=0)
    return _twist(raw, p, out=raw), p


def plus_coefficient_sum(samples: np.ndarray) -> np.ndarray:
    """sum_{p>0} c_p, the value at infinity of the upper boundary function."""
    return _coefficient_sums(_circle_coefficients(samples)[0])[0]


def zeroth_mode(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=complex)
    return samples.mean(axis=0)


def limit_estimate(samples: np.ndarray) -> np.ndarray:
    """Trigonometric estimate of the density's limit at x = infinity (theta = 0)."""
    return _coefficient_sums(_circle_coefficients(samples)[0])[1]


@dataclass(eq=False)
class StepModes:
    """What one solver step needs from its density, all from one forward FFT.

    plus, minus and c0 are mode_split's; plus_sum is plus_coefficient_sum's
    and limit is limit_estimate's, bit for bit.
    """

    plus: np.ndarray
    minus: np.ndarray
    c0: np.ndarray
    plus_sum: np.ndarray
    limit: np.ndarray


def step_modes(samples: np.ndarray) -> StepModes:
    """Transform the samples once and derive the split and both mode sums."""
    samples = np.asarray(samples, dtype=complex)
    p = _signed_modes(samples.shape[0])
    raw = np.fft.fft(samples, axis=0)
    plus_sum, limit = _coefficient_sums(_twist(raw, p))
    plus, minus, c0 = _split(raw)
    return StepModes(plus, minus, c0, plus_sum, limit)


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


def boundary_pair(m: SampledMatrixFunction):
    """Boundary values (Omega0+, Omega0-) of the corrected Cauchy integral.

    Omega+ - Omega- = m holds at every node by construction, and
    2*Omega+- = +-m + S0[m].
    """
    plus, minus, c0 = mode_split(m.samples)
    om_plus = SampledMatrixFunction(m.grid, plus)
    om_minus = SampledMatrixFunction(m.grid, -minus - c0)
    return om_plus, om_minus


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
    c, p = _circle_coefficients(m.samples)
    big = np.zeros((fine.n_points,) + m.samples.shape[1:], dtype=complex)
    big[p % fine.n_points] = c * _along_nodes(np.exp(1j * np.pi * p / fine.n_points), c.ndim)
    vals = np.fft.ifft(big * fine.n_points, axis=0)
    return SampledMatrixFunction(fine, vals)


@dataclass(eq=False)
class HalfPlaneFunction:
    """Analytic matrix function on one half-plane.

    Represents diag(v^(-row_powers)) * (sign * Omega0[density](z) + constant_shift)
    with v = (z-i)/(z+i); boundary holds its trace on the grid nodes. The
    canonical shift (zero matrix) on the upper side vanishes at z = i.
    """

    half_plane: str  # "upper" or "lower"
    boundary: SampledMatrixFunction
    density: SampledMatrixFunction
    constant_shift: np.ndarray
    sign: int = 1
    row_powers: Optional[np.ndarray] = None

    def evaluate(self, z: complex) -> np.ndarray:
        z = complex(z)
        if self.half_plane == "upper" and z.imag <= 0:
            raise ValueError("function is analytic in the upper half-plane only")
        if self.half_plane == "lower" and z.imag >= 0:
            raise ValueError("function is analytic in the lower half-plane only")
        val = self.sign * cauchy_off_line(self.density, z) + self.constant_shift
        if self.row_powers is not None and np.any(self.row_powers):
            u = (z + 1j) / (z - 1j)  # 1/v, finite away from z = i
            val = (u ** np.asarray(self.row_powers))[:, None] * val
        return val

    def value_at_infinity(self) -> np.ndarray:
        plus_sum, estimate = _coefficient_sums(_circle_coefficients(self.density.samples)[0])
        if self.half_plane == "upper":
            base = plus_sum
        else:
            base = plus_sum - limit_or_estimate(self.density, estimate)
        return self.sign * base + self.constant_shift


@dataclass(eq=False)
class JumpSolution:
    a_plus: HalfPlaneFunction
    a_minus: HalfPlaneFunction
    constant: np.ndarray


def solve_jump(m: SampledMatrixFunction, c) -> JumpSolution:
    """Additive jump problem A+ + A- = m with A+ = Omega0+[m] - C, A- = -Omega0-[m] + C.

    The boundary sum reproduces m exactly at the nodes for every C.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape != m.dims:
        raise ValueError(f"constant must have shape {m.dims}")
    plus, minus, c0 = mode_split(m.samples)
    a_plus = HalfPlaneFunction(
        "upper",
        SampledMatrixFunction(m.grid, plus - c),
        m,
        -c,
        sign=1,
    )
    a_minus = HalfPlaneFunction(
        "lower",
        SampledMatrixFunction(m.grid, minus + c0 + c),
        m,
        c,
        sign=-1,
    )
    return JumpSolution(a_plus, a_minus, c)


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
