"""Grids on the compactified real line and sampled matrix functions.

The Moebius map w = (x-i)/(x+i) carries the line onto the unit circle, with
x = infinity sitting at w = 1. All sampling lives on uniform midpoint angles
theta_j = (2j+1)*pi/n, which never hit w = 1 and keep the node set symmetric
under x -> -x for even n. Norms: a fixed sub-multiplicative matrix norm
(max absolute row sum) and the Hoelder norm with respect to the compactified
distance |1/(x1+i) - 1/(x2+i)| = |w1 - w2|/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def mobius_forward(x):
    """(x-i)/(x+i), real line to unit circle. Preserves extended precision."""
    x = np.asanyarray(x)
    return (x - 1j) / (x + 1j)


def mobius_inverse(w):
    """i(1+w)/(1-w), unit circle (w != 1) back to the real line."""
    w = np.asanyarray(w)
    return 1j * (1 + w) / (1 - w)


@dataclass(frozen=True, eq=False)
class MobiusGrid:
    n_points: int
    theta_nodes: np.ndarray
    w_nodes: np.ndarray
    x_nodes: np.ndarray

    @classmethod
    def build(cls, n_points: int = 2048) -> "MobiusGrid":
        n = int(n_points)
        if n < 4:
            raise ValueError("n_points must be at least 4")
        theta = (2 * np.arange(n) + 1) * np.pi / n
        w = np.exp(1j * theta)
        # x = -cot(theta/2); monotone increasing, exact +/- pairing for even n
        x = -np.cos(theta / 2) / np.sin(theta / 2)
        return cls(n, theta, w, x)

    def spacing_at(self, x) -> np.ndarray:
        """Local node spacing on the line, pi*(1+x^2)/n."""
        x = np.asanyarray(x)
        return np.pi * (1 + x**2) / self.n_points

    @staticmethod
    def extreme_x(n_points: int) -> float:
        """Largest |x| node of an n-point grid, cot(pi/(2n)), without building it."""
        return 1.0 / np.tan(np.pi / (2 * int(n_points)))


@dataclass(eq=False)
class SampledMatrixFunction:
    """n x n matrix function stored as (N, n, n) samples on a MobiusGrid.

    closed_form, when present, is a callable z -> values of the same shape; it
    is carried through the pointwise algebra whenever both operands have one.
    Instances are treated as immutable.
    """

    grid: MobiusGrid
    samples: np.ndarray
    closed_form: Optional[Callable] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 3 or self.samples.shape[0] != self.grid.n_points:
            raise ValueError(f"samples must be (N, n, n) with N = {self.grid.n_points}")
        if self.samples.shape[1] != self.samples.shape[2]:
            raise ValueError("matrix samples must be square")

    @property
    def dims(self):
        return self.samples.shape[1:]

    def _check_grid(self, other: "SampledMatrixFunction"):
        if self.grid is not other.grid and self.grid.n_points != other.grid.n_points:
            raise ValueError("operands live on different grids")

    def __add__(self, other: "SampledMatrixFunction") -> "SampledMatrixFunction":
        self._check_grid(other)
        cf = None
        if self.closed_form is not None and other.closed_form is not None:
            cf = self.closed_form + other.closed_form
        return SampledMatrixFunction(self.grid, self.samples + other.samples, cf)

    def __sub__(self, other: "SampledMatrixFunction") -> "SampledMatrixFunction":
        self._check_grid(other)
        cf = None
        if self.closed_form is not None and other.closed_form is not None:
            cf = self.closed_form - other.closed_form
        return SampledMatrixFunction(self.grid, self.samples - other.samples, cf)

    def __neg__(self) -> "SampledMatrixFunction":
        cf = -self.closed_form if self.closed_form is not None else None
        return SampledMatrixFunction(self.grid, -self.samples, cf)

    def __matmul__(self, other: "SampledMatrixFunction") -> "SampledMatrixFunction":
        self._check_grid(other)
        cf = None
        if self.closed_form is not None and other.closed_form is not None:
            cf = self.closed_form @ other.closed_form
        return SampledMatrixFunction(self.grid, self.samples @ other.samples, cf)

    def __mul__(self, c) -> "SampledMatrixFunction":
        c = complex(c)
        cf = self.closed_form * c if self.closed_form is not None else None
        return SampledMatrixFunction(self.grid, self.samples * c, cf)

    __rmul__ = __mul__


def sample(closed_form: Callable, grid: MobiusGrid) -> SampledMatrixFunction:
    """Evaluate a closed form on the grid nodes, keeping the evaluator."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(closed_form(grid.x_nodes), dtype=complex)
    if vals.ndim != 3 or vals.shape[0] != grid.n_points:
        raise ValueError("evaluator must return (N, n, n) matrices on the node set")
    bad = ~np.isfinite(vals)
    if bad.any():
        j = int(np.argwhere(bad.any(axis=(1, 2)))[0, 0])
        raise ValueError(f"evaluator returned a non-finite value at node x = {grid.x_nodes[j]!r}")
    return SampledMatrixFunction(grid, vals, closed_form)


def matrix_norm(a: np.ndarray) -> np.ndarray:
    """Max absolute row sum, over the trailing two axes."""
    a = np.asarray(a)
    return np.abs(a).sum(axis=-1).max(axis=-1)


def sup_norm(f: SampledMatrixFunction) -> float:
    return float(matrix_norm(f.samples).max())


@dataclass(frozen=True)
class HoelderEstimate:
    mu: float
    sup_part: float
    seminorm_part: float
    total: float


def hoelder_norm(f: SampledMatrixFunction, mu: float) -> HoelderEstimate:
    """Grid estimate (a lower bound) of the Hoelder norm in H_mu.

    seminorm = max over node pairs of ||F(x1) - F(x2)|| / d(x1, x2)^mu with the
    chordal distance d = |w1 - w2|/2; fidelity is controlled by the grid size.

    The result equals the full O(N^2) pair scan bit for bit, but most pairs
    are pruned. The nodes are split into blocks of contiguous indices; each
    block gets a centre C (midpoint of its entry-wise bounding box) and a
    radius R = max ||F_j - C||. For a pair of blocks, every ratio is at most
    min(R_I + ||C_I - C_J|| + R_J, 2 sup) / sin(pi L / N)^mu, where L is the
    smallest circular index lag between the blocks. Block pairs are visited
    from the largest bound down and evaluated with the pair-scan formula
    until the next bound is no larger than the best ratio found. A relative
    margin on every bound covers its rounding.
    """
    if not 0 < mu <= 1:
        raise ValueError("mu must lie in (0, 1]")
    s = f.samples
    w = f.grid.w_nodes
    n = f.grid.n_points
    sup_part = float(matrix_norm(s).max())
    b = max(16, n // 512)  # blocks of 16 nodes; about 512 blocks on large grids
    starts = np.arange(0, n, b)
    last = np.minimum(starts + b, n) - 1
    # (blocks, b) node indices; a short last block repeats its last node
    idx = np.minimum(starts[:, None] + np.arange(b), n - 1)
    sb, wb = s[idx], w[idx]

    centre = (sb.real.max(axis=1) + sb.real.min(axis=1)) / 2 + 1j * (
        (sb.imag.max(axis=1) + sb.imag.min(axis=1)) / 2
    )
    radius = matrix_norm(sb - centre[:, None]).max(axis=1)
    bi, bj = np.triu_indices(len(starts))
    # smallest circular lag: the nearer end of the lag range; 1 within a block
    lag = np.maximum(np.minimum(starts[bj] - last[bi], n - (last[bj] - starts[bi])), 1)
    num = np.minimum(radius[bi] + matrix_norm(centre[bi] - centre[bj]) + radius[bj], 2 * sup_part)
    bound = num / np.sin(np.pi * lag / n) ** mu * (1 + 1e-9)
    order = np.argsort(-bound)
    bi, bj, bound = bi[order], bj[order], bound[order]

    semi = 0.0
    step = max(1, (1 << 15) // (b * b))  # about 32k node pairs per batch
    for at in range(0, len(bound), step):
        if bound[at] <= semi:
            break
        ii, jj = bi[at : at + step], bj[at : at + step]
        diff = matrix_norm(sb[ii][:, :, None] - sb[jj][:, None, :])
        dist = np.abs(wb[ii][:, :, None] - wb[jj][:, None, :]) / 2
        dist[dist == 0] = 1.0  # a node (or its padded copy) with itself: diff 0 anyway
        semi = max(semi, float((diff / dist**mu).max()))
    return HoelderEstimate(mu, sup_part, semi, sup_part + semi)
