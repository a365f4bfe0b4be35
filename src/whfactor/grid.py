"""Grids on the compactified real line and sampled matrix functions.

The Moebius map w = (x-i)/(x+i) carries the line onto the unit circle, with
x = infinity sitting at w = 1. All sampling lives on uniform midpoint angles
theta_j = (2j+1)*pi/n, which never hit w = 1 and keep the node set symmetric
under x -> -x for even n. Norms: a fixed sub-multiplicative matrix norm
(max absolute row sum) and the Hoelder norm with respect to the compactified
distance |1/(x1+i) - 1/(x2+i)| = |w1 - w2|/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def as_integer(v, name: str) -> int:
    """int(v) for a whole number v; any other v, such as 2.7, inf or nan, raises a ValueError."""
    try:
        i = int(v)
    except (OverflowError, ValueError):  # int(inf), int(nan)
        i = None
    if i is None or i != v:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return i


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
        n = as_integer(n_points, "n_points")
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


class SampledMatrixFunction:
    """n x n matrix function sampled on the N nodes of a MobiusGrid.

    The samples are stored node-last: `data` is one C-contiguous (n, n, N)
    array, so that products, node sums and FFTs all run along contiguous
    memory. `samples` is the (N, n, n) transposed view of that storage, and
    writes to it go through.

    The constructor takes (N, n, n) samples. A transposed view of
    C-contiguous (n, n, N) memory, such as another instance's `samples` or
    the values of a ClosedForm, is adopted without a copy; any other layout
    is copied once. `node_last` takes the (n, n, N) storage itself.

    closed_form, when present, is a callable z -> values of the same shape; it
    is carried through the pointwise algebra whenever both operands have one.
    Instances are treated as immutable.
    """

    def __init__(self, grid: MobiusGrid, samples, closed_form: Optional[Callable] = None):
        s = np.asarray(samples)
        if s.ndim != 3 or s.shape[0] != grid.n_points:
            raise ValueError(f"samples must be (N, n, n) with N = {grid.n_points}")
        if s.shape[1] != s.shape[2]:
            raise ValueError("matrix samples must be square")
        self.grid = grid
        self.data = np.ascontiguousarray(s.transpose(1, 2, 0), dtype=complex)
        self.closed_form = closed_form

    @classmethod
    def node_last(cls, grid: MobiusGrid, data, closed_form: Optional[Callable] = None):
        """An instance holding the (n, n, N) array data, without a copy when it is C-contiguous."""
        return cls(grid, np.moveaxis(data, -1, 0), closed_form)

    @property
    def samples(self) -> np.ndarray:
        """The (N, n, n) view of the node-last storage."""
        return self.data.transpose(2, 0, 1)

    @property
    def dims(self):
        return self.data.shape[:2]

    def _check_grid(self, other: "SampledMatrixFunction"):
        if self.grid is not other.grid and self.grid.n_points != other.grid.n_points:
            raise ValueError("operands live on different grids")

    def __add__(self, other: "SampledMatrixFunction") -> "SampledMatrixFunction":
        self._check_grid(other)
        cf = None
        if self.closed_form is not None and other.closed_form is not None:
            cf = self.closed_form + other.closed_form
        return SampledMatrixFunction.node_last(self.grid, self.data + other.data, cf)

    def __sub__(self, other: "SampledMatrixFunction") -> "SampledMatrixFunction":
        self._check_grid(other)
        cf = None
        if self.closed_form is not None and other.closed_form is not None:
            cf = self.closed_form - other.closed_form
        return SampledMatrixFunction.node_last(self.grid, self.data - other.data, cf)

    def __neg__(self) -> "SampledMatrixFunction":
        cf = -self.closed_form if self.closed_form is not None else None
        return SampledMatrixFunction.node_last(self.grid, -self.data, cf)

    def __matmul__(self, other: "SampledMatrixFunction") -> "SampledMatrixFunction":
        self._check_grid(other)
        cf = None
        if self.closed_form is not None and other.closed_form is not None:
            cf = self.closed_form @ other.closed_form
        product = _matmul_node_last(self.data, other.data)
        return SampledMatrixFunction.node_last(self.grid, product, cf)

    def __mul__(self, c) -> "SampledMatrixFunction":
        c = complex(c)
        cf = self.closed_form * c if self.closed_form is not None else None
        return SampledMatrixFunction.node_last(self.grid, self.data * c, cf)

    __rmul__ = __mul__


def node_values(closed_form: Callable, grid: MobiusGrid, nodes: slice = slice(None)) -> np.ndarray:
    """A closed form at the nodes x_nodes[nodes], as a C-contiguous (n, n, len) array.

    A ValueError names the first of those nodes where a value is not finite.
    """
    x = grid.x_nodes[nodes]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(closed_form(x), dtype=complex)
    if vals.ndim != 3 or vals.shape[0] != len(x):
        raise ValueError("evaluator must return (N, n, n) matrices on the node set")
    if vals.shape[1] != vals.shape[2]:
        raise ValueError("matrix samples must be square")
    data = np.ascontiguousarray(np.moveaxis(vals, 0, -1))
    finite = np.isfinite(data)
    if not finite.all():
        j = int(np.argmin(finite.all(axis=(0, 1))))
        raise ValueError(f"evaluator returned a non-finite value at node x = {x[j]!r}")
    return data


def sample(closed_form: Callable, grid: MobiusGrid) -> SampledMatrixFunction:
    """Evaluate a closed form on the grid nodes, keeping the evaluator."""
    return SampledMatrixFunction.node_last(grid, node_values(closed_form, grid), closed_form)


# ---------------------------------------------------------------------------
# node-wise kernels
#
# Products, determinants and node sums of sampled matrices are written with
# element-wise ufuncs in a fixed order of operations. `@`, np.linalg and
# np.tensordot hand the same work to BLAS/LAPACK, one call per node for tiny
# matrices, and round as the kernel the BLAS build picks for the CPU does;
# these give the same bits on every BLAS build of a given numpy. Stacks are
# taken node axis first, (N, n, m), as `samples` shows them; on `samples`
# views every call below runs along the contiguous node axis.


def _matmul_node_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Node-wise product of (n, k, N) and (k, m, N) arrays into a C-contiguous (n, m, N) one.

    Each entry is a product, then k - 1 products added to it in order of l,
    one ufunc call along the node axis each.
    """
    out = np.empty(a.shape[:1] + b.shape[1:2] + a.shape[2:], dtype=np.result_type(a, b))
    term = np.empty(out.shape[2:], dtype=out.dtype)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            entry = out[i, j]
            np.multiply(a[i, 0], b[0, j], out=entry)
            for l in range(1, a.shape[1]):
                entry += np.multiply(a[i, l], b[l, j], out=term)
    return out


def node_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[..., i, j] = sum_l a[..., i, l] * b[..., l, j], summed for l = 0, 1, ...

    Takes two plain matrices, (n, k) and (k, m), or two node stacks,
    (N, n, k) and (N, k, m). A stack's product is the (N, n, m) view of a
    node-last (n, m, N) array; plain matrices run as a single node.
    """
    a, b = np.asarray(a), np.asarray(b)
    if (a.ndim not in (2, 3) or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2] or a.shape[-1] < 1):
        raise ValueError(f"cannot multiply node-wise: shapes {a.shape} and {b.shape}")
    if a.ndim == 3:
        return np.moveaxis(_matmul_node_last(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)), -1, 0)
    return _matmul_node_last(a[..., None], b[..., None])[..., 0]


def node_det(a: np.ndarray) -> np.ndarray:
    """Determinant of each (n, n) matrix in a (N, n, n) stack.

    Gaussian elimination with partial pivoting, on all nodes at once, in a
    node-last working copy (a plain copy for a `samples` view). A node
    whose pivot column is all zero is singular: its determinant is exactly
    0 and it is left out of the division, so it never turns into NaN.
    """
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ValueError(f"need a (N, n, n) stack of square matrices, got shape {a.shape}")
    m = np.array(np.moveaxis(a, 0, -1), dtype=complex, order="C")  # (n, n, N)
    n = m.shape[0]
    det = np.ones(a.shape[0], dtype=complex)
    for c in range(n):
        if c + 1 < n:
            pivot_row = c + np.abs(m[c:, c]).argmax(axis=0)
            for r in range(c + 1, n):
                swap = pivot_row == r
                if swap.any():
                    row_c = m[c, c:].copy()
                    np.copyto(m[c, c:], m[r, c:], where=swap)
                    np.copyto(m[r, c:], row_c, where=swap)
                    np.negative(det, out=det, where=swap)
        piv = m[c, c]
        det *= piv
        live = piv != 0
        for r in range(c + 1, n):
            f = np.divide(m[r, c], piv, out=np.zeros_like(piv), where=live)
            m[r, c + 1:] -= f * m[c, c + 1:]
    return det


def node_sum(weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * samples[j] over the node axis, for (N,) weights.

    The sum runs along the node axis moved last; on a `samples` view that
    axis is contiguous and numpy adds it pairwise.
    """
    weights, samples = np.asarray(weights), np.asarray(samples)
    if weights.ndim != 1 or samples.shape[:1] != weights.shape:
        raise ValueError(
            f"need (N,) weights for (N, ...) samples, got {weights.shape} and {samples.shape}"
        )
    return (weights * np.moveaxis(samples, 0, -1)).sum(axis=-1)


def matrix_norm(a: np.ndarray) -> np.ndarray:
    """Max absolute row sum, over the trailing two axes.

    Equal bit for bit to np.abs(a).sum(axis=-1).max(axis=-1), without its
    reductions over tiny axes: numpy adds fewer than 8 terms left to right,
    as the column loop does, and maxima are exact in any order.
    """
    a = np.abs(np.asarray(a))
    if a.shape[-1] >= 8:  # numpy sums longer rows pairwise
        return a.sum(axis=-1).max(axis=-1)
    rows = a[..., 0]  # row sums build up in place: a is this function's own array
    for j in range(1, a.shape[-1]):
        rows += a[..., j]
    out = rows[..., 0].copy()
    for i in range(1, rows.shape[-1]):
        np.maximum(out, rows[..., i], out=out)
    return out[()]  # a scalar, not a 0-d array, for a single matrix


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
