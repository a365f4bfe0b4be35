"""Closed-form matrix functions built from rational terms with exponential phases.

Each matrix entry is a finite sum of terms P(x)/Q(x) * exp(i*a*x) with complex
polynomial coefficients. The family is closed under addition, negation, matrix
products and multiplication by integer powers of the Moebius factor
(x-i)/(x+i), which is all the factorization algebra needs. Instances are
callables mapping an array of points (real or complex) to stacked matrices.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly


def _as_poly(coeffs) -> tuple:
    """Normalize ascending coefficients: complex tuple, trailing zeros stripped."""
    c = [complex(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    if not c:
        c = [0j]
    return tuple(c)


@dataclass(frozen=True)
class Term:
    """One summand P(x)/Q(x) * exp(i*phase*x), coefficients ascending."""

    num: tuple
    den: tuple = (1 + 0j,)
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "num", _as_poly(self.num))
        object.__setattr__(self, "den", _as_poly(self.den))
        object.__setattr__(self, "phase", float(self.phase))
        if all(v == 0 for v in self.den):
            raise ValueError("term denominator is identically zero")

    def scaled(self, c) -> "Term":
        return Term(tuple(v * c for v in self.num), self.den, self.phase)

    def times(self, other: "Term") -> "Term":
        return Term(
            tuple(npoly.polymul(self.num, other.num)),
            tuple(npoly.polymul(self.den, other.den)),
            self.phase + other.phase,
        )


def _merge_terms(terms: Sequence[Term]) -> tuple:
    """Combine terms sharing (denominator, phase); drop exact-zero numerators."""
    out: dict = {}
    for t in terms:
        key = (t.den, t.phase)
        if key in out:
            out[key] = tuple(npoly.polyadd(out[key], t.num))
        else:
            out[key] = t.num
    merged = []
    for (den, phase), num in out.items():
        num = _as_poly(num)
        if num == (0j,):
            continue
        merged.append(Term(num, den, phase))
    return tuple(merged)


_BLOCK = 1 << 13  # points per evaluation block


def _poly_key(coeffs: tuple) -> bytes:
    return np.asarray(coeffs, dtype=complex).tobytes()


def _real_polyval(x: np.ndarray, coeffs: tuple):
    """npoly.polyval on the complex copy of the real array x, without the copy.

    A constant stays a scalar, and a monic linear polynomial is x + c0.
    Otherwise Horner's rule runs on the real and imaginary parts apart: a
    complex product with a real factor rounds each part once, as this does.
    The values differ from polyval's at most in the sign of a zero part.
    """
    if len(coeffs) == 1:
        return coeffs[0]
    if len(coeffs) == 2 and coeffs[1] == 1:
        return x + coeffs[0]
    p = np.empty(x.shape, dtype=complex)
    for part, c in ((p.real, [v.real for v in coeffs]), (p.imag, [v.imag for v in coeffs])):
        np.multiply(x, c[-1], out=part)
        part += c[-2]
        for v in reversed(c[:-2]):
            part *= x
            part += v
    return p


def _real_exponentials(x: np.ndarray, phases) -> dict:
    """e^(i*a*x) on the real array x for each phase a; None for phase 0.

    cos(|a| x) + i sin(|a| x) has the bits of np.exp(1j * a * x) on the
    complex copy of x, save the sign of a zero sine at x = 0, and
    e^(-i|a|x) is its conjugate: cos is even and sin is odd.
    """
    exps = {0.0: None}
    for a in {abs(p) for p in phases} - {0.0}:
        e = np.empty(x.shape, dtype=complex)
        arg = a * x
        np.cos(arg, out=e.real)
        np.sin(arg, out=e.imag)
        if -a in phases:
            exps[-a] = np.conjugate(e) if a in phases else np.conjugate(e, out=e)
        if a in phases:
            exps[a] = e
    return exps


def _assemble(out: np.ndarray, cells, polys: dict, exps: dict) -> None:
    """Write each entry of out, (n, m, N), as its sum of terms from zero.

    cells[i][j] lists the entry's terms P/Q * e^(i*phase*z) as (key of P,
    key of Q, phase); polys maps a key to the polynomial's values, an array
    or, for a constant, a scalar; exps maps a phase to e^(i*phase*z), None
    for phase 0. An entry whose terms equal an earlier entry's is a copy of
    it, and each distinct P/Q is divided out once, into its own array.
    """
    # complex quotients and products never overwrite an operand, and a
    # quotient of two constants is still written into a block-length array:
    # numpy rounds some in-place ones (on one-element arrays) and its 0-d
    # scalar ones differently
    prod, acc = (np.empty(out.shape[-1:], dtype=complex) for _ in range(2))
    quots = {}  # (key of P, key of Q) -> P/Q on the block
    done = {}  # terms of an assembled entry -> its slot
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            slot = out[i, j]
            key = tuple(cell)
            if key in done:
                slot[...] = done[key]
                continue
            done[key] = slot
            if not cell:
                slot[...] = 0
            last = len(cell) - 1
            for r, (num, den, phase) in enumerate(cell):
                v = quots.get((num, den))
                if v is None:
                    v = quots[num, den] = np.divide(polys[num], polys[den],
                                                    out=np.empty(out.shape[-1:], dtype=complex))
                if exps[phase] is not None:
                    v = np.multiply(v, exps[phase], out=prod)
                if r == 0:  # 0 + v, as a sum from zero: a -0.0 part of v turns +0.0
                    np.add(v, 0.0, out=slot if r == last else acc)
                else:
                    np.add(acc, v, out=slot if r == last else acc)


def _mobius_term(k: int) -> Term:
    """((x-i)/(x+i))**k as one term; a negative power swaps the two factors."""
    num, den = ((-1j, 1.0), (1j, 1.0)) if k >= 0 else ((1j, 1.0), (-1j, 1.0))
    return Term(tuple(npoly.polypow(num, abs(k))), tuple(npoly.polypow(den, abs(k))))


class ClosedForm:
    """Matrix of term sums, evaluable at arbitrary points.

    entries[i][j] is a tuple of Term. Calling an instance with an array z of
    shape S returns an array of shape S + (n, m).
    """

    def __init__(self, entries):
        rows = []
        for row in entries:
            rows.append(tuple(_merge_terms(tuple(cell)) for cell in row))
        self.entries = tuple(rows)
        n = len(self.entries)
        m = len(self.entries[0]) if n else 0
        if n == 0 or m == 0:
            raise ValueError("entry table must be non-empty")
        if any(len(r) != m for r in self.entries):
            raise ValueError("ragged entry table")
        self.shape = (n, m)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "ClosedForm":
        return cls([[() for _ in range(n)] for _ in range(n)])

    @classmethod
    def constant(cls, mat) -> "ClosedForm":
        mat = np.asarray(mat, dtype=complex)
        return cls(
            [
                [(Term((mat[i, j],)),) if mat[i, j] != 0 else () for j in range(mat.shape[1])]
                for i in range(mat.shape[0])
            ]
        )

    @classmethod
    def identity(cls, n: int) -> "ClosedForm":
        return cls.constant(np.eye(n))

    @classmethod
    def mobius_power_diag(cls, kappas) -> "ClosedForm":
        """diag(((x-i)/(x+i))**kappa_j); negative powers swap the two factors."""
        kappas = [int(k) for k in kappas]
        n = len(kappas)
        table = [[() for _ in range(n)] for _ in range(n)]
        for j, k in enumerate(kappas):
            table[j][j] = (_mobius_term(k),)
        return cls(table)

    # -- evaluation ------------------------------------------------------------

    def __call__(self, z):
        """Values at the points z, an array of shape z.shape + (n, m).

        Finite real input takes the real-node path: polynomials are evaluated
        on the real array and each |phase| costs one cos/sin pair. Its values
        are those of the complex path, evaluated on the complex copy of z, bit
        for bit. Both paths run over blocks of _BLOCK points, so that their
        temporaries stay in cache. The values are stored point-last, as a
        C-contiguous (n, m) + z.shape array, and returned as its transposed
        view; SampledMatrixFunction adopts that storage without a copy.
        """
        z = np.asarray(z)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        x = np.asarray(z, dtype=float) if z.dtype.kind in "biuf" else None
        real = x is not None and bool(np.isfinite(x).all())
        pts = (x if real else z.astype(complex)).reshape(-1)
        out = np.empty(self.shape + z.shape, dtype=complex)
        flat = out.reshape(self.shape + (-1,))
        # polynomials are named by their bytes, so that 0.0 and -0.0
        # coefficients stay apart; each distinct one is evaluated once a block
        cells = [[[(_poly_key(t.num), _poly_key(t.den), t.phase) for t in cell] for cell in row]
                 for row in self.entries]
        terms = [t for row in self.entries for cell in row for t in cell]
        coeffs = {_poly_key(c): c for t in terms for c in (t.num, t.den)}
        phases = {t.phase for t in terms}
        for k in range(0, len(pts), _BLOCK):
            p = pts[k:k + _BLOCK]
            if real:
                polys = {key: _real_polyval(p, c) for key, c in coeffs.items()}
                exps = _real_exponentials(p, phases)
            else:
                polys = {key: npoly.polyval(p, c) for key, c in coeffs.items()}
                exps = {a: (np.exp(1j * a * p) if a != 0.0 else None) for a in phases}
            _assemble(flat[..., k:k + _BLOCK], cells, polys, exps)
        out = np.moveaxis(out, (0, 1), (-2, -1))
        return out[0] if scalar else out

    # -- algebra ---------------------------------------------------------------

    def _binary(self, other: "ClosedForm", negate: bool) -> "ClosedForm":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        table = []
        for ra, rb in zip(self.entries, other.entries):
            row = []
            for ca, cb in zip(ra, rb):
                extra = tuple(t.scaled(-1) for t in cb) if negate else cb
                row.append(ca + extra)
            table.append(row)
        return ClosedForm(table)

    def __add__(self, other):
        return self._binary(other, negate=False)

    def __sub__(self, other):
        return self._binary(other, negate=True)

    def __neg__(self):
        return ClosedForm([[tuple(t.scaled(-1) for t in cell) for cell in row] for row in self.entries])

    def __mul__(self, c):
        c = complex(c)
        return ClosedForm([[tuple(t.scaled(c) for t in cell) for cell in row] for row in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other: "ClosedForm") -> "ClosedForm":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"matmul shape mismatch {self.shape} vs {other.shape}")
        table = [[() for _ in range(m)] for _ in range(n)]
        for i in range(n):
            for j in range(m):
                cell = []
                for l in range(k):
                    for ta in self.entries[i][l]:
                        for tb in other.entries[l][j]:
                            cell.append(ta.times(tb))
                table[i][j] = tuple(cell)
        return ClosedForm(table)

    def mobius_scale(self, power: int) -> "ClosedForm":
        """Entry-wise multiplication by ((x-i)/(x+i))**power."""
        power = int(power)
        if power == 0:
            return self
        fac = _mobius_term(power)
        return ClosedForm([[tuple(t.times(fac) for t in cell) for cell in row] for row in self.entries])

    # -- analysis --------------------------------------------------------------

    def limit_at_infinity(self) -> np.ndarray:
        """Limit along the real line, entry-wise.

        A term that decays adds nothing and one that settles its leading
        ratio. The terms that grow or oscillate are summed per phase over a
        common denominator, so that ones that cancel are judged together: a
        sum that decays adds nothing, one that settles at phase 0 adds its
        leading ratio, and any other raises.
        """
        out = np.zeros(self.shape, dtype=complex)
        with np.errstate(all="ignore"):  # an overflowing sum leaves an inf or nan, judged as any value
            for i, row in enumerate(self.entries):
                for j, cell in enumerate(row):
                    val = 0j
                    unsettled = {}  # phase -> (numerator, denominator) of its terms' sum
                    for t in cell:
                        dn, dd = len(t.num) - 1, len(t.den) - 1
                        if dn < dd:
                            continue
                        if dn == dd and t.phase == 0.0:
                            val += t.num[-1] / t.den[-1]
                        else:
                            num, den = unsettled.get(t.phase, ((0j,), (1 + 0j,)))
                            num = npoly.polyadd(npoly.polymul(num, t.den), npoly.polymul(t.num, den))
                            unsettled[t.phase] = (_as_poly(num), _as_poly(npoly.polymul(den, t.den)))
                    for phase, (num, den) in unsettled.items():
                        if num == (0j,) or len(num) < len(den):
                            continue
                        if len(num) > len(den) or phase != 0.0:
                            raise ValueError(f"entry ({i},{j}) has no limit at infinity")
                        val += np.divide(num[-1], den[-1])
                    out[i, j] = val
        return out

    def has_real_pole(self) -> bool:
        """Whether some denominator has a root within 1e-9 of the real axis."""
        for row in self.entries:
            for cell in row:
                for t in cell:
                    if len(t.den) == 1:
                        continue
                    # extreme but finite coefficients overflow or underflow
                    # inside the companion-matrix solve; the verdict stands
                    with np.errstate(all="ignore"):
                        roots = npoly.polyroots(t.den)
                    if np.any(np.abs(roots.imag) < 1e-9):
                        return True
        return False

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        def pair(v):
            return [float(v.real), float(v.imag)]

        return {
            "shape": list(self.shape),
            "entries": [
                [
                    [
                        {"num": [pair(v) for v in t.num], "den": [pair(v) for v in t.den], "phase": t.phase}
                        for t in cell
                    ]
                    for cell in row
                ]
                for row in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClosedForm":
        """Inverse of to_dict.

        Coefficients are [re, im] pairs and the phase a real number, all
        finite; a string or bool in their place, a pair of another length
        and an unknown key are rejected.
        """
        def known(d, keys, what):
            if not isinstance(d, dict):
                raise TypeError(f"{what} must be an object, got {d!r}")
            unknown = set(d) - keys
            if unknown:
                raise ValueError(f"unknown {what} key(s): {', '.join(sorted(map(str, unknown)))}")

        def finite(v):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"coefficients and phases must be real numbers, got {v!r}")
            if not np.isfinite(float(v)):
                raise ValueError(f"coefficients and phases must be finite, got {float(v)}")
            return float(v)

        def unpair(v):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise ValueError(f"coefficients must be [re, im] pairs, got {v!r}")
            return complex(finite(v[0]), finite(v[1]))

        def term(t):
            known(t, {"num", "den", "phase"}, "term")
            return Term(
                tuple(unpair(v) for v in t["num"]),
                tuple(unpair(v) for v in t.get("den", [[1.0, 0.0]])),
                finite(t.get("phase", 0.0)),
            )

        known(data, {"entries", "shape"}, "spec")
        cf = cls([[tuple(map(term, cell)) for cell in row] for row in data["entries"]])
        if "shape" in data and tuple(data["shape"]) != cf.shape:
            raise ValueError("declared shape does not match entry table")
        return cf
