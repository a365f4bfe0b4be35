"""Asymptotic factorization of matrix functions on the real line.

The library factors n x n matrix functions G(x) = G-(x) Lambda(x) G+(x) with
stable partial indices, where the factors are analytic in the lower/upper
half-planes and Lambda is a diagonal of powers of w = (x-i)/(x+i). Everything
runs on a midpoint grid of the unit circle under the Moebius transplant:
corrected Cauchy operators split densities into half-plane parts, scalar and
matrix boundary problems are solved per order, and the factor series is
assembled with residual and convergence diagnostics. A fully closed-form 2x2
oscillatory family serves as ground truth.

The package namespace holds the names the README and the demos use, the
exception classes and `Step`; everything else is reached through its
module (`whfactor.cauchy`, `whfactor.engine`, ...).
"""

from .cauchy import AccuracyError, cauchy_off_line, mode_split
from .engine import (
    NumericalError,
    alpha_coefficients,
    build_lambda0,
    c_mu_lower_bound,
    check_factor_conditions,
    convergence_constant,
    run_factorization,
)
from .example2x2 import build_example, first_remainder, first_step_factors, variant_constant
from .grid import MobiusGrid, SampledMatrixFunction, sample
from .rbvp import (
    Step,
    UnstableIndicesError,
    solve_scalar_index0,
    solve_scalar_index1,
    split_indices,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "MobiusGrid",
    "NumericalError",
    "SampledMatrixFunction",
    "Step",
    "UnstableIndicesError",
    "alpha_coefficients",
    "build_example",
    "build_lambda0",
    "c_mu_lower_bound",
    "cauchy_off_line",
    "check_factor_conditions",
    "convergence_constant",
    "first_remainder",
    "first_step_factors",
    "mode_split",
    "run_factorization",
    "sample",
    "solve_scalar_index0",
    "solve_scalar_index1",
    "split_indices",
    "variant_constant",
]
