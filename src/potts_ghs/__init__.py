"""Exact verification engine for the sign dichotomy of the magnetization
curvature on the ferromagnetic Potts model.

The second derivative of a site's magnetization in two external fields,
scaled by r**3 Z**3, expands exactly — over rational pair weights — into a
polynomial in the deviations X_p = t_p - 1.  At zero field its coefficients
are 64 aggregated Laurent polynomials in the state count r, nonpositive at
r = 2 and nonnegative for every r >= 3.  The Ising case (r = 2) is concave
in the fields: at three sites every coefficient of the full expansion is
<= 0 at r = 2 (1356 negative, 102 zero), so ghs_I <= 0 for every instance
with t_p >= 1, fields included; at more sites it holds on every sample.
For r >= 3 the curvature is nonnegative at zero field
(provably at three sites, on every sample at four) but can be negative at
positive fields.  Everything here is exact: Fraction weights, integer Laurent
coefficients, zero-tolerance comparisons; floats appear only in the
finite-difference oracle and the float-domain spot checks.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .alpha import AlphaTable, alpha_table, compare_reference, sign_report
from .derivatives import (
    ghs_sum,
    second_derivative_analytic,
    second_derivative_fd,
    second_derivative_float,
    second_derivative_via_sum,
)
from .expansion import expand_full, expand_partial
from .laurent import LaurentPoly
from .model import CapacityError, GhostWeightVector, ModelSpec
from .modelfile import ModelFileError, dump_model, load_model
from .sampling import random_model, random_weights, trial_rng
from .separation import SeparatedForm, evaluate_separated, separated_form, separation_check
from .xpoly import XPoly

# The entry points.  Plumbing (pair_order, rational_str, xpoly_records, ...)
# stays importable from its own module.
__all__ = [
    "AlphaTable",
    "CapacityError",
    "GhostWeightVector",
    "LaurentPoly",
    "ModelFileError",
    "ModelSpec",
    "SeparatedForm",
    "XPoly",
    "alpha_table",
    "compare_reference",
    "dump_model",
    "evaluate_separated",
    "expand_full",
    "expand_partial",
    "ghs_sum",
    "load_model",
    "random_model",
    "random_weights",
    "second_derivative_analytic",
    "second_derivative_fd",
    "second_derivative_float",
    "second_derivative_via_sum",
    "separated_form",
    "separation_check",
    "sign_report",
    "trial_rng",
]
