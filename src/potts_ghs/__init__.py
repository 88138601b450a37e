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

from .alpha import (
    AlphaTable,
    REFERENCE_FORMS,
    alpha,
    alpha_table,
    compare_reference,
    sign_report,
    table_export,
)
from .constraints import GHS_TERMS, matrix_coefficient
from .derivatives import (
    ghs_sum,
    second_derivative_analytic,
    second_derivative_fd,
    second_derivative_float,
    second_derivative_via_sum,
)
from .expansion import expand_full, expand_partial
from .laurent import LaurentPoly
from .model import CapacityError, GhostWeightVector, ModelSpec, instance_digest, pair_order
from .modelfile import ModelFileError, dump_weights, load_model, parse_rational, rational_str
from .partitions import block_count
from .sampling import random_model, random_weights, trial_rng
from .separation import (
    SeparatedForm,
    assemble_separated,
    evaluate_separated,
    reduced_expansion,
    separation_check,
    separated_form,
)
from .xpoly import XPoly, monomial_key, xpoly_eval, xpoly_records

__all__ = [
    "AlphaTable",
    "CapacityError",
    "GHS_TERMS",
    "GhostWeightVector",
    "LaurentPoly",
    "ModelFileError",
    "ModelSpec",
    "REFERENCE_FORMS",
    "SeparatedForm",
    "XPoly",
    "alpha",
    "alpha_table",
    "assemble_separated",
    "block_count",
    "compare_reference",
    "dump_weights",
    "evaluate_separated",
    "expand_full",
    "expand_partial",
    "ghs_sum",
    "instance_digest",
    "load_model",
    "matrix_coefficient",
    "monomial_key",
    "pair_order",
    "parse_rational",
    "random_model",
    "random_weights",
    "rational_str",
    "reduced_expansion",
    "second_derivative_analytic",
    "second_derivative_fd",
    "second_derivative_float",
    "second_derivative_via_sum",
    "separation_check",
    "separated_form",
    "sign_report",
    "table_export",
    "trial_rng",
    "xpoly_eval",
    "xpoly_records",
]
