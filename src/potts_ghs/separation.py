"""Separation of the curvature polynomial into per-pair factors and a core.

The source claims that every pair outside the distinguished core pairs
(1,2), (1,3), (2,3) can be split off the expansion as a closed-form
univariate factor in its own deviation X_p:

  * bulk pairs (both endpoints ordinary, or ghost pairs beyond site 3):
        (1 + X/r)**3
  * the three field pairs (0,1), (0,2), (0,3):
        1 + (1 + 2/r) X + (2/r + 1/r**2) X**2 + (1/r**2) X**3

times the reduced core polynomial in the three core deviations.  The core
is the expansion restricted to the three core pairs (every other weight 1),
built by the same factor product as ``expand_full``; its coefficients are
the 64 table entries that ``alpha`` reads off, and that
``alpha.compare_reference`` cross-checks against the sum over the
constraint matrices.  The factorization holds only on a slice.  At
n_sites = 3 the assembled form agrees with the full expansion on the 54
monomials free of the field variables X_01, X_02, X_03 (the zero-field
slice) and on none of the 3402 that carry one: at r = 2 every core
coefficient vanishes, so the assembled form is identically zero while the
curvature sum is not.

What separates exactly is every block off the core.  Let G be the graph
of the pairs whose weight differs from 1, with the six pairs among
{0, 1, 2, 3} added, and C its 2-connected block holding {0, 1, 2, 3}.  Then

    ghs_I(w) = ghs_I(w on C) * prod_{B != C} (Z_B / r**|V_B|)**3

over the other blocks B of G, with Z_B the Potts sum of B's own pairs over
its |V_B| sites and "w on C" every pair outside C set to 1.  Each such B
meets the rest at one site; summed over its other sites it scales every
pinned sum by Z_B / r whatever that site's state, by colour symmetry, so
each factor of the five terms gains the same factor, while w on C leaves
those sites free, r each.  The per-pair form is the case where every block
off the core is a bridge: a bridge of weight t = 1 + X has Z_B = r**2 + r X,
and (Z_B / r**2)**3 is the bulk factor (1 + X/r)**3.  So at larger sizes the
evaluated form equals the direct curvature sum on the seeded instances whose
field pairs, and every bulk pair other than the ghost pairs (0, j) with
j > 3, carry weight 1: each (0, j) is a bridge.  It fails where that case
ends.  The field pairs (0, 1), (0, 2), (0, 3) lie in C, so no factor splits
them off.  Bulk pairs that close a cycle through the core or the ghost,
such as (1,4) and (2,4) or (0,4) and (1,4), join C.  And a block off the
core that is not a bridge, such as the ghost triangle (0,4), (4,5), (0,5),
still splits off whole, but its Z_B is not a product of bridge factors.
``model.weighted_sums`` sums out in series and in parallel every block off
the core with no K4 minor.  This module checks the factorization
exhaustively at n_sites = 3 against the full symbolic expansion; the CLI's
seeded trials evaluate it on random instances against the direct curvature
sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .expansion import _check_three_sites, _factor_product, expand_full
from .laurent import LaurentPoly
from .model import GhostWeightVector, pair_order
from .xpoly import XPoly, xpoly_eval

# Coefficients of the bulk factor (1 + X/r)**3 by power of X.
BULK_COEFFS: tuple[LaurentPoly, ...] = (
    LaurentPoly({0: 1}),
    LaurentPoly({-1: 3}),
    LaurentPoly({-2: 3}),
    LaurentPoly({-3: 1}),
)

# Coefficients of the field factor 1 + (1+2/r)X + (2/r+1/r^2)X^2 + (1/r^2)X^3.
FIELD_COEFFS: tuple[LaurentPoly, ...] = (
    LaurentPoly({0: 1}),
    LaurentPoly({0: 1, -1: 2}),
    LaurentPoly({-1: 2, -2: 1}),
    LaurentPoly({-2: 1}),
)


@dataclass(frozen=True)
class SeparatedForm:
    """Factored shape of the expansion: per-pair factors times the core.

    ``factors`` is keyed by the field and bulk pair indices of
    ``pair_order(n_sites)``."""

    n_sites: int
    factors: dict[int, XPoly]
    core: XPoly


def factor_poly(coeffs: tuple[LaurentPoly, ...], p: int) -> XPoly:
    """Univariate factor in X_p from a coefficient tuple indexed by power."""
    return XPoly({((p, e),) if e else (): c for e, c in enumerate(coeffs)})


@lru_cache(maxsize=None)
def reduced_expansion(n_sites: int) -> XPoly:
    """The core polynomial: monomials in the three core deviations only.

    It is the factor product of the expansion over the window of the three
    core pairs, each factor coefficient r**(block count); every other pair
    weight is 1.
    """
    order = pair_order(n_sites)
    return _factor_product(n_sites, {p: order.pairs[p] for p in order.core_indices})


@lru_cache(maxsize=None)
def separated_form(n_sites: int) -> SeparatedForm:
    """The per-pair factors at a given size, and the reduced core."""
    order = pair_order(n_sites)
    factors = {p: factor_poly(FIELD_COEFFS, p) for p in order.field_indices}
    factors.update({p: factor_poly(BULK_COEFFS, p) for p in order.bulk_indices})
    return SeparatedForm(n_sites, factors, reduced_expansion(n_sites))


def assemble_separated(form: SeparatedForm) -> XPoly:
    """Multiply all factors into the core.

    The product equals the full expansion on the monomials free of the
    field variables only; see the module docstring.
    """
    total = form.core
    for p in sorted(form.factors):
        total = total * form.factors[p]
    return total


def evaluate_separated(form: SeparatedForm, weights: GhostWeightVector) -> Fraction:
    """Exact value of the separated form at an instance."""
    if weights.n_sites != form.n_sites:
        raise ValueError("instance size does not match the separated form")
    x = weights.x_values()
    r = weights.n_states
    total = xpoly_eval(form.core, x, r)
    for p, factor in form.factors.items():
        total *= xpoly_eval(factor, x, r)
    return total


def separation_check(n_sites: int) -> dict:
    """Compare the assembled separated form with the full symbolic
    expansion monomial by monomial (n_sites = 3 only, by the size rule of
    ``expand_full``, checked before any work)."""
    _check_three_sites(n_sites)
    assembled = assemble_separated(separated_form(n_sites))
    full = expand_full(n_sites)
    mismatches = _poly_mismatches(assembled, full)
    return {
        "monomials_compared": max(len(assembled), len(full)),
        "mismatch_count": len(mismatches),
        "first_mismatch": mismatches[0] if mismatches else None,
        "passed": not mismatches,
    }


def _poly_mismatches(lhs: XPoly, rhs: XPoly) -> list[dict]:
    keys = set(dict(lhs.items())) | set(dict(rhs.items()))
    out = []
    for mono in sorted(keys, key=lambda m: (sum(e for _, e in m), m)):
        a = lhs.coefficient(dict(mono))
        b = rhs.coefficient(dict(mono))
        if a != b:
            out.append(
                {
                    "monomial": [[v, e] for v, e in mono],
                    "assembled": str(a),
                    "full": str(b),
                }
            )
    return out
