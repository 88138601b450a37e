"""Polynomial expansion of the scaled curvature sum in the deviations X_p.

Writing each pair weight as t_p = 1 + X_p and distributing turns the
curvature sum into a polynomial in the X_p.  At numeric weights that
polynomial is the curvature sum itself, computed over XPoly:
``expand_partial`` gives each expanded pair the weight 1 + X_p and each
carried pair its exact weight, and runs the one ``weighted_sums`` pass and
the combiner that ``ghs_sum`` runs over Fraction.

With the state count r symbolic the coefficients are Laurent polynomials in
r, and the expansion factorizes column by column: for each of the eight
built-in equality sets, summing r**(block count) over the subsets of
expanded pairs yields a factor polynomial (the Fortuin-Kasteleyn subset
sum), and ``ghs_combination`` multiplies the factors in its staged form.
``expand_full`` runs this over every pair (supported at n_sites = 3, where
the window has 6 pairs and 2**6 subsets per factor) and
``separation.reduced_expansion`` over the three core pairs alone.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .constraints import GHS_FACTORS, _curvature_sum, ghs_combination
from .laurent import LaurentPoly
from .model import CapacityError, GhostWeightVector, _require_triple, pair_order
from .partitions import block_count
from .xpoly import XPoly, monomial_key


def _factor_product(n_sites: int, window: dict[int, tuple[int, int]]) -> XPoly:
    """The five-term signed combination of factor polynomials over a window,
    with r symbolic and every pair outside the window at weight 1.

    ``window`` maps the expanded pair indices to their site pairs.  The
    factor with built-in equalities ``eqs`` has one monomial per subset of
    the window, the product of its X_p, with coefficient r**(block count of
    eqs + the subset's pairs).
    """
    items = tuple(window.items())
    subsets = []
    for mask in range(1 << len(items)):
        chosen = [items[b] for b in range(len(items)) if mask >> b & 1]
        mono = monomial_key({p: 1 for p, _ in chosen})
        subsets.append((mono, tuple(pair for _, pair in chosen)))
    factor_polys = [
        XPoly({m: LaurentPoly({block_count(n_sites, eqs + ps): 1}) for m, ps in subsets})
        for eqs in GHS_FACTORS
    ]
    return ghs_combination(factor_polys)


def _check_three_sites(n_sites: int) -> None:
    """The size rule of the full expansion: fewer than three sites break
    the three-site rule (``model._require_triple``), and more sites raise
    CapacityError."""
    _require_triple(n_sites)
    if n_sites > 3:
        raise CapacityError(
            f"full expansion is supported at n_sites=3 only (got {n_sites})"
        )


@lru_cache(maxsize=None)
def expand_full(n_sites: int) -> XPoly:
    """Full symbolic expansion over all pairs, with LaurentPoly coefficients.

    Only n_sites = 3 is supported (``_check_three_sites``): the coefficient
    table is dense in 2**C subsets per factor and the exact aggregation is
    meant for the desk-scale window.
    """
    _check_three_sites(n_sites)
    return _factor_product(n_sites, dict(enumerate(pair_order(n_sites).pairs)))


MAX_DENSE_WINDOW = 6


def expand_partial(weights: GhostWeightVector, s: int) -> XPoly:
    """Expand the last s pairs of the order, keeping the rest numeric.

    The result has exact rational coefficients specific to the instance; its
    value at X_p = t_p - 1 for the expanded pairs equals the full curvature
    sum of the instance.  It is dense in up to 4**s monomials, so the window
    is capped at MAX_DENSE_WINDOW pairs — the same desk-scale bound that
    limits the full expansion to three sites.
    """
    order = pair_order(weights.n_sites)
    n_pairs = len(order)
    if not 1 <= s <= n_pairs:
        raise ValueError(f"window size s must be in [1, {n_pairs}]")
    if s > MAX_DENSE_WINDOW:
        raise CapacityError(
            f"dense window of {s} pairs exceeds the supported size "
            f"({MAX_DENSE_WINDOW}); pick a smaller window"
        )
    first = n_pairs - s
    weight_seq = [XPoly({(): t}) for t in weights.weights[:first]]
    weight_seq += [XPoly({(): 1, ((p, 1),): 1}) for p in range(first, n_pairs)]
    return _curvature_sum(
        weight_seq, weights.n_sites, weights.n_states, XPoly({(): Fraction(1)})
    )
