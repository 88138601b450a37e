"""Polynomial expansion of the scaled curvature sum in the deviations X_p.

Writing each pair weight as t_p = 1 + X_p and distributing, the five-term
signed combination of constrained sums becomes a polynomial in the X_p whose
monomial coefficients are signed r-powers aggregated over constraint
matrices.  The expansion factorizes column by column: for each of the five
terms and each of its three factors, summing r**(block count) over the
subsets of expanded pairs yields a univariate-in-each-X polynomial, and the
term is the product of its three factor polynomials.

``expand_full`` keeps the full pair window symbolically (supported at
n_sites = 3, where the window has 6 pairs and 2**6 subsets per factor);
``expand_partial`` expands only the last s pairs of the order, carrying the
remaining pairs exactly inside numeric constrained sums;
``separation.reduced_expansion`` runs the symbolic product over the three
core pairs alone.
"""
from __future__ import annotations

from functools import lru_cache

from .constraints import GHS_FACTORS, constrained_sum, ghs_combination
from .laurent import LaurentPoly
from .model import CapacityError, GhostWeightVector, pair_order
from .partitions import block_count
from .xpoly import XPoly, monomial_key


def _factor_product(window: dict[int, tuple[int, int]], coefficient) -> XPoly:
    """The five-term signed combination of factor polynomials over a window.

    ``window`` maps the expanded pair indices to their site pairs.  The
    factor with built-in equalities ``eqs`` has one monomial per subset of
    the window, the product of its X_p, with coefficient
    ``coefficient(eqs + the subset's pairs)``.
    """
    items = tuple(window.items())
    subsets = []
    for mask in range(1 << len(items)):
        chosen = [items[b] for b in range(len(items)) if mask >> b & 1]
        mono = monomial_key({p: 1 for p, _ in chosen})
        subsets.append((mono, tuple(pair for _, pair in chosen)))
    factor_polys = [
        XPoly({mono: coefficient(eqs + pairs) for mono, pairs in subsets})
        for eqs in GHS_FACTORS
    ]
    return ghs_combination(factor_polys, XPoly.zero())


@lru_cache(maxsize=None)
def expand_full(n_sites: int) -> XPoly:
    """Full symbolic expansion over all pairs, with LaurentPoly coefficients.

    Only n_sites = 3 is supported: the coefficient table is dense in 2**C
    subsets per factor and the exact aggregation is meant for the desk-scale
    window.  Larger sites raise CapacityError.
    """
    if n_sites != 3:
        raise CapacityError(
            f"full expansion is supported at n_sites=3 only (got {n_sites})"
        )
    return _factor_product(
        dict(enumerate(pair_order(n_sites).pairs)),
        lambda eqs: LaurentPoly({block_count(n_sites, eqs): 1}),
    )


MAX_DENSE_WINDOW = 6


def expand_partial(weights: GhostWeightVector, s: int) -> XPoly:
    """Expand the last s pairs of the order, keeping the rest numeric.

    The result has exact rational coefficients specific to the instance; its
    value at X_p = t_p - 1 for the expanded pairs equals the full curvature
    sum of the instance.  The enumeration is dense in 2**s subsets per
    factor, so the window is capped at MAX_DENSE_WINDOW pairs — the same
    desk-scale bound that limits the full expansion to three sites.
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
    carried = order.pairs[: n_pairs - s]
    return _factor_product(
        {p: order.pairs[p] for p in range(n_pairs - s, n_pairs)},
        lambda eqs: constrained_sum(weights, eqs, carried),
    )
