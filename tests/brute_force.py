"""Brute-force oracle for the curvature sum, independent of ``potts_ghs``.

Enumerates the r**N spin configurations of the sites 1..N with the ghost
site 0 pinned to state 0, and computes the curvature sum straight from its
definition

    ghs_I = r**3 * Z**3 * kappa(d_1, d_2, d_3),

where d_i indicates that site i shares the ghost's state, kappa is the joint
cumulant and Z the partition function with the ghost pinned.  Writing Z_S
for the sum over configurations with every site of S in the ghost's state,

    Z**3 kappa = Z Z Z_123 - Z Z_12 Z_3 - Z Z_13 Z_2 - Z Z_23 Z_1
                 + 2 Z_1 Z_2 Z_3.

``pinned_sum`` computes Z_S itself for any site set S, ``block_sum`` the
plain Potts sum of a block of pairs with no site pinned, and ``relabel``
moves pair weights along a permutation of the sites.

It uses the standard library only and never imports ``potts_ghs``, so it
checks the constrained sums, the expansions and ``model.weighted_sums``
from outside.  Pair weights t_p are given in the lexicographic order of the
pairs (i, j), 0 <= i < j <= N.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

CORE_PAIRS = ((1, 2), (1, 3), (2, 3))


def pairs(n_sites: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n_sites + 1) for j in range(i + 1, n_sites + 1)]


def _pattern_counts(n_sites: int, n_states: int) -> Counter:
    """Configurations counted by (mask, equal pairs).

    Bit c-1 of the mask is set when site c of the triple (1, 2, 3) shares
    the ghost's state; the equal pairs are those whose two spins agree.
    """
    if n_sites < 3:
        raise ValueError("the site triple (1, 2, 3) needs n_sites >= 3")
    all_pairs = pairs(n_sites)
    counts: Counter = Counter()
    for tail in product(range(n_states), repeat=n_sites):
        spins = (0,) + tail
        mask = sum(1 << (c - 1) for c in (1, 2, 3) if spins[c] == 0)
        equal = tuple(p for p in all_pairs if spins[p[0]] == spins[p[1]])
        counts[mask, equal] += 1
    return counts


def _curvature(n_sites: int, n_states: int, weigh, zero):
    """r**3 Z**3 kappa, with ``weigh(equal pairs)`` the weight of a
    configuration in whatever ring ``zero`` belongs to."""
    counts = _pattern_counts(n_sites, n_states)
    # z[need]: need is the bitmask of the sites of {1, 2, 3} pinned to the ghost.
    z = [
        sum(
            (c * weigh(eq) for (mask, eq), c in counts.items() if mask & need == need),
            zero,
        )
        for need in range(8)
    ]
    return n_states**3 * (
        z[0] * z[0] * z[7]
        - z[0] * z[3] * z[4]
        - z[0] * z[5] * z[2]
        - z[0] * z[6] * z[1]
        + 2 * z[1] * z[2] * z[4]
    )


def ghs_I(n_sites: int, n_states: int, weights) -> Fraction:
    """Exact curvature sum of the triple (1, 2, 3) at pair weights ``weights``."""
    t = dict(zip(pairs(n_sites), (Fraction(w) for w in weights), strict=True))

    def weigh(equal):
        return prod((t[p] for p in equal), start=Fraction(1))

    return _curvature(n_sites, n_states, weigh, Fraction(0))


def pinned_sum(n_sites: int, n_states: int, weights, sites=()) -> Fraction:
    """Exact sum of the configuration weights with the ghost pinned and every
    site of ``sites`` in the ghost's state; ``sites=()`` gives Z."""
    t = dict(zip(pairs(n_sites), (Fraction(w) for w in weights), strict=True))
    total = Fraction(0)
    for tail in product(range(n_states), repeat=n_sites):
        spins = (0,) + tail
        if any(spins[s] != 0 for s in sites):
            continue
        total += prod(
            (w for (i, j), w in t.items() if spins[i] == spins[j]), start=Fraction(1)
        )
    return total


def block_sum(n_states: int, pair_weights) -> Fraction:
    """Exact Potts sum Z_B of the pairs in ``pair_weights`` (a map from site
    pairs to weights): every site they name takes each of the r states, and
    a configuration weighs the product of the weights of its equal pairs."""
    t = {pair: Fraction(w) for pair, w in pair_weights.items()}
    sites = sorted({s for pair in t for s in pair})
    total = Fraction(0)
    for spins in product(range(n_states), repeat=len(sites)):
        state = dict(zip(sites, spins))
        total += prod(
            (w for (i, j), w in t.items() if state[i] == state[j]), start=Fraction(1)
        )
    return total


def relabel(n_sites: int, weights, perm) -> tuple:
    """The pair weights of the instance whose site perm[s] plays the part of
    site s; ``perm`` is a bijection on 1..n_sites and the ghost stays 0."""
    mapping = {0: 0, **perm}
    moved = {}
    for (i, j), w in zip(pairs(n_sites), weights, strict=True):
        a, b = sorted((mapping[i], mapping[j]))
        moved[a, b] = w
    return tuple(moved[p] for p in pairs(n_sites))


class _Poly:
    """Integer polynomial in X_12, X_13, X_23, keyed by exponent triples."""

    def __init__(self, terms: dict):
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _Poly(out)

    def __sub__(self, other: "_Poly") -> "_Poly":
        return self + -1 * other

    def __mul__(self, other: "_Poly | int") -> "_Poly":
        if isinstance(other, int):
            return _Poly({e: other * c for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        return _Poly(out)

    __rmul__ = __mul__


_ONE = _Poly({(0, 0, 0): 1})
_ONE_PLUS_X = tuple(
    _Poly({(0, 0, 0): 1, tuple(int(k == q) for k in range(3)): 1}) for q in range(3)
)


def zero_field_coefficients(n_states: int) -> dict[tuple[int, int, int], int]:
    """Coefficients of X_12**x X_13**y X_23**z in ghs_I at N = 3 and zero field.

    With every ghost weight 1, ghs_I at N = 3 is a polynomial in the
    deviations X_p = t_p - 1 of the three core pairs; each configuration
    weighs prod (1 + X_p) over its equal core pairs.  Returns all 64
    coefficients at the given state count, zeros included.
    """

    def weigh(equal):
        return prod(
            (_ONE_PLUS_X[q] for q, p in enumerate(CORE_PAIRS) if p in equal), start=_ONE
        )

    poly = _curvature(3, n_states, weigh, _Poly({}))
    return {e: poly.terms.get(e, 0) for e in product(range(4), repeat=3)}
