"""Constraint matrices, constrained partition sums and the five-term combiner.

The scaled curvature sum attached to the site triple (1, 2, 3) is a signed
combination of five products of three constrained partition sums.  Each
factor carries built-in equalities among the ghost site 0 and the sites
1, 2, 3:

    +1 * F() * F() * F(0=1, 0=2, 0=3)
    -1 * F() * F(0=1, 0=2) * F(0=3)
    -1 * F() * F(0=1, 0=3) * F(0=2)
    -1 * F() * F(0=2, 0=3) * F(0=1)
    +2 * F(0=1) * F(0=2) * F(0=3)

where F(...) sums the configuration weight over all spins *including the
ghost*, subject to the listed equalities.  By colour symmetry
F(0=S) = r * Z_S, with Z_S the pinned sum of ``model.weighted_sums``;
``ghs_combination`` forms the sum in any ring with F() factored out of four
terms.  ``_pinned_sums`` is the one map from a site triple to its eight
sums Z_S, a single ``weighted_sums`` pass that every derivative route and
the finite-difference oracle take; the pass first sums out, by the series,
parallel and pendant rules, every site outside the triple that they reach,
and enumerates only the sites left.
``_curvature_sum`` is that pass at (1, 2, 3) and the combination times
r**3, which ``ghs_sum`` runs over Fraction and ``expand_partial`` over
XPoly.  ``constrained_sum``,
a quotient of ``weighted_sums``, is kept only for the benchmark's tracer.
Their independent check is the stdlib enumerator ``tests/brute_force.py``.
A constraint matrix is a 0/1 matrix with one row per site pair and three
columns, and ``matrix_coefficient`` takes it as its three columns of site
pairs: each pair listed in column c adds its equality sigma_i = sigma_j to
factor c.  The coefficient is the signed sum of r**(number of blocks) over
the five terms, an integer Laurent polynomial in r.  Summed by row weight
over the matrices on the three core pairs they give the alpha table, which
``alpha.compare_reference`` uses as the cross-check on the reduced core.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .laurent import LaurentPoly
from .model import GhostWeightVector, _require_triple, pair_order, weighted_sums
from .partitions import block_count, merge_constraints

# (sign, per-factor built-in equalities) for the five terms above.
GHS_TERMS: tuple[tuple[int, tuple[tuple[tuple[int, int], ...], ...]], ...] = (
    (+1, ((), (), ((0, 1), (0, 2), (0, 3)))),
    (-1, ((), ((0, 1), (0, 2)), ((0, 3),))),
    (-1, ((), ((0, 1), (0, 3)), ((0, 2),))),
    (-1, ((), ((0, 2), (0, 3)), ((0, 1),))),
    (+2, (((0, 1),), ((0, 2),), ((0, 3),))),
)

# The 8 distinct built-in equality sets of GHS_TERMS, in order of first use:
# (), 0=123, 0=12, 0=3, 0=13, 0=2, 0=23, 0=1.
GHS_FACTORS = tuple(dict.fromkeys(eqs for _, triple in GHS_TERMS for eqs in triple))
# The sites each GHS_FACTORS entry ties to the ghost: F(0=S) = r * Z_S.
GHS_PINNED_SITES = tuple(frozenset(j for _, j in eqs) for eqs in GHS_FACTORS)


def ghs_combination(factors):
    """F() * (F() F(0=123) - sum F(0=ij) F(0=k)) + 2 F(0=1) F(0=2) F(0=3):
    the GHS_TERMS sum with F() factored out of the four terms that share it,
    from one value per GHS_FACTORS entry (in that order) in any ring
    (Fraction, float, XPoly)."""
    free, f123, f12, f3, f13, f2, f23, f1 = factors
    return free * (free * f123 - f12 * f3 - f13 * f2 - f23 * f1) + 2 * (f1 * f2 * f3)


def _check_sites(n_sites: int, *sites: int) -> None:
    for s in sites:
        if not 1 <= s <= n_sites:
            raise ValueError(f"site {s} out of range for n_sites={n_sites}")


def _pinned_sums(weight_seq, n_sites: int, n_states: int, triple, one) -> list:
    """The eight pinned sums Z_S of a site triple, in GHS_PINNED_SITES order
    (Z = Z_() first) with site s of each set read as triple[s - 1], from
    one ``weighted_sums`` pass in the ring of ``one``."""
    _check_sites(n_sites, *triple)
    pinned = [{triple[s - 1] for s in sites} for sites in GHS_PINNED_SITES]
    return weighted_sums(weight_seq, n_sites, n_states, pinned, one)


def _curvature_sum(weight_seq, n_sites: int, n_states: int, one):
    """r**3 * sum sign * Z_S1 Z_S2 Z_S3 for the triple (1, 2, 3): the scaled
    curvature sum from one ``_pinned_sums`` pass in the ring of ``one``."""
    _require_triple(n_sites)
    sums = _pinned_sums(weight_seq, n_sites, n_states, (1, 2, 3), one)
    return n_states**3 * ghs_combination(sums)


def constrained_sum(
    weights: GhostWeightVector,
    equalities: Iterable[tuple[int, int]],
    active_pairs: Iterable[tuple[int, int]],
) -> Fraction:
    """Sum of prod_{p active} t_p**[sigma_i = sigma_j] over ghost-summed spins
    obeying the equality constraints.

    All n_sites + 1 spins, the ghost included, range over {1, ..., r} subject
    to sigma_i = sigma_j for each equality; pairs outside ``active_pairs``
    contribute no weight.  With no equalities and no active pairs the value
    is r**(n_sites + 1).  The blocks are the sites of a quotient model, the
    ghost's block 0 pinned (a factor r): active pairs inside a block fold
    into a prefactor, those between two blocks into one quotient pair weight.
    """
    r = weights.n_states
    index = merge_constraints(weights.n_sites, equalities)
    n_blocks = max(index) + 1
    prefactor = Fraction(1)
    quotient = {}
    for i, j in active_pairs:
        t = weights.weight_of(i, j)
        bi, bj = sorted((index[i], index[j]))
        if bi == bj:
            prefactor *= t
        else:
            quotient[bi, bj] = quotient.get((bi, bj), 1) * t
    if n_blocks == 1:
        return r * prefactor
    pairs = pair_order(n_blocks - 1).pairs
    quotient_weights = [quotient.get(pair, Fraction(1)) for pair in pairs]
    z = weighted_sums(quotient_weights, n_blocks - 1, r, [()], Fraction(1))[0]
    return r * prefactor * z


def matrix_coefficient(n_sites: int, columns) -> LaurentPoly:
    """Signed Laurent coefficient of a 0/1 constraint matrix with three columns.

    Column c of ``columns`` lists the site pairs whose entry in column c is 1.
    Each of the five terms contributes sign * r**(S1 + S2 + S3), where S_c is
    the block count of the partition of {0, ..., n_sites} generated by the
    built-in equalities of factor c together with the pairs of column c.
    """
    columns = tuple(tuple(column) for column in columns)
    if len(columns) != 3:
        raise ValueError(f"a constraint matrix has 3 columns, not {len(columns)}")
    coeffs: dict[int, int] = {}
    for sign, builtins in GHS_TERMS:
        exp = 0
        for c in range(3):
            exp += block_count(n_sites, builtins[c] + columns[c])
        coeffs[exp] = coeffs.get(exp, 0) + sign
    return LaurentPoly(coeffs)
