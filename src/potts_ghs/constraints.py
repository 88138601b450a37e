"""Equality-constraint matrices and their signed Laurent coefficients.

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
ghost*, subject to the listed equalities.  A constraint matrix A adds, for
each pair p with column entry a(p, c) = 1, the equality sigma_i = sigma_j of
that pair to factor c; its coefficient is the signed sum of r**(number of
blocks) over the five terms, an integer Laurent polynomial in r.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

from .laurent import LaurentPoly
from .model import GhostWeightVector, pair_order
from .partitions import block_count, merge_constraints

# (sign, per-factor built-in equalities) for the five terms above.
GHS_TERMS: tuple[tuple[int, tuple[tuple[tuple[int, int], ...], ...]], ...] = (
    (+1, ((), (), ((0, 1), (0, 2), (0, 3)))),
    (-1, ((), ((0, 1), (0, 2)), ((0, 3),))),
    (-1, ((), ((0, 1), (0, 3)), ((0, 2),))),
    (-1, ((), ((0, 2), (0, 3)), ((0, 1),))),
    (+2, (((0, 1),), ((0, 2),), ((0, 3),))),
)

# The 8 distinct built-in equality sets of GHS_TERMS, in order of first use,
# and each term with its three factors re-indexed into that tuple.
GHS_FACTORS = tuple(dict.fromkeys(eqs for _, triple in GHS_TERMS for eqs in triple))
GHS_FACTOR_TERMS = tuple(
    (sign, tuple(GHS_FACTORS.index(eqs) for eqs in triple)) for sign, triple in GHS_TERMS
)


@dataclass(frozen=True)
class ConstraintMatrix:
    """A 0/1 matrix with one row per pair and three columns.

    ``entries`` holds the nonzero rows only, keyed by pair index in
    pair_order(n_sites).
    """

    n_sites: int
    entries: tuple[tuple[int, tuple[int, int, int]], ...]

    def __post_init__(self):
        n_pairs = len(pair_order(self.n_sites))
        rows = []
        seen = set()
        for p, row in self.entries:
            row = tuple(row)
            if not 0 <= p < n_pairs:
                raise ValueError(f"pair index {p} out of range")
            if p in seen:
                raise ValueError(f"duplicate row for pair index {p}")
            seen.add(p)
            if len(row) != 3 or any(a not in (0, 1) for a in row):
                raise ValueError(f"row {row!r} must be three 0/1 entries")
            if row != (0, 0, 0):
                rows.append((p, row))
        rows.sort()
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def from_rows(
        cls, n_sites: int, rows: Mapping[int, tuple[int, int, int]]
    ) -> "ConstraintMatrix":
        return cls(n_sites, tuple(rows.items()))

    def column_pairs(self, c: int) -> tuple[tuple[int, int], ...]:
        """Site pairs whose equality enters factor c (0-based column)."""
        order = pair_order(self.n_sites)
        return tuple(order.pairs[p] for p, row in self.entries if row[c])


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
    is r**(n_sites + 1).
    """
    n = weights.n_sites
    r = weights.n_states
    index = merge_constraints(n, equalities)
    # Integer-scaled accumulation: factor t = num/den per active pair, with
    # the common denominator pulled out front.
    prefactor = 1
    denominator = 1
    var_pairs = []
    for i, j in active_pairs:
        if i > j:
            i, j = j, i
        t = weights.weight_of(i, j)
        num, den = t.numerator, t.denominator
        denominator *= den
        bi, bj = index[i], index[j]
        if bi == bj or num == den:
            prefactor *= num
        else:
            var_pairs.append((bi, bj, num, den))
    total = 0
    for assign in product(range(r), repeat=max(index) + 1):
        acc = prefactor
        for bi, bj, num, den in var_pairs:
            acc *= num if assign[bi] == assign[bj] else den
        total += acc
    return Fraction(total, denominator)


def matrix_coefficient(matrix: ConstraintMatrix) -> LaurentPoly:
    """Signed Laurent coefficient of a constraint matrix.

    Each of the five terms contributes sign * r**(S1 + S2 + S3), where S_c is
    the block count of the partition of {0, ..., n_sites} generated by the
    built-in equalities of factor c together with the pairs of column c.
    """
    columns = [matrix.column_pairs(c) for c in range(3)]
    coeffs: dict[int, int] = {}
    for sign, builtins in GHS_TERMS:
        exp = 0
        for c in range(3):
            exp += block_count(matrix.n_sites, builtins[c] + columns[c])
        coeffs[exp] = coeffs.get(exp, 0) + sign
    return LaurentPoly(coeffs)
