"""Tests for the polynomial expansion of the scaled curvature sum."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from brute_force import ghs_I
from potts_ghs import (
    CapacityError,
    LaurentPoly,
    XPoly,
    expand_full,
    expand_partial,
    ghs_sum,
    random_weights,
)
from potts_ghs.alpha import alpha
from potts_ghs.constraints import GHS_TERMS, matrix_coefficient
from potts_ghs.model import pair_order
from potts_ghs.separation import reduced_expansion
from potts_ghs.xpoly import xpoly_eval
from test_constraints import brute_constrained_sum
from test_xpoly import substitute

CORE = set(pair_order(3).core_indices)


def profile_matrices(profile):
    """The columns of every 0/1 constraint matrix at n_sites = 3 whose row
    weights (pair index to weight) match the profile."""
    pairs = pair_order(3).pairs
    choices = [
        [(pairs[p], cols) for cols in combinations(range(3), weight)]
        for p, weight in profile.items()
    ]
    for picked in product(*choices):
        yield [tuple(pair for pair, cols in picked if c in cols) for c in range(3)]


# ---------------------------------------------------------------------------
# expand_full: shape


def test_full_expansion_monomial_count():
    assert len(expand_full(3)) == 1458


def test_full_expansion_rejects_fewer_than_three_sites():
    # A size without the triple is a usage error, as for the curvature sum.
    for n in (1, 2):
        with pytest.raises(ValueError, match="n_sites >= 3"):
            expand_full(n)


def test_full_expansion_rejects_more_than_three_sites():
    for n in (4, 5):
        with pytest.raises(CapacityError):
            expand_full(n)


def test_full_expansion_has_no_constant_or_single_variable_terms():
    poly = expand_full(3)
    assert poly.coefficient({}) == 0
    for p in range(6):
        for e in (1, 2, 3):
            assert poly.coefficient({p: e}) == 0


def test_every_monomial_touches_two_core_pairs():
    # Fewer than two core equalities leave a site decoupled, and the five
    # signed terms then cancel exactly.
    for mono, coeff in expand_full(3).items():
        core_vars = {v for v, _ in mono if v in CORE}
        assert len(core_vars) >= 2
        assert coeff.evaluate(1) == 0


def test_exponents_stay_within_column_count():
    for mono, _ in expand_full(3).items():
        assert all(1 <= e <= 3 for _, e in mono)


# ---------------------------------------------------------------------------
# expand_full: coefficients


def test_pure_core_slice_is_the_reduced_expansion():
    full = expand_full(3)
    reduced = reduced_expansion(3)
    pure = XPoly(
        {
            mono: coeff
            for mono, coeff in full.items()
            if all(v in CORE for v, _ in mono)
        }
    )
    assert pure == reduced
    assert len(reduced) == 54


def test_uniform_core_coefficient_is_alpha():
    full = expand_full(3)
    assert full.coefficient({3: 1, 4: 1, 5: 1}) == alpha(1, 1, 1)
    assert full.coefficient({3: 3, 4: 3, 5: 3}) == alpha(3, 3, 3)
    assert full.coefficient({3: 2, 4: 1, 5: 0}) == alpha(2, 1, 0)


def test_coefficients_aggregate_matrix_coefficients():
    full = expand_full(3)
    profiles = [
        {3: 1, 4: 1, 5: 1},
        {3: 3},
        {0: 1, 3: 1, 4: 1},
        {0: 2, 1: 1, 3: 2, 5: 1},
        {2: 1, 4: 3, 5: 2},
    ]
    for profile in profiles:
        total = LaurentPoly()
        for columns in profile_matrices(profile):
            total = total + matrix_coefficient(3, columns)
        assert full.coefficient(profile) == total


def test_single_matrix_profile():
    # Exponent 3 forces the all-ones row, so the aggregate has one matrix.
    profile = {3: 3, 4: 3, 5: 3}
    (columns,) = profile_matrices(profile)
    assert columns == [((1, 2), (1, 3), (2, 3))] * 3
    assert expand_full(3).coefficient(profile) == matrix_coefficient(3, columns)


# ---------------------------------------------------------------------------
# expand_full: evaluation


def test_full_expansion_evaluates_to_curvature_sum():
    rng = random.Random("expansion:0")
    for k in range(5):
        r = 2 + k % 3
        weights = random_weights(3, r, rng)
        value = xpoly_eval(expand_full(3), weights.x_values(), r=r)
        assert value == ghs_sum(weights)


def test_full_expansion_at_unit_weights_is_zero():
    for r in (2, 3, 4, 5):
        assert xpoly_eval(expand_full(3), {p: Fraction(0) for p in range(6)}, r=r) == 0


def test_two_state_coefficients_certify_concavity_at_three_sites():
    # Every coefficient is <= 0 at r = 2, so the polynomial is <= 0 at every
    # X_p = t_p - 1 >= 0: ghs_I <= 0 for every instance at N = 3, r = 2,
    # fields included.
    full = expand_full(3)
    values = [c.evaluate(2) for _, c in full.items()]
    assert Counter((v > 0) - (v < 0) for v in values) == {-1: 1356, 0: 102}
    rng = random.Random("expansion:ising")
    for _ in range(3):
        weights = random_weights(3, 2, rng)
        value = xpoly_eval(full, weights.x_values(), r=2)
        assert value == ghs_I(3, 2, weights.weights) < 0


# ---------------------------------------------------------------------------
# expand_partial


def test_partial_expansion_window_validation():
    w = random_weights(3, 2, random.Random("expansion:1"))
    with pytest.raises(ValueError, match="window"):
        expand_partial(w, 0)
    with pytest.raises(ValueError, match="window"):
        expand_partial(w, 7)
    # Windows beyond the dense-enumeration cap are a capacity refusal, not
    # a validation error.
    w4 = random_weights(4, 2, random.Random("expansion:7"))
    with pytest.raises(CapacityError, match="window"):
        expand_partial(w4, 7)


def test_partial_expansion_variables_are_the_window():
    w = random_weights(3, 3, random.Random("expansion:2"))
    for s in (1, 2, 3, 6):
        poly = expand_partial(w, s)
        variables = {var for mono, _ in poly.items() for var, _ in mono}
        assert variables <= set(range(6 - s, 6))


def test_partial_expansion_evaluates_to_curvature_sum():
    # The full 6-pair window is exercised at 3 sites; at 4 sites only small
    # windows are viable (the dense product over 2**10 subsets blows up).
    rng = random.Random("expansion:3")
    for n_sites, r, windows in ((3, 2, (1, 2, 3, 6)), (3, 3, (1, 2, 3, 6)), (4, 2, (1, 2, 3))):
        w = random_weights(n_sites, r, rng)
        expected = ghs_I(n_sites, r, w.weights)
        xs = w.x_values()
        for s in windows:
            poly = expand_partial(w, s)
            assert xpoly_eval(poly, xs) == expected


def test_partial_expansion_coefficients_are_rational():
    w = random_weights(3, 3, random.Random("expansion:4"))
    for _, coeff in expand_partial(w, 2).items():
        assert isinstance(coeff, Fraction)


def test_partial_expansions_telescope():
    # Fixing the newly expanded variable at its instance value recovers the
    # smaller window exactly.
    rng = random.Random("expansion:5")
    w = random_weights(3, 3, rng)
    xs = w.x_values()
    for s in (1, 2, 3, 4, 5):
        wider = expand_partial(w, s + 1)
        fixed = substitute(wider, 6 - s - 1, xs[6 - s - 1])
        assert fixed == expand_partial(w, s)


def test_full_window_partial_matches_symbolic_at_r():
    # Expanding every pair numerically agrees coefficientwise with the
    # symbolic table evaluated at the instance's state count.
    rng = random.Random("expansion:6")
    w = random_weights(3, 4, rng)
    numeric = expand_partial(w, 6)
    symbolic = expand_full(3)
    for mono, coeff in symbolic.items():
        assert numeric.coefficient(dict(mono)) == coeff.evaluate(4)
    assert len(numeric) == len(symbolic)


def reference_partial(weights, s: int) -> XPoly:
    """The expansion over the last s pairs by its definition.

    With t_p = 1 + X_p on the window, each constrained sum F(eqs) expands as
    the sum over window subsets A of prod_{p in A} X_p times F(eqs + A) with
    the carried pairs active and the rest of the window at weight 1; the
    five signed products of GHS_TERMS then combine the eight factors.
    """
    pairs = pair_order(weights.n_sites).pairs
    first = len(pairs) - s
    carried = pairs[:first]
    factors = {}
    for eqs in {eqs for _, triple in GHS_TERMS for eqs in triple}:
        terms = {}
        for mask in range(1 << s):
            chosen = [first + b for b in range(s) if mask >> b & 1]
            equalities = eqs + tuple(pairs[p] for p in chosen)
            terms[tuple((p, 1) for p in chosen)] = brute_constrained_sum(
                weights, equalities, carried
            )
        factors[eqs] = XPoly(terms)
    total = XPoly()
    for sign, (a, b, c) in GHS_TERMS:
        total = total + sign * (factors[a] * factors[b] * factors[c])
    return total


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n_sites", [3, 4, 5])
def test_partial_expansion_matches_the_subset_expansion(n_sites, r):
    rng = random.Random(f"expansion:reference:{n_sites}:{r}")
    w = random_weights(n_sites, r, rng)
    for s in (1, 2, 3, 4):
        assert expand_partial(w, s) == reference_partial(w, s), s
