"""Tests for constraint-matrix coefficients, constrained spin sums and the combiner."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potts_ghs import (
    GhostWeightVector,
    LaurentPoly,
    XPoly,
    random_weights,
)
from potts_ghs.constraints import (
    GHS_FACTORS,
    GHS_TERMS,
    constrained_sum,
    ghs_combination,
    matrix_coefficient,
)
from potts_ghs.model import pair_order


def brute_constrained_sum(weights, equalities, active_pairs):
    """Direct enumeration of all spins including the ghost."""
    n, r = weights.n_sites, weights.n_states
    total = Fraction(0)
    for spins in product(range(1, r + 1), repeat=n + 1):
        if any(spins[i] != spins[j] for i, j in equalities):
            continue
        term = Fraction(1)
        for i, j in active_pairs:
            if spins[i] == spins[j]:
                term *= weights.weight_of(i, j)
        total += term
    return total


def random_columns(n_sites, rng):
    """The three columns of a random 0/1 matrix with a row per site pair."""
    pairs = pair_order(n_sites).pairs
    rows = [[rng.randint(0, 1) for _ in range(3)] for _ in pairs]
    return [tuple(pair for pair, row in zip(pairs, rows) if row[c]) for c in range(3)]


def core_columns(row):
    """Columns of the matrix whose rows on the core pairs all equal ``row``."""
    return [((1, 2), (1, 3), (2, 3)) if bit else () for bit in row]


# ---------------------------------------------------------------------------
# GHS_TERMS


def test_ghs_terms_signs_and_shape():
    assert len(GHS_TERMS) == 5
    assert [sign for sign, _ in GHS_TERMS] == [1, -1, -1, -1, 2]
    assert len({builtins for _, builtins in GHS_TERMS}) == 5
    for _, builtins in GHS_TERMS:
        assert len(builtins) == 3
        for factor in builtins:
            for i, j in factor:
                assert i == 0 and j in (1, 2, 3)


def test_ghs_terms_each_ghost_pair_used_three_times_per_sign_weight():
    # Every (0, k) equality appears with total signed multiplicity 0.
    for k in (1, 2, 3):
        weight = sum(
            sign * sum(factor.count((0, k)) for factor in builtins)
            for sign, builtins in GHS_TERMS
        )
        assert weight == 0


def test_ghs_combination_is_the_five_term_definition_in_a_free_ring():
    # Eight independent variables as the factors: any swapped index or sign
    # in the staged combiner changes some monomial of the result.
    x = [XPoly({((a, 1),): 1}) for a in range(len(GHS_FACTORS))]
    expected = XPoly()
    for sign, triple in GHS_TERMS:
        a, b, c = (GHS_FACTORS.index(eqs) for eqs in triple)
        expected = expected + sign * (x[a] * x[b] * x[c])
    assert len(expected) == 5
    assert ghs_combination(x) == expected


# ---------------------------------------------------------------------------
# constrained_sum


def test_constrained_sum_hand_values():
    w = GhostWeightVector.uniform(3, 2)
    assert constrained_sum(w, (), ()) == 16  # r ** (n_sites + 1)
    assert constrained_sum(w, ((0, 1), (0, 2), (0, 3)), ()) == 2
    assert constrained_sum(w, ((1, 2), (1, 3), (2, 3)), ()) == 4
    w3 = GhostWeightVector.uniform(3, 3)
    assert constrained_sum(w3, ((0, 1),), ()) == 27  # blocks {0,1},{2},{3}


def test_constrained_sum_within_block_pair_folds_weight():
    w = GhostWeightVector.from_pair_map(3, 3, {(1, 2): Fraction(3, 2)})
    # Equality (1,2) makes the active pair (1,2) always satisfied.
    assert constrained_sum(w, ((1, 2),), ((1, 2),)) == Fraction(3, 2) * 27


def test_constrained_sum_cross_block_pair():
    w = GhostWeightVector.from_pair_map(3, 2, {(1, 2): Fraction(3)})
    # No equalities, one active pair: (t - 1) collapses one spin choice.
    # Sum over 16 configs: 8 with sigma_1 = sigma_2 weigh 3, 8 weigh 1.
    assert constrained_sum(w, (), ((1, 2),)) == 8 * 3 + 8


@st.composite
def constrained_cases(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(2, 4))
    pairs = pair_order(n).pairs
    ratio = st.builds(Fraction, st.integers(0, 9), st.integers(1, 4))
    deviations = draw(st.lists(ratio, min_size=len(pairs), max_size=len(pairs)))
    weights = GhostWeightVector(n, r, tuple(1 + x for x in deviations))
    if draw(st.booleans()):
        # Every site tied to the ghost: one block, no quotient enumeration.
        equalities = [(0, s) for s in range(1, n + 1)]
    else:
        equalities = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    # Repeated and reversed pairs; with equalities, several active pairs
    # land on one quotient pair.
    either_way = st.sampled_from(pairs + tuple((j, i) for i, j in pairs))
    active = draw(st.lists(either_way, max_size=2 * len(pairs)))
    return weights, equalities, active


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(constrained_cases())
def test_constrained_sum_matches_brute_force(case):
    weights, equalities, active = case
    assert constrained_sum(weights, equalities, active) == brute_constrained_sum(
        weights, equalities, active
    )


# ---------------------------------------------------------------------------
# matrix_coefficient


def test_zero_matrix_has_zero_coefficient():
    for n in (3, 4):
        assert matrix_coefficient(n, ((), (), ())) == LaurentPoly()


def test_all_ones_core_matrix_coefficient():
    poly = matrix_coefficient(3, core_columns((1, 1, 1)))
    assert poly == LaurentPoly({5: 1, 4: -3, 3: 2})


def test_extra_site_shifts_coefficient_by_three():
    m3 = matrix_coefficient(3, core_columns((1, 1, 1)))
    m4 = matrix_coefficient(4, core_columns((1, 1, 1)))
    assert m4 == m3.shift(3)


def test_core_101_matrix_coefficient():
    poly = matrix_coefficient(3, core_columns((1, 0, 1)))
    assert poly == LaurentPoly({7: 1, 5: -1})
    assert poly.evaluate(2) == 96


def test_matrix_coefficient_vanishes_at_one_state():
    rng = random.Random("annihilate:0")
    for _ in range(30):
        n = rng.choice([3, 4])
        assert matrix_coefficient(n, random_columns(n, rng)).evaluate(1) == 0


@pytest.mark.parametrize(
    "columns, message",
    [
        ((((1, 2),), ((1, 5),), ()), r"equality \(1, 5\) out of range for n_sites=3"),
        (((), ((0, 4),), ((1, 2),)), r"equality \(0, 4\) out of range for n_sites=3"),
        ((((-1, 2),), (), ()), r"equality \(-1, 2\) out of range for n_sites=3"),
        ((((1, 2),), (), ((2, 2),)), r"degenerate equality \(2, 2\)"),
    ],
    ids=["beyond-n", "ghost-beyond-n", "negative", "degenerate"],
)
def test_matrix_coefficient_rejects_a_bad_pair(columns, message):
    with pytest.raises(ValueError, match=message):
        matrix_coefficient(3, columns)


@pytest.mark.parametrize("columns", [((), ()), ((), (), (), ((1, 2),))], ids=["2", "4"])
def test_matrix_coefficient_takes_three_columns(columns):
    with pytest.raises(ValueError, match=f"3 columns, not {len(columns)}"):
        matrix_coefficient(3, columns)


# ---------------------------------------------------------------------------
# matrix_sum_value: the dual route


def matrix_sum_value(columns, weights):
    """Five-term signed combination of constrained sums with no active pairs.

    Every factor reduces to r**(block count), so the value equals
    matrix_coefficient(n_sites, columns) evaluated at r.
    """
    total = Fraction(0)
    for sign, builtins in GHS_TERMS:
        prod_val = Fraction(1)
        for c in range(3):
            prod_val *= constrained_sum(weights, builtins[c] + columns[c], ())
        total += sign * prod_val
    return total


def test_matrix_sum_value_matches_coefficient_evaluation():
    rng = random.Random("dual:0")
    for _ in range(20):
        n = rng.choice([3, 4])
        r = rng.choice([2, 3, 4])
        columns = random_columns(n, rng)
        # No pairs are active in the five-term sum, so any weights give
        # the same value: the coefficient evaluated at r.
        w = random_weights(n, r, rng)
        expected = matrix_coefficient(n, columns).evaluate(r)
        assert matrix_sum_value(columns, w) == expected


def test_matrix_sum_value_matches_brute_force():
    rng = random.Random("dual:1")
    for _ in range(5):
        columns = random_columns(3, rng)
        w = random_weights(3, 2, rng)
        expected = Fraction(0)
        for sign, builtins in GHS_TERMS:
            prod_val = Fraction(1)
            for c in range(3):
                prod_val *= brute_constrained_sum(w, builtins[c] + columns[c], ())
            expected += sign * prod_val
        assert matrix_sum_value(columns, w) == expected


def test_single_field_row_coefficients():
    # One ghost-pair row in one column: the three placements cancel, which
    # is why monomials with a single variable never survive aggregation.
    expected = (
        LaurentPoly({9: 2, 8: -2}),
        LaurentPoly({9: -2, 8: 2}),
        LaurentPoly(),
    )
    total = LaurentPoly()
    for col in range(3):
        columns = [((0, 1),) if c == col else () for c in range(3)]
        poly = matrix_coefficient(3, columns)
        assert poly == expected[col]
        total = total + poly
    assert total == LaurentPoly()
