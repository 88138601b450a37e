"""Tests for sparse polynomials in the deviation variables X_p."""

import random
from fractions import Fraction

import pytest

from potts_ghs import LaurentPoly, XPoly
from potts_ghs.xpoly import monomial_key, xpoly_eval, xpoly_records


def random_xpoly(rng, n_vars=4, n_terms=5, max_exp=3):
    terms = {}
    for _ in range(n_terms):
        mono = monomial_key(
            {v: rng.randint(0, max_exp) for v in rng.sample(range(n_vars), 2)}
        )
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms[mono] = terms.get(mono, 0) + coeff
    return XPoly(terms)


# ---------------------------------------------------------------------------
# monomial_key


def test_monomial_key_canonicalizes():
    assert monomial_key({}) == ()
    assert monomial_key({3: 2, 1: 1}) == ((1, 1), (3, 2))
    assert monomial_key({2: 0, 5: 1}) == ((5, 1),)


def test_monomial_key_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_key({-1: 2})
    with pytest.raises(ValueError):
        monomial_key({1: -2})
    with pytest.raises(ValueError):
        monomial_key({"a": 1})


# ---------------------------------------------------------------------------
# construction and inspection


def test_construction_merges_and_drops_zeros():
    p = XPoly({((1, 1),): Fraction(2), ((1, 1), (2, 0)): Fraction(-2)})
    assert p == XPoly()
    assert len(p) == 0
    assert not p
    assert p == 0


def test_term_constant_and_accessors():
    p = XPoly({((0, 1), (4, 2)): Fraction(3, 2), (): Fraction(7)})
    assert len(p) == 2
    assert p.coefficient({0: 1, 4: 2}) == Fraction(3, 2)
    assert p.coefficient({}) == 7
    assert p.coefficient({0: 1}) == 0


def test_absent_coefficient_is_the_ring_zero():
    symbolic = XPoly({((0, 1),): LaurentPoly({2: 1})})
    zero = symbolic.coefficient({1: 1})
    assert isinstance(zero, LaurentPoly) and zero == LaurentPoly()
    assert zero.evaluate(3) == 0
    numeric = XPoly({((0, 1),): Fraction(1, 2)})
    assert numeric.coefficient({1: 1}) == 0
    assert not isinstance(numeric.coefficient({1: 1}), LaurentPoly)
    assert XPoly().coefficient({0: 1}) == 0


def test_equality_ignores_term_order_and_compares_zero():
    a = XPoly({((1, 1),): 1, ((2, 1),): 2})
    b = XPoly({((2, 1),): 2, ((1, 1),): 1})
    assert a == b
    assert (a - b) == 0
    assert a != 0


# ---------------------------------------------------------------------------
# ring laws


def test_ring_laws_with_rational_coefficients():
    rng = random.Random("xpoly:0")
    for _ in range(40):
        a, b, c = (random_xpoly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + XPoly() == a
        assert a * XPoly({(): Fraction(1)}) == a
        assert a - a == XPoly()
        assert a * XPoly() == XPoly()


def test_ring_laws_with_laurent_coefficients():
    rng = random.Random("xpoly:1")
    for _ in range(10):
        def rand_lp():
            return LaurentPoly(
                {rng.randint(-2, 4): rng.randint(-5, 5) for _ in range(3)}
            )

        a = XPoly({monomial_key({0: 1}): rand_lp(), (): rand_lp()})
        b = XPoly({monomial_key({1: 2}): rand_lp(), (): rand_lp()})
        assert a * b == b * a
        assert a + b == b + a
        assert a - a == XPoly()


def test_scalar_multiplication():
    p = XPoly({((1, 1),): Fraction(3)})
    assert p * Fraction(1, 3) == XPoly({((1, 1),): Fraction(1)})
    assert 2 * p == XPoly({((1, 1),): Fraction(6)})
    assert p * 0 == XPoly()


# ---------------------------------------------------------------------------
# evaluation


def test_eval_binomial_cube():
    # (1 + X)^3 at X = 2 is 27.
    one_plus_x = XPoly({(): Fraction(1), ((0, 1),): Fraction(1)})
    cube = one_plus_x * one_plus_x * one_plus_x
    assert xpoly_eval(cube, {0: Fraction(2)}) == 27
    assert cube.coefficient({0: 2}) == 3


def test_eval_symbolic_coefficients_require_r():
    # (1 + r^-1 X)^3 at X = 2, r = 2 is (1 + 1)^3 = 8.
    p = XPoly({(): LaurentPoly({0: 1}), ((0, 1),): LaurentPoly({-1: 1})})
    cube = p * p * p
    assert xpoly_eval(cube, {0: Fraction(2)}, r=2) == 8
    with pytest.raises(ValueError, match="state count"):
        xpoly_eval(cube, {0: Fraction(2)})


def test_eval_missing_variable_raises():
    p = XPoly({((0, 1), (3, 1)): Fraction(1)})
    with pytest.raises(ValueError, match="X_3"):
        xpoly_eval(p, {0: Fraction(1)})


def test_eval_is_a_homomorphism():
    rng = random.Random("xpoly:2")
    for _ in range(20):
        a, b = random_xpoly(rng), random_xpoly(rng)
        point = {v: Fraction(rng.randint(0, 5), rng.randint(1, 3)) for v in range(4)}
        assert xpoly_eval(a + b, point) == xpoly_eval(a, point) + xpoly_eval(b, point)
        assert xpoly_eval(a * b, point) == xpoly_eval(a, point) * xpoly_eval(b, point)


# ---------------------------------------------------------------------------
# substitution


def substitute(poly: XPoly, var: int, value: Fraction) -> XPoly:
    """Partially evaluate one variable of a numeric-coefficient polynomial,
    folding value**exp into the coefficients of the other variables."""
    out: dict = {}
    for mono, coeff in poly.items():
        scale = Fraction(1)
        rest = []
        for v, e in mono:
            if v == var:
                scale *= Fraction(value) ** e
            else:
                rest.append((v, e))
        key = tuple(rest)
        out[key] = out.get(key, 0) + coeff * scale
    return XPoly(out)


def test_substitute_folds_one_variable():
    p = XPoly({((0, 2), (1, 1)): Fraction(2), ((1, 3),): Fraction(5)})
    q = substitute(p, 0, Fraction(3))
    assert q == XPoly({((1, 1),): Fraction(18), ((1, 3),): Fraction(5)})
    assert substitute(q, 1, Fraction(1)) == XPoly({(): Fraction(23)})


def test_substitute_consistent_with_eval():
    rng = random.Random("xpoly:3")
    for _ in range(20):
        p = random_xpoly(rng)
        point = {v: Fraction(rng.randint(0, 4), rng.randint(1, 3)) for v in range(4)}
        partial = substitute(p, 2, point[2])
        assert all(var != 2 for mono, _ in partial.items() for var, _ in mono)
        assert xpoly_eval(partial, point) == xpoly_eval(p, point)


def test_substitute_absent_variable_is_identity():
    p = XPoly({((1, 2),): Fraction(1)})
    assert substitute(p, 0, Fraction(9)) == p


# ---------------------------------------------------------------------------
# serialization


def test_records_order_and_rational_rendering():
    p = XPoly({((1, 1),): Fraction(3, 2), ((0, 2),): Fraction(-2), (): Fraction(5)})
    records = xpoly_records(p, 3)
    assert records == [
        {"exponents": [], "coefficient": "5/1"},
        {"exponents": [[1, 1]], "coefficient": "3/2"},
        {"exponents": [[0, 2]], "coefficient": "-2/1"},
    ]


def test_records_laurent_rendering():
    p = XPoly({((0, 1),): LaurentPoly({2: 1, 0: -1})})
    assert xpoly_records(p, 1) == [
        {"exponents": [[0, 1]], "coefficient": "r^2 - 1"}
    ]


def test_records_reject_out_of_range_variable():
    with pytest.raises(ValueError, match="X_2"):
        xpoly_records(XPoly({((2, 1),): Fraction(1)}), 2)
