"""Laurent polynomial ring: construction, arithmetic, and rendering."""
import random
from fractions import Fraction

import pytest

from potts_ghs import LaurentPoly


def random_poly(rng: random.Random) -> LaurentPoly:
    return LaurentPoly(
        {rng.randint(-4, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
    )


def test_construction_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 2, 0: 0})
    assert dict(p.items()) == {1: 2}
    assert LaurentPoly({5: 0}) == LaurentPoly()
    assert not LaurentPoly()


def test_coefficient_and_exponent_range():
    p = LaurentPoly({2: 1, -1: -3})
    assert p.coefficient(2) == 1
    assert p.coefficient(-1) == -3
    assert p.coefficient(0) == 0
    assert p.min_exp == -1


def test_equality_with_integers():
    assert LaurentPoly({0: 7}) == 7
    assert LaurentPoly() == 0
    assert LaurentPoly({1: 1}) != 1
    assert hash(LaurentPoly({2: 3, 0: -1})) == hash(LaurentPoly({0: -1, 2: 3}))


def test_hash_agrees_with_integer_equality():
    assert len({LaurentPoly({0: 5}), 5}) == 1
    assert len({LaurentPoly(), 0}) == 1
    assert len({LaurentPoly({1: 5}), 5}) == 2


def test_ring_laws_on_seeded_polynomials():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        assert a - a == 0
        assert a * 0 == 0


def test_shift_moves_every_exponent():
    p = LaurentPoly({2: 1, 0: -5})
    assert p.shift(3) == LaurentPoly({5: 1, 3: -5})
    assert p.shift(-2) == LaurentPoly({0: 1, -2: -5})
    assert p.shift(0) == p


def test_evaluate_is_a_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(30):
        a, b = random_poly(rng), random_poly(rng)
        r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert (a + b).evaluate(r) == a.evaluate(r) + b.evaluate(r)
        assert (a * b).evaluate(r) == a.evaluate(r) * b.evaluate(r)


def test_evaluate_examples_and_zero_rejection():
    p = LaurentPoly({2: 1, 1: -3, 0: 2})
    assert p.evaluate(2) == 0
    assert p.evaluate(5) == 12
    assert LaurentPoly({-2: 1}).evaluate(2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        p.evaluate(0)


def test_str_renders_descending_exponents():
    assert str(LaurentPoly({2: 1, 1: -3, 0: 2})) == "r^2 - 3*r + 2"
    assert (
        str(LaurentPoly({4: 2, 3: 6, 2: -28, 1: 8, 0: 12}))
        == "2*r^4 + 6*r^3 - 28*r^2 + 8*r + 12"
    )
    assert str(LaurentPoly({-1: 1})) == "r^-1"
    assert str(LaurentPoly({1: -1})) == "-r"
    assert str(LaurentPoly({0: 5})) == "5"
    assert str(LaurentPoly()) == "0"


def test_factored_str_pulls_out_the_lowest_power():
    assert LaurentPoly({5: 1, 4: -3, 3: 2}).factored_str() == "r^3*(r^2 - 3*r + 2)"
    assert LaurentPoly({-2: 1, 0: 2}).factored_str() == "r^-2*(2*r^2 + 1)"
    assert LaurentPoly({0: 7}).factored_str() == "7"
    assert LaurentPoly().factored_str() == "0"
