"""Sparse multivariate polynomials in the deviation variables X_p = t_p - 1.

A monomial is a product of powers of the deviations of selected pairs,
stored as a sorted tuple of (pair index, exponent) with positive exponents.
Coefficients live in one of two rings, never mixed inside a poly: exact
rationals (when the instance is numeric) or LaurentPoly in r (when the state
count stays symbolic).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .laurent import LaurentPoly
from .modelfile import rational_str

Monomial = tuple[tuple[int, int], ...]


def monomial_key(exponents: Mapping[int, int]) -> Monomial:
    """Canonical monomial from a {pair index: exponent} map."""
    items = []
    for var, exp in exponents.items():
        if not isinstance(var, int) or var < 0:
            raise ValueError(f"bad variable index {var!r}")
        if not isinstance(exp, int) or exp < 0:
            raise ValueError(f"bad exponent {exp!r}")
        if exp:
            items.append((var, exp))
    return tuple(sorted(items))


class XPoly:
    """Immutable sparse polynomial in the X_p variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        merged: dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                key = monomial_key(dict(mono))
                merged[key] = merged[key] + coeff if key in merged else coeff
        self._terms = {k: c for k, c in merged.items() if c}

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, exponents: Mapping[int, int]):
        """Coefficient of the given monomial, the ring's zero when absent.

        The zero is LaurentPoly() for symbolic coefficients and 0 for
        numeric ones (or for a polynomial with no terms).
        """
        key = monomial_key(exponents)
        if key in self._terms:
            return self._terms[key]
        first = next(iter(self._terms.values()), 0)
        return LaurentPoly() if isinstance(first, LaurentPoly) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XPoly):
            if set(self._terms) != set(other._terms):
                return False
            return all(self._terms[m] == other._terms[m] for m in self._terms)
        if other == 0:
            return not self._terms
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "XPoly") -> "XPoly":
        if not isinstance(other, XPoly):
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            if mono in out:
                out[mono] = out[mono] + coeff
            else:
                out[mono] = coeff
        return XPoly(out)

    def __neg__(self) -> "XPoly":
        return XPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "XPoly") -> "XPoly":
        if not isinstance(other, XPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "XPoly":
        if isinstance(other, XPoly):
            out: dict[Monomial, object] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = _merge_monomials(m1, m2)
                    prod = c1 * c2
                    if mono in out:
                        out[mono] = out[mono] + prod
                    else:
                        out[mono] = prod
            return XPoly(out)
        # scalar
        return XPoly({m: c * other for m, c in self._terms.items()})

    def __rmul__(self, other) -> "XPoly":
        return XPoly({m: other * c for m, c in self._terms.items()})

    def __repr__(self) -> str:
        return f"XPoly(n_terms={len(self._terms)})"


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[int, int] = dict(m1)
    for var, exp in m2:
        exps[var] = exps.get(var, 0) + exp
    return tuple(sorted(exps.items()))


def xpoly_eval(
    poly: XPoly,
    x_values: Mapping[int, Fraction],
    r: int | None = None,
) -> Fraction:
    """Exact value of the polynomial at the given deviations.

    Symbolic (LaurentPoly) coefficients require the state count r; numeric
    coefficients ignore it.  Every variable of the polynomial must be given
    a value.
    """
    total = Fraction(0)
    for mono, coeff in poly.items():
        factor = Fraction(1)
        for var, exp in mono:
            if var not in x_values:
                raise ValueError(f"no value supplied for X_{var}")
            factor *= Fraction(x_values[var]) ** exp
        if isinstance(coeff, LaurentPoly):
            if r is None:
                raise ValueError("symbolic coefficients require the state count r")
            factor *= coeff.evaluate(r)
        else:
            factor *= Fraction(coeff)
        total += factor
    return total


def xpoly_records(poly: XPoly, n_vars: int) -> list[dict]:
    """Canonical serialization: one record per monomial.

    Monomials are ordered lexicographically by their dense exponent vector
    over variables 0..n_vars-1; coefficients render as canonical Laurent
    text or as "p/q".
    """
    def dense(mono: Monomial) -> tuple[int, ...]:
        vec = [0] * n_vars
        for var, exp in mono:
            if var >= n_vars:
                raise ValueError(f"variable X_{var} outside declared range")
            vec[var] = exp
        return tuple(vec)

    records = []
    for mono in sorted(poly._terms, key=dense):
        coeff = poly._terms[mono]
        if isinstance(coeff, LaurentPoly):
            text = str(coeff)
        else:
            text = rational_str(Fraction(coeff))
        records.append(
            {"exponents": [[var, exp] for var, exp in mono], "coefficient": text}
        )
    return records
