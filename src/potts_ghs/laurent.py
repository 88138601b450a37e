"""Integer-coefficient Laurent polynomials in the state count r.

The signed coefficients attached to constraint matrices, the aggregated
table entries, and the separation factors are all finite sums
``sum_k c_k * r**k`` with integer ``c_k`` and possibly negative ``k``
(the separation factors carry 1/r and 1/r**2 terms).  Exponents are stored
absolutely; evaluation at an integer ``r >= 2`` yields an exact Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                if not isinstance(exp, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be int")
                if c:
                    clean[exp] = c
        self._coeffs = clean

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterable[tuple[int, int]]:
        return self._coeffs.items()

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # A constant compares equal to its int, so it hashes as that int.
        c = self._coeffs
        return hash(c.get(0, 0) if c.keys() <= {0} else frozenset(c.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by r**k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    # -- evaluation and formatting -----------------------------------------

    def evaluate(self, r: int | Fraction) -> Fraction:
        """Exact value at a nonzero rational r."""
        rq = Fraction(r)
        if rq == 0:
            raise ValueError("cannot evaluate at r = 0 (negative exponents)")
        return sum((c * rq ** e for e, c in self._coeffs.items()), Fraction(0))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for exp in sorted(self._coeffs, reverse=True):
            c = self._coeffs[exp]
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "r" if exp == 1 else f"r^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def factored_str(self) -> str:
        """Render as ``r^k*(...)`` with k the minimal exponent."""
        if not self._coeffs:
            return "0"
        k = self.min_exp
        if k == 0:
            return str(self)
        inner = self.shift(-k)
        return f"r^{k}*({inner})"

    def __repr__(self) -> str:
        return f"LaurentPoly({self._coeffs!r})"


def _coerce(value: "LaurentPoly | int") -> LaurentPoly | None:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    return None
