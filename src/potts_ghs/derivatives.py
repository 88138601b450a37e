"""Second derivatives of the local magnetization, exact and numerical.

The second derivative of m_i with respect to the fields at j and k is the
five-term truncated triple correlation

    <d_i d_j d_k> - <d_i d_k><d_j> - <d_i d_j><d_k> - <d_k d_j><d_i>
        + 2 <d_i><d_j><d_k>

where d_i indicates site i being in state 1 and repeated indices merge.
``ghs_sum`` computes the same quantity for the triple (1, 2, 3) scaled by
r**3 Z**3, as the signed combination of ghost-summed constrained partition
sums F(0=S) = r * Z_S.  Both take the eight pinned sums Z_S of their
triple from ``constraints._pinned_sums``, one ``weighted_sums`` pass, and
combine them with the staged ``constraints.ghs_combination``; their
independent check is the stdlib enumerator ``tests/brute_force.py``.
``second_derivative_via_sum`` takes the curvature sum of any distinct
triple from that triple's own pass and divides it by r**3 Z**3, with Z the
``()`` sum of the same pass.  ``_triple_pass`` is the one pass behind the
three derivative routes: over Fraction it gives the analytic value and, at
distinct sites, the curvature-sum value from the same eight sums, so an
exact ``derivative`` job makes two passes, this one and the oracle's
``Decimal`` pass.
A high-precision finite-difference oracle backs the analytic values
numerically, on a physical model or on the exact weights themselves.  It
takes the same ``_pinned_sums`` pass at the unshifted weights and evaluates
every stencil point in closed form, so it shares the enumeration with the
analytic routes but not the combiner.  It computes in the standard
library's ``decimal`` at 42 digits; a coupling above about 2.3e18
overflows it and raises CapacityError (CLI exit 3).  On a physical model
the float route and the oracle read the pair energies J from one map,
``_energies``, and each takes e**J in its own ring.  When the float pass
leaves Z infinite although every e**J is a finite double, the same
doubles are summed exactly and the answer rounded once; the route that
ran is "float" or "exact-fallback".
"""
from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

from .constraints import _check_sites, _curvature_sum, _pinned_sums, ghs_combination
from .model import CapacityError, GhostWeightVector, ModelSpec, pair_order

FD_PRECISION_DPS = 40


def _energies(model: ModelSpec) -> list[float]:
    """The pair energies J aligned with pair_order: the field B_j on the
    ghost pair (0, j), the coupling J_ab elsewhere."""
    return [
        model.fields[b - 1] if a == 0 else model.coupling(a, b)
        for a, b in pair_order(model.n_sites).pairs
    ]


def _truncated_triple(sums):
    """The five-term truncated triple correlation from a triple's eight
    pinned sums, in their ring: the combiner over Z_S / Z."""
    z = sums[0]
    return ghs_combination([zs / z for zs in sums])


def _triple_pass(instance: GhostWeightVector | ModelSpec, i: int, j: int, k: int):
    """One enumeration pass over the triple (i, j, k): (analytic, via, route).

    Exact weights make one Fraction pass.  ``analytic`` is the truncated
    triple, ``via`` the curvature sum divided back by r**3 Z**3 (the
    combination over Z**3, where the r**3 cancels) at distinct sites and
    None otherwise, and ``route`` is "exact".  A physical model makes one
    float pass over the weights e**J (CapacityError when one overflows).
    Z bounds every other sum, so a finite Z keeps each ratio in [0, 1];
    when Z is not finite the same doubles are summed as Fractions and the
    exact value is rounded to a float.  ``via`` is None and ``route`` reads
    "float" or "exact-fallback".
    """
    size = (instance.n_sites, instance.n_states)
    if isinstance(instance, GhostWeightVector):
        sums = _pinned_sums(instance.weights, *size, (i, j, k), Fraction(1))
        via = ghs_combination(sums) / sums[0] ** 3 if len({i, j, k}) == 3 else None
        return _truncated_triple(sums), via, "exact"
    try:
        tw = [math.exp(energy) for energy in _energies(instance)]
    except OverflowError as exc:
        raise CapacityError("a pair weight e**J overflows double precision") from exc
    sums = _pinned_sums(tw, *size, (i, j, k), 1.0)
    if math.isfinite(sums[0]):
        return _truncated_triple(sums), None, "float"
    exact = _pinned_sums([Fraction(t) for t in tw], *size, (i, j, k), Fraction(1))
    return float(_truncated_triple(exact)), None, "exact-fallback"


def second_derivative_analytic(
    weights: GhostWeightVector, i: int, j: int, k: int
) -> Fraction:
    """d^2 m_i / (d B_j d B_k), exactly, via truncated triple correlations."""
    return _triple_pass(weights, i, j, k)[0]


def second_derivative_float(model: ModelSpec, i: int, j: int, k: int) -> float:
    """The analytic second derivative in double precision, from a physical
    model (weights e**J); used for float-domain spot checks.  Raises
    CapacityError when a weight e**J overflows.  When only the partition
    sum overflows, the same double weights are summed as Fractions and the
    exact value is rounded to a float."""
    return _triple_pass(model, i, j, k)[0]


def second_derivative_fd(
    model: ModelSpec | GhostWeightVector, i: int, j: int, k: int, h: float = 1e-4
) -> float:
    """Central finite differences of the magnetization in the fields.

    The pair weights are e**J for a physical model and the exact t_p, each
    rounded once to the working precision, for exact weights.  One
    enumeration at the unshifted weights gives the pinned sums Z_S for the
    eight sets S of the stencil.  Shifting B_j by d multiplies each
    configuration with site j in state 1 by e**d = 1 + a, a = expm1(d), so
    every stencil point is the closed form

        m_i(dj, dk) = (Z_i + aj Z_ij + ak Z_ik + aj ak Z_ijk)
                      / (Z + aj Z_j + ak Z_k + aj ak Z_jk),

    with ak = 0 when j = k.  Differences are formed in ``decimal`` at
    FD_PRECISION_DPS + 2 = 42 digits, so the quadratic truncation error of
    the stencil dominates rounding even at small steps; the returned value
    is a float.  The exponent range admits any exact weight; e**J of a
    coupling or field above about 2.3e18 overflows it (CapacityError).
    """
    # Rounding adds about 10**-FD_PRECISION_DPS / h**2; above 1 the O(h**2)
    # truncation error is as large as the value.  NaN fails the comparison.
    lowest = 10 ** (-FD_PRECISION_DPS // 4)
    if not lowest <= h <= 1:
        raise ValueError(f"step h must lie in [{lowest:g}, 1], got {h!r}")
    context = decimal.Context(
        prec=FD_PRECISION_DPS + 2, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
    )
    with decimal.localcontext(context):
        try:
            if isinstance(model, GhostWeightVector):
                tw = [Decimal(t.numerator) / t.denominator for t in model.weights]
            else:
                tw = [Decimal(energy).exp() for energy in _energies(model)]
            z, zijk, zij, zk, zik, zj, zjk, zi = _pinned_sums(
                tw, model.n_sites, model.n_states, (i, j, k), Decimal(1)
            )
        except decimal.Overflow as exc:
            raise CapacityError("e**J overflows the oracle's exponent range") from exc

        def magnetization(dj, dk):
            aj, ak = dj.exp() - 1, dk.exp() - 1
            top = zi + aj * zij + ak * zik + aj * ak * zijk
            return top / (z + aj * zj + ak * zk + aj * ak * zjk)

        step, zero = Decimal(h), Decimal(0)
        if j == k:
            plus = magnetization(step, zero)
            mid = magnetization(zero, zero)
            minus = magnetization(-step, zero)
            value = (plus - 2 * mid + minus) / step**2
        else:
            pp = magnetization(step, step)
            pm = magnetization(step, -step)
            mp_ = magnetization(-step, step)
            mm = magnetization(-step, -step)
            value = (pp - pm - mp_ + mm) / (4 * step**2)
        return float(value)


def ghs_sum(weights: GhostWeightVector) -> Fraction:
    """The scaled curvature sum for the site triple (1, 2, 3).

    Signed combination of products of ghost-summed constrained partition
    sums F(0=S) = r * Z_S with every pair weight active; equals r**3 Z**3
    times the analytic second derivative of m_1 in the fields at sites 2, 3.
    """
    r = weights.n_states
    return _curvature_sum(weights.weights, weights.n_sites, r, Fraction(1))


def second_derivative_via_sum(
    weights: GhostWeightVector, i: int, j: int, k: int
) -> Fraction:
    """Second derivative recovered from the curvature sum of the triple.

    Only defined for distinct sites: the scaled sum of (i, j, k) is divided
    back by r**3 Z**3, where the r**3 cancels.  One pass: Z is the ``()``
    sum of the triple's own ``_triple_pass``.
    """
    _check_sites(weights.n_sites, i, j, k)
    if len({i, j, k}) != 3:
        raise ValueError("the curvature-sum route needs three distinct sites")
    return _triple_pass(weights, i, j, k)[1]
