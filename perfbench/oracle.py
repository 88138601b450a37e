"""Brute-force reference values for the answers the benchmark checks.

Enumerates all r**(N+1) spin configurations of the N sites and the ghost
site 0, ghost included, and never calls the package's enumeration kernels
(``constraints`` or ``model.weighted_sums``), so it can check any seed.

Pair weights are given as {(i, j): t} over 0 <= i < j <= N; missing pairs
have t = 1.  Exact weights are Fractions and the sums are kept as integers
scaled by the product of the denominators; float weights give float sums.
"""
from __future__ import annotations

from fractions import Fraction


def _factors(n_sites, weights):
    """Per site k, the (earlier site, factor if equal, factor if not) list,
    and the common scale that turns the integer sums back into weights."""
    scale = 1
    per_site = [[] for _ in range(n_sites + 1)]
    for (i, j), t in weights.items():
        if t == 1:
            continue
        if isinstance(t, Fraction):
            eq, neq = t.numerator, t.denominator
            scale *= neq
        else:
            eq, neq = t, 1.0
        per_site[j].append((i, eq, neq))
    return per_site, scale


def ghost_sums(n_sites: int, n_states: int, weights: dict) -> tuple[list, object]:
    """Scaled configuration-weight sums bucketed by which of sites 1, 2, 3
    share the ghost's state (bit c-1 set when site c does).

    Returns (buckets, scale); bucket sums divided by ``scale`` are the
    partition sums.
    """
    if n_sites < 3:
        raise ValueError("the site triple (1, 2, 3) needs n_sites >= 3")
    per_site, scale = _factors(n_sites, weights)
    buckets = [0] * 8
    spins = [0] * (n_sites + 1)
    states = range(n_states)

    def visit(k: int, acc) -> None:
        if k > n_sites:
            s0 = spins[0]
            mask = (spins[1] == s0) | (spins[2] == s0) << 1 | (spins[3] == s0) << 2
            buckets[mask] += acc
            return
        for s in states:
            spins[k] = s
            w = acc
            for i, eq, neq in per_site[k]:
                w = w * (eq if spins[i] == s else neq)
            visit(k + 1, w)

    visit(0, 1)
    return buckets, scale


def curvature(n_sites: int, n_states: int, weights: dict):
    """(ghs_I, S): the five-term curvature sum of the triple (1, 2, 3) and
    the ghost-summed partition sum, exactly for Fraction weights."""
    buckets, scale = ghost_sums(n_sites, n_states, weights)

    def s(*sites: int):
        need = sum(1 << (c - 1) for c in sites)
        return sum(b for mask, b in enumerate(buckets) if mask & need == need)

    total, s1, s2, s3 = s(), s(1), s(2), s(3)
    value = (
        total * total * s(1, 2, 3)
        - total * s(1, 2) * s3
        - total * s(1, 3) * s2
        - total * s(2, 3) * s1
        + 2 * s1 * s2 * s3
    )
    if isinstance(value, float):
        return value, total
    return Fraction(value, scale**3), Fraction(total, scale)


def second_derivative(n_sites: int, n_states: int, weights: dict):
    """d^2 m_1 / (dB_2 dB_3) = ghs_I / S**3, where S is ghost-summed."""
    value, total = curvature(n_sites, n_states, weights)
    return value / total**3


def weights_from_model_file(model: dict) -> dict:
    """Pair weights of an exact-weights model file as written by the
    benchmark: couplings [[i, j, "p/q"]] and per-site field weights."""
    weights = {}
    for i, j, t in model.get("couplings", []):
        weights[(min(i, j), max(i, j))] = Fraction(t)
    for site, t in enumerate(model.get("fields", []), start=1):
        weights[(0, site)] = Fraction(t)
    return weights


def weights_from_sequence(n_sites: int, seq) -> dict:
    """Pair weights aligned with the lexicographic pair order over 0..N."""
    pairs = [(i, j) for i in range(n_sites + 1) for j in range(i + 1, n_sites + 1)]
    if len(pairs) != len(seq):
        raise ValueError("weight sequence does not match n_sites")
    return dict(zip(pairs, seq))
