"""Ferromagnetic Potts instances with a ghost site encoding external fields.

A model has N ordinary sites 1..N carrying spins in {1, ..., r} and a ghost
site 0 pinned to state 1, whose couplings to the ordinary sites play the role
of the external fields.  All interactions live on the C(N+1, 2) unordered
site pairs, listed in a fixed lexicographic order.  In the exact domain each
pair carries a rational weight t = e**J >= 1; correlations are computed by
exact enumeration over spin configurations.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence


class CapacityError(Exception):
    """A request exceeds the supported exact-enumeration size."""


# Largest site count any route accepts.  Every instance, model file and
# expansion builds the C(N+1, 2) pair list first, so the cap bounds that
# list (2080 pairs at N = 64) before any other check.  It leaves room above
# N = 18, the largest size whose r**(N+1) configurations stay within the
# CLI's enumeration bound.
MAX_SITES = 64


def _require_triple(n_sites: int) -> None:
    """The three-site rule: every route that reads the distinguished site
    triple (1, 2, 3), the curvature sum among them, refuses a smaller size
    with this one message before any enumeration."""
    if n_sites < 3:
        raise ValueError("the curvature sum needs n_sites >= 3")


class PairOrder:
    """The lexicographic list of unordered pairs over {0, ..., n_sites}."""

    __slots__ = ("n_sites", "pairs", "index_of")

    def __init__(self, n_sites: int):
        if n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if n_sites > MAX_SITES:
            raise CapacityError(
                f"n_sites={n_sites} exceeds the supported {MAX_SITES} sites"
            )
        self.n_sites = n_sites
        self.pairs = tuple(
            (i, j) for i in range(n_sites + 1) for j in range(i + 1, n_sites + 1)
        )
        self.index_of = {pair: p for p, pair in enumerate(self.pairs)}

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def core_indices(self) -> tuple[int, int, int]:
        """Indices of the distinguished site pairs (1,2), (1,3), (2,3)."""
        _require_triple(self.n_sites)
        return (self.index_of[(1, 2)], self.index_of[(1, 3)], self.index_of[(2, 3)])

    @property
    def field_indices(self) -> tuple[int, int, int]:
        """Indices of the ghost pairs (0,1), (0,2), (0,3)."""
        _require_triple(self.n_sites)
        return (self.index_of[(0, 1)], self.index_of[(0, 2)], self.index_of[(0, 3)])

    @property
    def bulk_indices(self) -> tuple[int, ...]:
        """All pair indices outside the core and field pairs."""
        special = set(self.core_indices) | set(self.field_indices)
        return tuple(p for p in range(len(self.pairs)) if p not in special)

    def __repr__(self) -> str:
        return f"PairOrder(n_sites={self.n_sites}, n_pairs={len(self.pairs)})"


@lru_cache(maxsize=None)
def pair_order(n_sites: int) -> PairOrder:
    return PairOrder(n_sites)


def _finite_nonnegative(value) -> bool:
    try:
        return math.isfinite(value) and value >= 0
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ModelSpec:
    """Physical parameters: finite real couplings J and fields B (both >= 0)."""

    n_sites: int
    n_states: int
    couplings: Mapping[tuple[int, int], float] = field(default_factory=dict)
    fields: tuple[float, ...] = ()

    def __post_init__(self):
        pair_order(self.n_sites)  # refuses n_sites < 1 or > MAX_SITES first
        if self.n_states < 2:
            raise ValueError("n_states must be >= 2")
        fields = tuple(self.fields) if self.fields else (0.0,) * self.n_sites
        if len(fields) != self.n_sites:
            raise ValueError("fields must have one entry per site")
        clean: dict[tuple[int, int], float] = {}
        for (i, j), val in dict(self.couplings).items():
            if not (1 <= i < j <= self.n_sites):
                raise ValueError(f"coupling pair ({i}, {j}) out of range")
            if not _finite_nonnegative(val):
                raise ValueError("ferromagnetic couplings must be finite and >= 0")
            clean[(i, j)] = float(val)
        if not all(_finite_nonnegative(b) for b in fields):
            raise ValueError("fields must be finite and >= 0")
        object.__setattr__(self, "couplings", clean)
        object.__setattr__(self, "fields", tuple(float(b) for b in fields))

    def coupling(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return self.couplings.get((i, j), 0.0)


@dataclass(frozen=True)
class GhostWeightVector:
    """Exact rational pair weights t_p >= 1 aligned with pair_order(n_sites)."""

    n_sites: int
    n_states: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        order = pair_order(self.n_sites)
        if self.n_states < 2:
            raise ValueError("n_states must be >= 2")
        weights = tuple(Fraction(t) for t in self.weights)
        if len(weights) != len(order):
            raise ValueError(
                f"expected {len(order)} weights for n_sites={self.n_sites}, "
                f"got {len(weights)}"
            )
        if any(t < 1 for t in weights):
            raise ValueError("ferromagnetic weights require t >= 1")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_pair_map(
        cls,
        n_sites: int,
        n_states: int,
        values: Mapping[tuple[int, int], Fraction | int | str],
    ) -> "GhostWeightVector":
        order = pair_order(n_sites)
        table = {}
        for (i, j), val in values.items():
            key = (i, j) if i < j else (j, i)
            if key not in order.index_of:
                raise ValueError(f"pair ({i}, {j}) out of range for n_sites={n_sites}")
            table[key] = Fraction(val)
        weights = tuple(table.get(pair, Fraction(1)) for pair in order.pairs)
        return cls(n_sites=n_sites, n_states=n_states, weights=weights)

    @classmethod
    def uniform(
        cls, n_sites: int, n_states: int, t: Fraction | int = 1
    ) -> "GhostWeightVector":
        n_pairs = len(pair_order(n_sites))
        return cls(n_sites, n_states, (Fraction(t),) * n_pairs)

    def weight_of(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        return self.weights[pair_order(self.n_sites).index_of[(i, j)]]

    def x_values(self) -> dict[int, Fraction]:
        """Deviations X_p = t_p - 1 keyed by pair index."""
        return {p: t - 1 for p, t in enumerate(self.weights)}


def weighted_sums(
    weight_seq: Sequence,
    n_sites: int,
    n_states: int,
    site_sets: Sequence[Iterable[int]],
    one,
):
    """One enumeration pass over configurations with the ghost fixed at 1.

    Returns, for each requested set of sites, the sum of the configuration
    weight prod_p t_p**[sigma_i = sigma_j] over configurations where every
    site of the set is in state 1.  Works for any weight type that supports
    multiplication and addition (Fraction, float, Decimal, XPoly); ``one``
    is the multiplicative unit of that type.

    Sites are summed out first by the series, parallel and pendant rules
    of Fortuin-Kasteleyn sums.  Each non-unit pair is a link (agree,
    disagree): it contributes agree when its two states are equal and
    disagree when they differ, so an input pair t is (t, 1).  A removable
    site lies outside the watched sites (the union of the requested sets)
    and is not the ghost.  With one link (A, D) to u it is pendant and
    contributes A + (r - 1) D, and with none it contributes r.  With two
    links (A1, D1) to u and (A2, D2) to v it is in series and becomes one
    link from u to v,

        (A1 A2 + (r - 1) D1 D2,  A1 D2 + D1 A2 + (r - 2) D1 D2),

    and a link onto a pair already linked merges with it in parallel,
    agree times agree and disagree times disagree.  The rules are exact by
    colour symmetry: whatever the states of the site's neighbours, the sum
    over its own r states depends only on whether those states are equal,
    one of the r states matching each neighbour and the rest matching
    neither.  So a pendant site scales every pinned sum by the same factor
    and a series site leaves a pair on the same sites.  None of the rules
    divides, so they run the same in every ring.  Removing a site can make
    a neighbour removable, and a parallel merge lowers two site degrees, so
    the rules repeat until no site is left to remove; the ghost and the
    watched sites always stay.  Each requested sum is multiplied once by
    the product of the pendant factors, and a pass that removes nothing
    makes no extra ring operation.

    The kept sites take their states in increasing order, and the weight is
    extended by the links (i, s), i < s, that close at site s: by agree
    when the two states are equal and, for a link whose disagree differs
    from 1, by disagree when they differ.  A prefix is shared by all of its
    completions.  Each finished configuration is added to one bucket,
    keyed by which watched sites are in state 1, and each requested sum
    adds the buckets whose key contains its set.
    """
    order = pair_order(n_sites)
    targets = [frozenset(s) for s in site_sets]
    watched = sorted(frozenset().union(*targets))
    if any(not 1 <= i <= n_sites for i in watched):
        raise ValueError("site index out of range")
    bit = {site: 1 << b for b, site in enumerate(watched)}
    links: list[dict] = [{} for _ in range(n_sites + 1)]
    for p, (i, j) in enumerate(order.pairs):
        if weight_seq[p] != one:
            links[i][j] = links[j][i] = (weight_seq[p], one)

    # Pendant sites go before series sites, so a tree is summed out by its
    # factors alone.
    pendant, series = [], []

    def enqueue(s: int) -> None:
        if s and s not in bit and len(links[s]) < 3:
            (pendant if len(links[s]) < 2 else series).append(s)

    for s in range(1, n_sites + 1):
        enqueue(s)
    scale = None
    removed = set()
    while pendant or series:
        s = (pendant or series).pop()
        if s in removed:
            continue
        removed.add(s)
        ends = list(links[s].items())
        for u, _ in ends:
            del links[u][s]
        if len(ends) == 2:
            (u, (a1, d1)), (v, (a2, d2)) = ends
            dd = d1 * d2
            agree = a1 * a2 + dd * (n_states - 1)
            disagree = a1 * d2 + d1 * a2 + dd * (n_states - 2)
            if v in links[u]:
                a, d = links[u][v]
                agree, disagree = a * agree, d * disagree
                enqueue(u)
                enqueue(v)
            links[u][v] = links[v][u] = (agree, disagree)
            continue
        if ends:
            ((u, (a, d)),) = ends
            factor = a + d * (n_states - 1)
            enqueue(u)
        else:
            factor = one * n_states
        scale = factor if scale is None else scale * factor

    # The kept sites, relabelled 1..K in order; the ghost keeps label 0.
    kept = [s for s in range(1, n_sites + 1) if s not in removed]
    label = {0: 0, **{s: k for k, s in enumerate(kept, 1)}}
    # A pair the rules left alone still holds ``one`` itself as its
    # disagree; any other pair multiplies by its disagree, which stays
    # exact where that equals 1.
    closing, crossing = [[]], [[]]
    for s in kept:
        below = [(label[i], a, d) for i, (a, d) in links[s].items() if i < s]
        closing.append([(i, a) for i, a, d in below if d is one])
        crossing.append([(i, a, d) for i, a, d in below if d is not one])
    kept_bit = [0] + [bit.get(s, 0) for s in kept]
    n_kept = len(kept)
    zero = one - one
    buckets = [zero] * (1 << len(watched))
    states = range(1, n_states + 1)
    sigma = [1] * (n_kept + 1)

    def extend(s: int, w, mask: int) -> None:
        factor: dict = {}
        for i, t in closing[s]:
            c = sigma[i]
            factor[c] = factor[c] * t if c in factor else t
        if crossing[s]:
            for c in states:
                f = factor.get(c)
                for i, a, d in crossing[s]:
                    g = a if sigma[i] == c else d
                    f = g if f is None else f * g
                factor[c] = f
        last = s == n_kept
        for c in states:
            wc = w * factor[c] if c in factor else w
            mc = mask | kept_bit[s] if c == 1 else mask
            if last:
                buckets[mc] += wc
            else:
                sigma[s] = c
                extend(s + 1, wc, mc)

    if n_kept:
        extend(1, one, 0)
    else:
        buckets[0] = one
    needs = [sum(bit[i] for i in tset) for tset in targets]
    sums = [
        sum((v for m, v in enumerate(buckets) if m & need == need), zero)
        for need in needs
    ]
    return sums if scale is None else [z * scale for z in sums]


def instance_digest(weights: GhostWeightVector) -> str:
    """Short stable digest identifying an exact instance."""
    body = f"{weights.n_sites};{weights.n_states};" + ",".join(
        f"{t.numerator}/{t.denominator}" for t in weights.weights
    )
    return hashlib.sha256(body.encode()).hexdigest()[:12]
