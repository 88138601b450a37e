"""Pair ordering, exact weights, and the enumeration of pinned sums."""
import decimal
import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import block_sum, pinned_sum as oracle_pinned_sum, relabel
from potts_ghs import GhostWeightVector, ModelSpec
from potts_ghs.constraints import constrained_sum
from potts_ghs.derivatives import ghs_sum
from potts_ghs.model import instance_digest, pair_order, weighted_sums
from potts_ghs.sampling import random_weights, trial_rng


def pinned_sum(w, sites=()):
    """Sum of the configuration weights with the ghost and ``sites`` at 1."""
    return weighted_sums(w.weights, w.n_sites, w.n_states, [sites], Fraction(1))[0]


def correlator(w, sites):
    """Probability that every listed site is in state 1."""
    return pinned_sum(w, sites) / pinned_sum(w)


def magnetization(w, i):
    return correlator(w, (i,))


def derivative_sets(i, j, k):
    """The eight site sets the derivative routes request, repeats kept."""
    return [(), (j,), (k,), (j, k), (i,), (i, j), (i, k), (i, j, k)]


def assert_kernel_matches_oracle(n, r, weights, sets):
    """weighted_sums against the stdlib enumerator: exact in Fraction,
    within 1e-12 relative in float, and to 36 digits in 40-digit mpf and in
    42-digit Decimal, the finite-difference oracle's ring."""
    weights = [Fraction(t) for t in weights]
    expected = [oracle_pinned_sum(n, r, weights, s) for s in sets]
    assert weighted_sums(weights, n, r, sets, Fraction(1)) == expected
    floats = weighted_sums([float(t) for t in weights], n, r, sets, 1.0)
    assert floats == [pytest.approx(float(z), rel=1e-12) for z in expected]
    with mp.workdps(40):
        tw = [mp.mpf(t.numerator) / t.denominator for t in weights]
        got = weighted_sums(tw, n, r, sets, mp.mpf(1))
        for value, z in zip(got, expected):
            assert abs(value - mp.mpf(z.numerator) / z.denominator) <= value * 1e-36
    with decimal.localcontext() as ctx:
        ctx.prec = 42
        tw = [Decimal(t.numerator) / t.denominator for t in weights]
        got = weighted_sums(tw, n, r, sets, Decimal(1))
        for value, z in zip(got, expected):
            exact = Decimal(z.numerator) / z.denominator
            assert abs(value - exact) <= value * Decimal("1e-36")


def test_pair_order_n3():
    order = pair_order(3)
    assert order.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert order.field_indices == (0, 1, 2)
    assert order.core_indices == (3, 4, 5)
    assert order.bulk_indices == ()
    assert len(order) == 6


def test_pair_order_n4():
    order = pair_order(4)
    assert len(order) == 10
    assert order.pairs == tuple(
        (i, j) for i in range(5) for j in range(i + 1, 5)
    )
    assert order.field_indices == (0, 1, 2)
    assert [order.pairs[p] for p in order.core_indices] == [(1, 2), (1, 3), (2, 3)]
    assert [order.pairs[p] for p in order.bulk_indices] == [
        (0, 4),
        (1, 4),
        (2, 4),
        (3, 4),
    ]


def test_pair_order_index_roundtrip():
    order = pair_order(5)
    for p, pair in enumerate(order.pairs):
        assert order.index_of[pair] == p


def test_small_sizes_lack_a_distinguished_triple():
    assert pair_order(1).pairs == ((0, 1),)
    with pytest.raises(ValueError):
        pair_order(2).core_indices
    with pytest.raises(ValueError):
        pair_order(1).field_indices


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        GhostWeightVector(3, 2, (Fraction(1),) * 5)
    with pytest.raises(ValueError):
        GhostWeightVector(3, 2, (Fraction(1, 2),) * 6)
    with pytest.raises(ValueError):
        GhostWeightVector(3, 1, (Fraction(1),) * 6)


def test_weight_vector_accessors():
    w = GhostWeightVector.from_pair_map(3, 2, {(1, 2): Fraction(5, 2)})
    assert w.weight_of(1, 2) == Fraction(5, 2)
    assert w.weight_of(2, 1) == Fraction(5, 2)
    assert w.weight_of(0, 1) == 1
    x = w.x_values()
    assert x[pair_order(3).index_of[(1, 2)]] == Fraction(3, 2)
    assert sum(1 for v in x.values() if v) == 1
    uniform = GhostWeightVector.uniform(3, 2, 2)
    assert set(uniform.weights) == {Fraction(2)}


def test_partition_function_trivial_values():
    assert pinned_sum(GhostWeightVector.uniform(2, 3)) == 9
    w = GhostWeightVector(1, 2, (Fraction(3),))
    assert pinned_sum(w) == 4


# A tree over the ghost and sites 1..6 around the triple (1, 2, 3): the chain
# 4-5 off site 3 and site 6, joined only to the ghost, are summed out, and
# site 2 is watched with one pair.
TREE_6 = ((0, 1), (0, 6), (1, 2), (1, 3), (3, 4), (4, 5))
# A theta graph between the watched sites 1 and 2: the paths 1-4-2 and
# 1-5-6-2 (two nested series steps) merge onto the pair (1, 2).
THETA_6 = ((0, 3), (1, 2), (1, 4), (2, 4), (1, 5), (5, 6), (2, 6), (2, 3))
# Merges onto the ghost: the triangle 0-4-5 and the path 0-6-1 beside the
# field of site 1.
GHOST_6 = ((0, 1), (0, 4), (4, 5), (0, 5), (0, 6), (1, 6), (1, 2), (2, 3))


@pytest.mark.parametrize(
    "n, r, triple, unit_pairs",
    [
        (3, 3, (1, 2, 3), ()),
        (4, 2, (1, 2, 3), ()),
        (4, 3, (1, 2, 3), ((0, 2), (1, 3), (2, 4))),
        (3, 4, (1, 2, 3), "all"),
        (4, 3, (1, 1, 2), ()),
        (3, 2, (2, 2, 2), ((1, 2),)),
        (5, 2, (1, 2, 5), ()),
        (5, 3, (4, 5, 2), ((0, 1), (3, 5))),
        (1, 3, (1, 1, 1), ()),
        (6, 3, (1, 2, 3), tuple(p for p in pair_order(6).pairs if p not in TREE_6)),
        (6, 3, (1, 2, 3), tuple(p for p in pair_order(6).pairs if p not in THETA_6)),
        (6, 2, (1, 2, 5), tuple(p for p in pair_order(6).pairs if p not in THETA_6)),
        (6, 4, (1, 2, 3), tuple(p for p in pair_order(6).pairs if p not in GHOST_6)),
    ],
)
def test_weighted_sums_match_the_brute_force_oracle(n, r, triple, unit_pairs):
    order = pair_order(n)
    weights = list(random_weights(n, r, trial_rng(35, n * r)).weights)
    for pair in order.pairs if unit_pairs == "all" else unit_pairs:
        weights[order.index_of[pair]] = Fraction(1)
    assert_kernel_matches_oracle(n, r, weights, derivative_sets(*triple))


@st.composite
def kernel_cases(draw):
    """Instances whose deviations X = t - 1 are drawn on every pair or, with
    X = 0 elsewhere, only on the pairs of a sparse support of one of two
    shapes.  A forest: each site hangs off an earlier site, the ghost or
    nothing, plus at most one more pair, so pendant chains, isolated sites,
    pendant sites on the ghost and watched sites with one pair all occur.
    Ears: up to five paths, each through up to three fresh sites between
    two sites already reached (the ghost and the triple at first), half of
    them between the ends of the one before, so cycles, theta graphs,
    chains between two watched sites (nested series steps) and parallel
    merges onto a watched pair or onto the ghost all occur."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(2, {6: 3, 7: 2}.get(n, 4)))
    ratio = st.builds(Fraction, st.integers(0, 9), st.integers(1, 4))
    pairs = pair_order(n).pairs
    weights = draw(st.lists(ratio, min_size=len(pairs), max_size=len(pairs)))
    sites = st.integers(1, n)
    triple = draw(st.tuples(sites, sites, sites))
    shape = draw(st.sampled_from(("dense", "forest", "ears", "ears")))
    if shape == "forest":
        # Parent -1 leaves the site without a forest pair.
        support = {(draw(st.integers(-1, s - 1)), s) for s in range(1, n + 1)}
        if draw(st.booleans()):
            support.add(draw(st.sampled_from(pairs)))
    elif shape == "ears":
        reached = [0, *sorted(set(triple))]
        fresh = draw(st.permutations([s for s in range(1, n + 1) if s not in reached]))
        support = set()
        for ear in range(draw(st.integers(1, 5))):
            # Half the later ears reuse the last ends: a theta or a merge.
            if not ear or draw(st.booleans()):
                u, v = draw(st.sampled_from(reached)), draw(st.sampled_from(reached))
            k = draw(st.integers(0, min(len(fresh), 3)))
            path, fresh = [u, *fresh[:k], v], fresh[k:]
            reached += path[1:-1]
            support |= {(min(a, b), max(a, b)) for a, b in zip(path, path[1:]) if a != b}
    if shape != "dense":
        weights = [x if pair in support else 0 for x, pair in zip(weights, pairs)]
    return n, r, [1 + x for x in weights], triple


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_weighted_sums_property_against_the_oracle(case):
    n, r, weights, triple = case
    assert_kernel_matches_oracle(n, r, weights, derivative_sets(*triple))


def test_a_tree_off_the_core_scales_the_curvature_sum_by_its_factors():
    # 3**14 configurations are out of reach of a full pass; summed out, the
    # tree leaves the core (1, 2, 3).  Each tree site joined to its parent by
    # t multiplies every pinned sum by t + r - 1, so the curvature sum, cubic
    # in the pinned sums, by (t + r - 1)**3.
    n, r = 14, 3
    core = random_weights(3, r, trial_rng(36, 0))
    parent = {4: 1, 5: 4, 6: 5, 7: 0, 8: 2, 9: 8, 10: 8, 11: 3, 12: 11, 13: 0, 14: 13}
    tree = {(p, s): 1 + Fraction(s, 7) for s, p in parent.items()}
    pairs = {pair: core.weights[q] for q, pair in enumerate(pair_order(3).pairs)}
    w = GhostWeightVector.from_pair_map(n, r, {**pairs, **tree})
    factor = math.prod(t + r - 1 for t in tree.values())
    assert ghs_sum(w) == ghs_sum(core) * factor**3


def test_blocks_off_the_core_scale_the_curvature_sum_by_their_sums():
    # 3**20 configurations are out of reach of a full pass; summed out by
    # the series, parallel and pendant rules, the blocks leave the core
    # (1, 2, 3).  A block B that meets the rest at one site multiplies every
    # pinned sum by Z_B / r whatever that site's state, so the curvature
    # sum, cubic in the pinned sums, by (Z_B / r)**3.
    n, r = 20, 3
    core = random_weights(3, r, trial_rng(37, 0))
    triangle = {(0, 4): 2, (4, 5): Fraction(3, 2), (0, 5): 3}
    square = {(2, 6): 2, (6, 7): 3, (7, 8): Fraction(5, 4), (2, 8): Fraction(7, 3)}
    # A theta graph between sites 1 and 9, by the paths 1-10-9, 1-11-12-9
    # and 1-13-14-15-16-9, and a 5-cycle 3-17-18-19-20 at site 3.
    theta, pentagon = {}, {}
    for block, path in (
        (theta, (1, 10, 9)),
        (theta, (1, 11, 12, 9)),
        (theta, (1, 13, 14, 15, 16, 9)),
        (pentagon, (3, 17, 18, 19, 20, 3)),
    ):
        for a, b in zip(path, path[1:]):
            block[min(a, b), max(a, b)] = 1 + Fraction(b, 5)
    blocks = (triangle, square, theta, pentagon)
    pairs = {pair: core.weights[q] for q, pair in enumerate(pair_order(3).pairs)}
    for block in blocks:
        pairs.update(block)
    w = GhostWeightVector.from_pair_map(n, r, pairs)
    factor = math.prod(block_sum(r, block) / r for block in blocks)
    assert ghs_sum(w) == ghs_sum(core) * factor**3
    # Only the core is enumerated: a pass over four or more kept sites adds
    # at least 3**4 configurations into its buckets, and each summed-out
    # site costs at most three additions.
    Tally.adds = 0
    tallied = weighted_sums([Tally(t) for t in w.weights], n, r, [(1, 2, 3)], Tally(1))
    assert tallied[0].value == pinned_sum(w, (1, 2, 3))
    assert Tally.adds < r**4


class Tally:
    """Fraction arithmetic with no division that counts its additions."""

    adds = 0

    def __init__(self, value):
        self.value = Fraction(value)

    def __add__(self, other):
        Tally.adds += 1
        return Tally(self.value + other.value)

    def __sub__(self, other):
        return Tally(self.value - other.value)

    def __mul__(self, other):
        return Tally(self.value * (other.value if isinstance(other, Tally) else other))

    def __eq__(self, other):
        return self.value == other.value


def test_weighted_sums_reject_sites_out_of_range():
    w = GhostWeightVector.uniform(3, 2)
    for sites in ((0,), (1, 4)):
        with pytest.raises(ValueError, match="out of range"):
            weighted_sums(w.weights, 3, 2, [(), sites], Fraction(1))


def test_summed_ghost_is_r_times_fixed_ghost():
    for k in range(10):
        n = 3 if k % 2 else 4
        r = 2 + k % 3
        w = random_weights(n, r, trial_rng(31, k))
        all_pairs = pair_order(n).pairs
        assert constrained_sum(w, (), all_pairs) == r * pinned_sum(w)


def test_correlator_uniform_measure():
    w = GhostWeightVector.uniform(3, 4)
    assert correlator(w, []) == 1
    assert correlator(w, [1]) == Fraction(1, 4)
    assert correlator(w, [1, 2]) == Fraction(1, 16)
    assert correlator(w, [1, 1]) == Fraction(1, 4)


def test_magnetization_single_site():
    w = GhostWeightVector(1, 2, (Fraction(3),))
    assert magnetization(w, 1) == Fraction(3, 4)
    assert magnetization(GhostWeightVector(1, 3, (Fraction(1),)), 1) == Fraction(1, 3)


def test_magnetization_increases_with_its_own_field():
    for k in range(5):
        w = random_weights(3, 3, trial_rng(33, k))
        stronger = list(w.weights)
        stronger[0] += 1
        w2 = GhostWeightVector(3, 3, tuple(stronger))
        assert magnetization(w2, 1) > magnetization(w, 1)


def test_relabelling_preserves_the_partition_function():
    w = random_weights(4, 3, trial_rng(34, 0))
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    relabeled = GhostWeightVector(4, 3, relabel(4, w.weights, perm))
    assert pinned_sum(relabeled) == pinned_sum(w)
    assert relabeled.weight_of(0, 3) == w.weight_of(0, 1)
    assert relabeled.weight_of(1, 4) == w.weight_of(2, 3)


def test_instance_digest_is_stable_and_discriminating():
    w = GhostWeightVector.uniform(3, 2, 2)
    assert instance_digest(w) == "50c41d354f54"
    other = GhostWeightVector.uniform(3, 2, 3)
    assert instance_digest(other) != instance_digest(w)
    assert instance_digest(GhostWeightVector.uniform(3, 3, 2)) != instance_digest(w)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(2, 3, {(2, 1): 0.5})
    with pytest.raises(ValueError):
        ModelSpec(2, 3, {(1, 2): -0.5})
    with pytest.raises(ValueError):
        ModelSpec(2, 3, {}, (0.1,))
    with pytest.raises(ValueError):
        ModelSpec(2, 3, {}, (0.1, -0.2))
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(2, 3, {(1, 2): value})
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(2, 3, {}, (0.1, value))
    # An int beyond the float range is not finite either.
    with pytest.raises(ValueError, match="finite"):
        ModelSpec(2, 3, {(1, 2): 10**400})
    with pytest.raises(ValueError, match="finite"):
        ModelSpec(2, 3, fields=(10**400, 0))
    model = ModelSpec(2, 3, {(1, 2): 0.5})
    assert model.fields == (0.0, 0.0)
    assert model.coupling(2, 1) == 0.5
    assert model.coupling(1, 2) == 0.5
