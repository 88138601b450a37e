"""Pair ordering, exact weights, and the enumeration of pinned sums."""
import random
from fractions import Fraction

import pytest

from potts_ghs import (
    GhostWeightVector,
    ModelSpec,
    constrained_sum,
    instance_digest,
    pair_order,
    relabel_sites,
)
from potts_ghs.model import weighted_sums
from potts_ghs.sampling import random_weights, trial_rng


def pinned_sum(w, sites=()):
    """Sum of the configuration weights with the ghost and ``sites`` at 1."""
    return weighted_sums(w.weights, w.n_sites, w.n_states, [sites], Fraction(1))[0]


def correlator(w, sites):
    """Probability that every listed site is in state 1."""
    return pinned_sum(w, sites) / pinned_sum(w)


def magnetization(w, i):
    return correlator(w, (i,))


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
    w = GhostWeightVector.from_pair_map(3, 2, {(1, 2): Fraction(5, 2)}, default=1)
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


def test_relabel_sites_preserves_the_partition_function():
    w = random_weights(4, 3, trial_rng(34, 0))
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    relabeled = relabel_sites(w, perm)
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
