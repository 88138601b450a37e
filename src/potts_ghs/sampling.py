"""Seeded random instances with reproducible per-trial substreams.

Every randomized check derives one private generator per trial from the pair
(seed, trial index), so trial k of a run is reproducible in isolation and
adding trials never disturbs earlier ones.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .model import GhostWeightVector, ModelSpec, pair_order


def trial_rng(seed: int, trial: int) -> random.Random:
    """Independent generator for one trial of a seeded run."""
    return random.Random(f"{seed}:{trial}")


def random_weights(
    n_sites: int, n_states: int, rng: random.Random
) -> GhostWeightVector:
    """Exact random instance: every pair weight drawn as t = 1 + X.

    The numerator of X is uniform on [0, 2**16] and its denominator on
    [1, 2**8], so the weights cover several orders of magnitude while
    staying exactly representable.
    """
    n_pairs = len(pair_order(n_sites))
    weights = tuple(
        1 + Fraction(rng.randint(0, 2**16), rng.randint(1, 2**8))
        for _ in range(n_pairs)
    )
    return GhostWeightVector(n_sites, n_states, weights)


def random_model(n_sites: int, n_states: int, rng: random.Random) -> ModelSpec:
    """Physical random instance: couplings and fields uniform on [0, 1.5]."""
    couplings = {
        (i, j): rng.uniform(0.0, 1.5)
        for i in range(1, n_sites + 1)
        for j in range(i + 1, n_sites + 1)
    }
    fields = tuple(rng.uniform(0.0, 1.5) for _ in range(n_sites))
    return ModelSpec(
        n_sites=n_sites, n_states=n_states, couplings=couplings, fields=fields
    )
