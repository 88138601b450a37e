"""Tests for exact magnetization derivatives, the curvature sum, and the
finite-difference oracle.

The frozen negative values at r >= 3 below are genuine: the curvature does
change sign with the field strength at three or more states, so no blanket
sign claim is asserted here beyond the two-state case.
"""

import json
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import ghs_I, pinned_sum, relabel
from potts_ghs import (
    CapacityError,
    GhostWeightVector,
    ModelSpec,
    ghs_sum,
    random_model,
    random_weights,
    second_derivative_analytic,
    second_derivative_fd,
    second_derivative_float,
    second_derivative_via_sum,
    trial_rng,
)
from potts_ghs import cli, derivatives
from potts_ghs.model import pair_order, weighted_sums
from potts_ghs.modelfile import dump_model


def model_from_weights(weights: GhostWeightVector) -> ModelSpec:
    """Physical model whose pair weights match an exact instance."""
    order = pair_order(weights.n_sites)
    couplings = {}
    fields = [0.0] * weights.n_sites
    for (i, j), t in zip(order.pairs, weights.weights):
        if i == 0:
            fields[j - 1] = math.log(t)
        else:
            couplings[(i, j)] = math.log(t)
    return ModelSpec(
        n_sites=weights.n_sites,
        n_states=weights.n_states,
        couplings=couplings,
        fields=tuple(fields),
    )


# ---------------------------------------------------------------------------
# second derivative, exact routes


def test_second_derivative_at_unit_weights_is_zero():
    for n, r in ((3, 2), (3, 4), (4, 3)):
        w = GhostWeightVector.uniform(n, r)
        assert second_derivative_analytic(w, 1, 2, 3) == 0


def test_second_derivative_site_range():
    w = GhostWeightVector.uniform(3, 2)
    with pytest.raises(ValueError, match="out of range"):
        second_derivative_analytic(w, 0, 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        second_derivative_analytic(w, 1, 2, 4)


def test_second_derivative_is_fully_symmetric():
    w = random_weights(3, 3, random.Random("deriv:1"))
    reference = second_derivative_analytic(w, 1, 2, 3)
    for triple in ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
        assert second_derivative_analytic(w, *triple) == reference


def test_single_site_hand_value():
    # One site, three states, field weight 3: m = 3/5 and the curvature is
    # m(1-m)(1-2m) = -6/125.
    w = GhostWeightVector(1, 3, (Fraction(3),))
    assert second_derivative_analytic(w, 1, 1, 1) == Fraction(-6, 125)


def test_curvature_sum_routes_agree():
    rng = random.Random("deriv:2")
    for _ in range(6):
        n = rng.choice([3, 4])
        r = rng.choice([2, 3, 4])
        w = random_weights(n, r, rng)
        assert second_derivative_via_sum(w, 1, 2, 3) == second_derivative_analytic(
            w, 1, 2, 3
        )


def test_via_sum_relabels_arbitrary_triples():
    rng = random.Random("deriv:3")
    w = random_weights(4, 3, rng)
    for triple in ((2, 3, 4), (4, 1, 3), (3, 2, 1)):
        assert second_derivative_via_sum(w, *triple) == second_derivative_analytic(
            w, *triple
        )


@pytest.mark.parametrize("triple", [(4, 1, 3), (3, 2, 1), (2, 3, 4)])
def test_via_sum_matches_the_brute_force_truncated_triple(triple):
    # The five-term combination of brute-force pinned sums shares neither
    # weighted_sums nor ghs_combination with the curvature-sum route.
    i, j, k = triple
    n, r = 4, 3
    w = random_weights(n, r, trial_rng("via-oracle", 0))

    def z(*sites):
        return pinned_sum(n, r, w.weights, sites)

    expected = (
        z() * z() * z(i, j, k)
        - z() * z(i, j) * z(k)
        - z() * z(i, k) * z(j)
        - z() * z(j, k) * z(i)
        + 2 * z(i) * z(j) * z(k)
    ) / z() ** 3
    assert second_derivative_via_sum(w, *triple) == expected


@st.composite
def exact_instances(draw, min_sites):
    """An exact instance with min_sites..5 sites, 2..4 states and weights
    1 + p/q for small p, q."""
    n = draw(st.integers(min_sites, 5))
    r = draw(st.integers(2, 4))
    ratio = st.builds(Fraction, st.integers(0, 9), st.integers(1, 4))
    size = len(pair_order(n))
    weights = [1 + x for x in draw(st.lists(ratio, min_size=size, max_size=size))]
    return GhostWeightVector(n, r, tuple(weights))


@st.composite
def relabelled_cases(draw, distinct):
    """An exact instance, a permutation of its sites and a site triple,
    with three distinct sites or with a repeated one."""
    w = draw(exact_instances(3 if distinct else 1))
    sites = range(1, w.n_sites + 1)
    perm = dict(zip(sites, draw(st.permutations(sites))))
    if distinct:
        triple = tuple(draw(st.permutations(sites))[:3])
    else:
        i, j = draw(st.sampled_from(sites)), draw(st.sampled_from(sites))
        triple = (i, j, draw(st.sampled_from([i, j])))
    return w, perm, triple


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "repeated"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_analytic_derivative_follows_a_relabelling(distinct, data):
    # Site perm[s] of the relabelled instance plays the part of site s.
    w, perm, (i, j, k) = data.draw(relabelled_cases(distinct))
    moved = GhostWeightVector(
        w.n_sites, w.n_states, relabel(w.n_sites, w.weights, perm)
    )
    expected = second_derivative_analytic(w, i, j, k)
    assert second_derivative_analytic(moved, perm[i], perm[j], perm[k]) == expected


@pytest.fixture
def count_passes(monkeypatch):
    """Count weighted_sums calls wherever a potts_ghs module binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return weighted_sums(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "potts_ghs" and hasattr(module, "weighted_sums"):
            monkeypatch.setattr(module, "weighted_sums", counted)
    return calls


@pytest.mark.parametrize(
    "route",
    [second_derivative_analytic, second_derivative_via_sum, second_derivative_fd],
)
def test_each_derivative_route_makes_one_pass(count_passes, route):
    w = random_weights(4, 3, trial_rng("passes", 0))
    route(w, 1, 2, 3)
    route(w, 4, 1, 3)
    assert len(count_passes) == 2


def test_an_exact_derivative_job_makes_two_passes(count_passes, tmp_path):
    # The finite difference's Decimal pass, and one Fraction pass whose sums
    # both the analytic and the curvature-sum record combine.
    w = random_weights(4, 3, trial_rng("passes", 1))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dump_model(w)))
    out = tmp_path / "out.json"
    for triple in ((1, 2, 3), (3, 1, 4), (2, 2, 4)):
        count_passes.clear()
        argv = ["derivative", "--model", str(path), "--mode", "exact"]
        for flag, site in zip(("--i", "--j", "--k"), triple):
            argv += [flag, str(site)]
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert sorted(type(args[4]).__name__ for args in count_passes) == [
            "Decimal",
            "Fraction",
        ]
        # Each pass pins the job's own triple: its second set is {i, j, k}.
        assert all(set(args[3][1]) == set(triple) for args in count_passes)
        methods = [r["method"] for r in json.loads(out.read_text())["results"]]
        via = ["via-curvature-sum"] if len(set(triple)) == 3 else []
        assert methods == ["analytic", *via, "finite-difference"]


def test_a_float_derivative_job_makes_two_passes(count_passes):
    argv = ["derivative", "--n-sites", "4", "--r", "3", "--mode", "float"]
    argv += ["--seed", "4", "--i", "3", "--j", "1", "--k", "4"]
    assert cli.main(argv) == 0
    assert sorted(type(args[4]).__name__ for args in count_passes) == [
        "Decimal",
        "float",
    ]


def test_via_sum_needs_distinct_sites():
    w = GhostWeightVector.uniform(3, 2)
    with pytest.raises(ValueError, match="distinct"):
        second_derivative_via_sum(w, 1, 1, 2)


# ---------------------------------------------------------------------------
# the curvature sum


def test_curvature_sum_needs_three_sites():
    with pytest.raises(ValueError, match="n_sites >= 3"):
        ghs_sum(GhostWeightVector.uniform(2, 2))


def test_curvature_sum_vanishes_at_unit_weights():
    for n in (3, 4, 5):
        for r in (2, 3, 4, 5):
            assert ghs_sum(GhostWeightVector.uniform(n, r)) == 0


def test_curvature_sum_bridge_identity():
    rng = random.Random("deriv:4")
    for _ in range(5):
        n = rng.choice([3, 4])
        r = rng.choice([2, 3, 4])
        w = random_weights(n, r, rng)
        z = pinned_sum(n, r, w.weights)
        bridge = Fraction(r) ** 3 * z**3 * second_derivative_analytic(w, 1, 2, 3)
        assert ghs_sum(w) == bridge
    # ghs_sum and the analytic route share weighted_sums and the five-term
    # combiner, so both are also held to the stdlib enumerator.
    for n in (3, 4, 5):
        for r in (2, 3, 4):
            weights = list(random_weights(n, r, trial_rng("bridge", n * r)).weights)
            if r == 3:
                order = pair_order(n)
                for pair in ((0, 1), (1, 2), (2, n)):
                    weights[order.index_of[pair]] = Fraction(1)
            w = GhostWeightVector(n, r, tuple(weights))
            assert ghs_sum(w) == ghs_I(n, r, weights), (n, r)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(w=exact_instances(3))
def test_the_curvature_sum_is_the_scaled_analytic_derivative(w):
    # The bridge ghs_I = r**3 Z**3 d2m_1/dB_2 dB_3, with Z from the stdlib
    # enumerator.
    r = w.n_states
    z = pinned_sum(w.n_sites, r, w.weights)
    assert ghs_sum(w) == r**3 * z**3 * second_derivative_analytic(w, 1, 2, 3)


def test_two_state_curvature_is_nonpositive():
    rng = random.Random("deriv:5")
    for _ in range(10):
        n = rng.choice([3, 4])
        w = random_weights(n, 2, rng)
        assert ghs_sum(w) <= 0


def test_frozen_negative_values_at_three_plus_states():
    # Uniform weight 2 on every pair: negative curvature at r = 3 and 4,
    # positive at r = 5 — the sign depends on the instance, not just on r.
    assert ghs_sum(GhostWeightVector.uniform(3, 3, Fraction(2))) == -1620864
    assert ghs_sum(GhostWeightVector.uniform(3, 4, Fraction(2))) == -122880
    assert ghs_sum(GhostWeightVector.uniform(3, 5, Fraction(2))) == 49536000


def test_zero_field_curvature_is_nonnegative_at_three_plus_states():
    # With unit ghost weights the curvature sum reduces to the core
    # polynomial at nonnegative deviations, whose coefficients are
    # nonnegative for r >= 3.
    rng = random.Random("deriv:6")
    order = pair_order(3)
    for _ in range(10):
        r = rng.choice([3, 4, 5])
        values = {
            order.pairs[p]: 1 + Fraction(rng.randint(0, 12), rng.randint(1, 6))
            for p in order.core_indices
        }
        w = GhostWeightVector.from_pair_map(3, r, values)
        assert ghs_sum(w) >= 0


def test_two_state_zero_field_curvature_is_exactly_zero():
    rng = random.Random("deriv:7")
    order = pair_order(3)
    for _ in range(5):
        values = {
            order.pairs[p]: 1 + Fraction(rng.randint(0, 12), rng.randint(1, 6))
            for p in order.core_indices
        }
        assert ghs_sum(GhostWeightVector.from_pair_map(3, 2, values)) == 0


# ---------------------------------------------------------------------------
# float and finite-difference routes


def reference_fd(model: ModelSpec, i: int, j: int, k: int, h: float) -> float:
    """The finite-difference stencil with one enumeration per point: the
    magnetization is recomputed from weights e**(B + shift) at each shift."""

    def magnetization(shifts):
        tw = []
        for a, b in pair_order(model.n_sites).pairs:
            if a == 0:
                tw.append(mp.exp(mp.mpf(model.fields[b - 1]) + shifts.get(b, 0)))
            else:
                tw.append(mp.exp(mp.mpf(model.coupling(a, b))))
        z, top = weighted_sums(tw, model.n_sites, model.n_states, [(), {i}], mp.mpf(1))
        return top / z

    with mp.workdps(derivatives.FD_PRECISION_DPS):
        s = mp.mpf(h)
        if j == k:
            value = (
                magnetization({j: s}) - 2 * magnetization({}) + magnetization({j: -s})
            ) / s**2
        else:
            value = (
                magnetization({j: s, k: s})
                - magnetization({j: s, k: -s})
                - magnetization({j: -s, k: s})
                + magnetization({j: -s, k: -s})
            ) / (4 * s**2)
        return float(value)


@pytest.mark.parametrize("h", [1e-2, 1e-4])
@pytest.mark.parametrize("triple", [(1, 2, 3), (1, 2, 2), (2, 1, 1), (1, 1, 1)])
def test_one_pass_fd_matches_the_per_point_stencil(triple, h):
    model = random_model(4, 3, trial_rng("fd-reference", 0))
    expected = reference_fd(model, *triple, h)
    assert second_derivative_fd(model, *triple, h=h) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_fd_oracle_does_not_go_through_the_five_term_combiner(monkeypatch, tmp_path, mode):
    # An offset planted in the combiner moves the analytic value but not the
    # finite difference, so the CLI's agreement check must catch it.
    argv = ["derivative", "--n-sites", "4", "--r", "3", "--seed", "4", "--mode", mode]
    argv += ["--i", "1", "--j", "2", "--k", "3"]
    out = tmp_path / "report.json"

    def agreement():
        code = cli.main(argv + ["--output", str(out)])
        checks = json.loads(out.read_text())["checks"]
        status = {c["name"]: c["status"] for c in checks}
        return code, status["finite-difference-agreement"]

    assert agreement() == (0, "pass")
    original = derivatives._truncated_triple
    monkeypatch.setattr(
        derivatives,
        "_truncated_triple",
        lambda *args: original(*args) + Fraction(1, 1000),
    )
    assert agreement() == (1, "fail")


def test_float_route_tracks_the_exact_route():
    rng = random.Random("deriv:8")
    for _ in range(5):
        w = random_weights(3, rng.choice([2, 3]), rng)
        exact = float(second_derivative_analytic(w, 1, 2, 3))
        approx = second_derivative_float(model_from_weights(w), 1, 2, 3)
        assert approx == pytest.approx(exact, rel=1e-9, abs=1e-15)


def test_fd_matches_analytic_distinct_and_repeated():
    rng = trial_rng("fd-unit", 0)
    model = random_model(4, 3, rng)
    for triple in ((1, 2, 3), (1, 2, 2), (2, 1, 1)):
        analytic = second_derivative_float(model, *triple)
        fd = second_derivative_fd(model, *triple, h=1e-4)
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-10)


def test_fd_on_exact_weights_matches_the_analytic_value():
    # The oracle takes the exact weights themselves, so a weight far beyond
    # the float range needs no logarithm.  The relative part of the CLI's
    # agreement tolerance suffices at every instance.
    rng = random.Random("deriv:exact-fd")
    huge = GhostWeightVector.from_pair_map(
        3,
        3,
        {
            (1, 2): Fraction(3, 2),
            (1, 3): Fraction(5, 4),
            (2, 3): 10**400,
            (0, 1): 2,
            (0, 2): Fraction(3, 2),
            (0, 3): Fraction(7, 5),
        },
    )
    for w in (random_weights(3, 2, rng), random_weights(4, 3, rng), huge):
        for triple in ((1, 2, 3), (1, 2, 2), (2, 1, 1), (1, 1, 1)):
            analytic = float(second_derivative_analytic(w, *triple))
            fd = second_derivative_fd(w, *triple, h=1e-4)
            assert fd == pytest.approx(analytic, rel=1e-6, abs=0), (triple, analytic)


def test_fd_error_shrinks_quadratically():
    model = random_model(3, 2, trial_rng("fd-order", 0))
    exact = second_derivative_float(model, 1, 2, 3)
    err_big = abs(second_derivative_fd(model, 1, 2, 3, h=1e-2) - exact)
    err_small = abs(second_derivative_fd(model, 1, 2, 3, h=1e-3) - exact)
    assert err_small > 0
    ratio = err_big / err_small
    assert 50 <= ratio <= 200


def test_fd_rejects_nonpositive_step():
    model = random_model(3, 2, trial_rng("fd-step", 0))
    with pytest.raises(ValueError, match="step"):
        second_derivative_fd(model, 1, 2, 3, h=0.0)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 1e-320, 1e308, 700.0])
def test_fd_rejects_non_finite_step(h):
    model = random_model(3, 2, trial_rng("fd-step", 0))
    with pytest.raises(ValueError, match="step"):
        second_derivative_fd(model, 1, 2, 3, h=h)


def test_float_derivative_overflow_is_a_capacity_error():
    pairs = [(1, 2), (1, 3), (2, 3)]
    # e**800 overflows a double.
    model = ModelSpec(3, 3, {pair: 800.0 for pair in pairs})
    with pytest.raises(CapacityError, match="pair weight"):
        second_derivative_float(model, 1, 2, 3)


def test_float_derivative_sums_an_overflowing_partition_sum_exactly():
    # e**200 is a finite double, but the partition sum overflows; the same
    # doubles summed as Fractions give the finite, correctly rounded value.
    pairs = [(1, 2), (1, 3), (2, 3)]
    model = ModelSpec(3, 3, {pair: 200.0 for pair in pairs}, (200.0,) * 3)
    tw = [math.exp(200.0)] * 6
    expected = ghs_I(3, 3, tw) / (3**3 * pinned_sum(3, 3, tw) ** 3)
    assert expected != 0
    assert second_derivative_float(model, 1, 2, 3) == float(expected)
