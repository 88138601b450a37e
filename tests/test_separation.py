"""Tests for the factored form of the expansion and its verification modes.

The factorization into per-pair closed-form factors times a reduced core is
*claimed* for the full expansion but does not actually hold: assembling the
factors disagrees with the direct expansion on every monomial that mixes a
field deviation with the core.  These tests pin down both the exact shape of
the disagreement and the restricted slices where the factored form is right.
"""

import json
import random
from fractions import Fraction

import pytest

from potts_ghs import (
    CapacityError,
    GhostWeightVector,
    LaurentPoly,
    XPoly,
    alpha,
    assemble_separated,
    evaluate_separated,
    expand_full,
    ghs_sum,
    matrix_coefficient,
    pair_order,
    random_weights,
    reduced_expansion,
    separated_form,
    separation_check,
    xpoly_eval,
)
from potts_ghs import cli
from potts_ghs.separation import BULK_COEFFS, FIELD_COEFFS, factor_poly

FIELD_VARS = set(pair_order(3).field_indices)


# ---------------------------------------------------------------------------
# skeleton shapes


def test_skeleton_at_three_sites():
    form = separated_form(3)
    order = pair_order(3)
    assert order.field_indices == (0, 1, 2)
    assert order.bulk_indices == ()
    assert set(form.factors) == {0, 1, 2}
    assert form.factors[0] == factor_poly(FIELD_COEFFS, 0)


def test_skeleton_at_four_sites():
    form = separated_form(4)
    order = pair_order(4)
    assert order.field_indices == (0, 1, 2)
    assert tuple(order.pairs[p] for p in order.bulk_indices) == (
        (0, 4),
        (1, 4),
        (2, 4),
        (3, 4),
    )
    assert set(form.factors) == set(order.field_indices) | set(order.bulk_indices)


def test_factor_coefficient_tables():
    assert BULK_COEFFS == (
        LaurentPoly({0: 1}),
        LaurentPoly({-1: 3}),
        LaurentPoly({-2: 3}),
        LaurentPoly({-3: 1}),
    )
    assert FIELD_COEFFS == (
        LaurentPoly({0: 1}),
        LaurentPoly({0: 1, -1: 2}),
        LaurentPoly({-1: 2, -2: 1}),
        LaurentPoly({-2: 1}),
    )


def test_factor_evaluations():
    bulk = factor_poly(BULK_COEFFS, 7)
    # (1 + X/r)^3 at X = 2, r = 2.
    assert xpoly_eval(bulk, {7: Fraction(2)}, r=2) == 8
    field = factor_poly(FIELD_COEFFS, 0)
    # 1 + 2 + 5/4 + 1/4 at X = 1, r = 2.
    assert xpoly_eval(field, {0: Fraction(1)}, r=2) == Fraction(9, 2)
    # Both factors are 1 at X = 0.
    assert xpoly_eval(bulk, {7: Fraction(0)}, r=3) == 1
    assert xpoly_eval(field, {0: Fraction(0)}, r=3) == 1


# ---------------------------------------------------------------------------
# the reduced core


def test_core_is_the_reduced_expansion():
    form = separated_form(3)
    assert form.core == reduced_expansion(3)
    assert len(form.core) == 54


def test_core_uniform_triple_coefficient():
    assert reduced_expansion(3).coefficient({3: 3, 4: 3, 5: 3}) == LaurentPoly(
        {5: 1, 4: -3, 3: 2}
    )


def test_every_core_monomial_evaluates():
    # An absent monomial has the zero Laurent polynomial as its coefficient,
    # so each of the 64 evaluates; the 10 absent ones give 0.
    core = reduced_expansion(3)
    p1, p2, p3 = pair_order(3).core_indices
    values = {
        (x, y, z): core.coefficient({p1: x, p2: y, p3: z}).evaluate(3)
        for x in range(4)
        for y in range(4)
        for z in range(4)
    }
    assert sum(1 for v in values.values() if v == 0) == 10
    assert all(v == alpha(*t).evaluate(3) for t, v in values.items())


def test_core_scales_by_extra_sites():
    core3 = reduced_expansion(3)
    core4 = reduced_expansion(4)
    p1, p2, p3 = pair_order(4).core_indices
    for mono, coeff in core3.items():
        remapped = {{3: p1, 4: p2, 5: p3}[v]: e for v, e in mono}
        assert core4.coefficient(remapped) == coeff.shift(3)
    assert len(core4) == len(core3)


# ---------------------------------------------------------------------------
# exhaustive comparison: the factorization fails off the pure-core slice


def test_exhaustive_check_fails_with_frozen_counts():
    report = separation_check(3)
    assert report["passed"] is False
    assert report["monomials_compared"] == 3456
    assert report["mismatch_count"] == 3402


def test_exhaustive_first_mismatch_is_frozen():
    report = separation_check(3)
    first = report["first_mismatch"]
    assert first["monomial"] == [[0, 1], [3, 1], [4, 1]]
    assert first["assembled"] == "r^9 - r^8 - 4*r^7 + 4*r^6"
    assert first["full"] == "r^9 - 4*r^8 + 3*r^7"


def test_mismatch_exactly_on_field_touching_monomials():
    assembled = assemble_separated(separated_form(3))
    full = expand_full(3)
    union = set(dict(assembled.items())) | set(dict(full.items()))
    assert len(union) == 3456
    for mono in union:
        touches_field = any(v in FIELD_VARS for v, _ in mono)
        agree = assembled.coefficient(dict(mono)) == full.coefficient(dict(mono))
        assert agree == (not touches_field)


def test_pure_core_slice_assembles_correctly():
    assembled = assemble_separated(separated_form(3))
    for mono, coeff in reduced_expansion(3).items():
        assert assembled.coefficient(dict(mono)) == coeff


# ---------------------------------------------------------------------------
# random evaluation: factored values disagree with the direct sum


def random_eval(tmp_path, n_sites, r, trials, seed):
    """Run random-eval ``separation-check`` through the CLI; return whether
    its one check passed and that check's witness."""
    out = tmp_path / "report.json"
    code = cli.main(
        ["separation-check", "--n-sites", str(n_sites), "--mode", "random-eval",
         "--r", str(r), "--trials", str(trials), "--seed", str(seed),
         "--output", str(out)]
    )
    check = json.loads(out.read_text())["checks"][0]
    assert code == (0 if check["status"] == "pass" else 1)
    return check["status"] == "pass", check["witness"]


def test_random_eval_fails_on_generic_instances(tmp_path):
    passed, report = random_eval(tmp_path, 4, 3, trials=5, seed=11)
    assert passed is False
    assert len(report["failures"]) == 5
    for record in report["failures"]:
        assert set(record) == {"trial", "instance", "weights", "separated", "direct"}
        assert record["separated"] != record["direct"]
        assert len(record["weights"]) == len(pair_order(4))


def test_random_eval_is_deterministic_per_seed(tmp_path):
    a = random_eval(tmp_path, 3, 4, trials=4, seed=7)
    b = random_eval(tmp_path, 3, 4, trials=4, seed=7)
    assert a == b
    c = random_eval(tmp_path, 3, 4, trials=4, seed=8)
    assert c != a


def test_factored_value_vanishes_at_two_states(tmp_path):
    # Every core coefficient vanishes at r = 2, so the factored value is 0
    # there while the direct sum is strictly negative on generic instances.
    passed, report = random_eval(tmp_path, 3, 2, trials=5, seed=3)
    assert passed is False
    for record in report["failures"]:
        assert record["separated"] == "0/1"
        assert Fraction(record["direct"]) < 0


def test_zero_field_unit_bulk_slice_evaluates_correctly():
    # With every non-core weight 1 the factors are all 1 and the core alone
    # must reproduce the direct sum; this slice genuinely holds.
    rng = random.Random("separation:0")
    for n_sites in (3, 4):
        order = pair_order(n_sites)
        for r in (2, 3, 4):
            values = {
                order.pairs[p]: Fraction(rng.randint(1, 8), rng.randint(1, 4))
                for p in order.core_indices
            }
            values = {pair: max(t, 1 / t) for pair, t in values.items()}
            w = GhostWeightVector.from_pair_map(n_sites, r, values)
            assert evaluate_separated(separated_form(n_sites), w) == ghs_sum(w)


def test_generic_field_weight_breaks_the_factored_value():
    order = pair_order(3)
    values = {order.pairs[p]: Fraction(2) for p in order.core_indices}
    values[(0, 1)] = Fraction(3, 2)
    w = GhostWeightVector.from_pair_map(3, 3, values)
    assert evaluate_separated(separated_form(3), w) != ghs_sum(w)


def test_lone_bulk_weight_keeps_both_sides_zero():
    # A single non-unit bulk pair leaves the distinguished triple decoupled:
    # both routes are exactly zero.
    w = GhostWeightVector.from_pair_map(4, 3, {(1, 4): Fraction(7, 3)})
    assert ghs_sum(w) == 0
    assert evaluate_separated(separated_form(4), w) == 0


# ---------------------------------------------------------------------------
# the aggregation law behind the field factor


def one_hot_rows():
    return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def rows_of_weight(k):
    return [
        row
        for row in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        if sum(row) == k
    ]


def aggregate(context_rows, p, k):
    """Sum of matrix coefficients over weight-k rows at pair index p in a
    context of rows keyed by pair index."""
    pairs = pair_order(3).pairs
    total = LaurentPoly.zero()
    for row in rows_of_weight(k):
        entries = dict(context_rows)
        if k:
            entries[p] = row
        columns = [[pairs[q] for q, bits in entries.items() if bits[c]] for c in range(3)]
        total = total + matrix_coefficient(3, columns)
        if not k:
            break
    return total


def test_field_aggregation_holds_in_ghost_only_contexts():
    # Aggregating over the rows of one field pair multiplies the context
    # coefficient by the field-factor coefficient — provided every other
    # nonzero row also sits on a field pair.  All 64 such contexts check out.
    all_rows = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    for row1 in all_rows:
        for row2 in all_rows:
            context = {1: row1, 2: row2}
            base = aggregate(context, 0, 0)
            for k in (1, 2, 3):
                assert aggregate(context, 0, k) == FIELD_COEFFS[k] * base


def test_field_aggregation_breaks_with_a_core_row():
    # Frozen witness: context rows (1,2) -> (1,0,0) and (0,2) -> (1,0,0).
    context = {3: (1, 0, 0), 1: (1, 0, 0)}
    base = aggregate(context, 0, 0)
    assert base == LaurentPoly({8: 2, 7: -2})
    one_hot = aggregate(context, 0, 1)
    assert one_hot == LaurentPoly({8: 2, 6: -2})
    assert FIELD_COEFFS[1] * base == LaurentPoly({8: 2, 7: 2, 6: -4})
    assert one_hot != FIELD_COEFFS[1] * base


# ---------------------------------------------------------------------------
# guards


def test_exhaustive_mode_is_three_sites_only():
    with pytest.raises(CapacityError, match="n_sites=3"):
        separation_check(4)
    with pytest.raises(ValueError, match="n_sites >= 3"):
        separation_check(2)


def test_unknown_mode_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["separation-check", "--n-sites", "3", "--mode", "spot-check"])
    assert exc.value.code == 2
    assert "spot-check" in capsys.readouterr().err


def test_evaluate_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size"):
        evaluate_separated(separated_form(3), GhostWeightVector.uniform(4, 2))
