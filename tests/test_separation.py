"""Tests for the factored form of the expansion and its verification modes.

The factorization into per-pair closed-form factors times a reduced core is
*claimed* for the full expansion but does not actually hold: assembling the
factors disagrees with the direct expansion on every monomial that mixes a
field deviation with the core.  These tests pin down both the exact shape of
the disagreement and the restricted slices where the factored form is right.
What does separate, exactly, is every block that hangs off the core; the
block-by-block property below asserts it.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import biconnected_components, block_sites
from brute_force import block_sum
from potts_ghs import (
    CapacityError,
    GhostWeightVector,
    LaurentPoly,
    evaluate_separated,
    expand_full,
    ghs_sum,
    separated_form,
    separation_check,
)
from potts_ghs import cli
from potts_ghs.alpha import alpha
from potts_ghs.constraints import matrix_coefficient
from potts_ghs.model import pair_order
from potts_ghs.separation import (
    BULK_COEFFS,
    FIELD_COEFFS,
    assemble_separated,
    factor_poly,
    reduced_expansion,
)
from potts_ghs.xpoly import xpoly_eval

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
    total = LaurentPoly()
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
# what separates: blocks off the core, one by one

CORE_GRAPH = frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
# Block shapes over local vertices; vertex 0 is the site the block shares
# with the graph drawn so far.  K4 minus an edge is a theta graph.
SHAPES = {
    "bridge": ((0, 1),),
    "triangle": ((0, 1), (1, 2), (0, 2)),
    "square": ((0, 1), (1, 2), (2, 3), (0, 3)),
    "theta": ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)),
}
K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
MAX_PROPERTY_SITES = 10


def test_biconnected_components_of_a_small_graph():
    # Two triangles sharing site 2, a bridge 4-5 and a square on 5.
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]
    edges += [(5, 6), (6, 7), (7, 8), (5, 8)]
    blocks = {tuple(sorted(b)) for b in biconnected_components(edges)}
    assert blocks == {
        ((0, 1), (0, 2), (1, 2)),
        ((2, 3), (2, 4), (3, 4)),
        ((4, 5),),
        ((5, 6), (5, 8), (6, 7), (7, 8)),
    }


@st.composite
def block_trees(draw):
    """An instance whose non-unit pairs are the core pairs among {0, 1, 2, 3}
    (each possibly 1), a K4 block on three new sites at a core site, one or
    two more blocks at any site but the K4's own, and at most one chord
    between two sites off the K4, which may fuse blocks into the core."""
    r = draw(st.sampled_from([2, 3]))
    weight = st.builds(
        lambda a, b: 1 + Fraction(a, b), st.integers(1, 6), st.integers(1, 3)
    )
    pairs = {pair: draw(st.just(1) | weight) for pair in sorted(CORE_GRAPH)}
    n = 3

    def attach(shape, at):
        nonlocal n
        sites = [at] + list(range(n + 1, n + len(block_sites(shape))))
        n += len(sites) - 1
        for a, b in shape:
            i, j = sorted((sites[a], sites[b]))
            pairs[i, j] = draw(weight)
        return set(sites[1:])

    k4_sites = attach(K4, draw(st.integers(0, 3)))

    def off_k4():
        return st.sampled_from([s for s in range(n + 1) if s not in k4_sites])

    shapes = st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=2)
    for shape in draw(shapes):
        if n + len(block_sites(SHAPES[shape])) - 1 > MAX_PROPERTY_SITES:
            break
        attach(SHAPES[shape], draw(off_k4()))
    if draw(st.booleans()):
        i, j = sorted(draw(st.lists(off_k4(), min_size=2, max_size=2, unique=True)))
        pairs[i, j] = draw(weight)
    return GhostWeightVector.from_pair_map(n, r, pairs), pairs, k4_sites


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(block_trees())
def test_each_block_off_the_core_splits_off_as_its_cubed_sum(case):
    # G is the graph of the pairs unequal to 1 plus the six core pairs, and C
    # its block holding {0, 1, 2, 3}.  Every other block B meets the rest at
    # one site, so summed over B's other sites it scales each pinned sum by
    # Z_B / r whatever that site's state; against w on C, whose sites off C
    # each give r, every factor gains Z_B / r**|V_B|, and the curvature sum
    # its cube.  The kernel enumerates the K4 block, which the series,
    # parallel and pendant rules cannot sum out.
    w, pairs, k4_sites = case
    r = w.n_states
    graph = CORE_GRAPH | {pair for pair, t in pairs.items() if t != 1}
    blocks = biconnected_components(graph)
    (core,) = [b for b in blocks if CORE_GRAPH <= b]
    off_core = [b for b in blocks if b is not core]
    assert any(block_sites(b) > k4_sites for b in off_core)
    on_core = {pair: pairs[pair] for pair in core}
    w_core = GhostWeightVector.from_pair_map(w.n_sites, r, on_core)
    factor = math.prod(
        block_sum(r, {pair: pairs[pair] for pair in b}) / r ** len(block_sites(b))
        for b in off_core
    )
    assert ghs_sum(w) == ghs_sum(w_core) * factor**3


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
