"""Tests for the 64 aggregated core coefficients and their sign dichotomy.

TRUE_FORMS below is an independently frozen copy of the verified table: each
sorted weight triple maps to (shift, inner coefficients) with the entry equal
to r**(3*n_sites + shift) times the inner polynomial.  Eight entry classes of
the reference closed forms disagree with these computed values; the
comparison report flags them as possible errata rather than adopting them.
"""

import re
import sys

import pytest

from potts_ghs import (
    LaurentPoly,
    XPoly,
    alpha_table,
    compare_reference,
    sign_report,
)
from potts_ghs import alpha as alpha_module, constraints, separation
from potts_ghs.alpha import REFERENCE_FORMS, alpha, table_export
from potts_ghs.model import pair_order

TRUE_FORMS = {
    (3, 3, 3): (-6, {2: 1, 1: -3, 0: 2}),
    (3, 3, 0): (-6, {2: 1, 1: -3, 0: 2}),
    (3, 3, 2): (-6, {2: 3, 1: -9, 0: 6}),
    (3, 3, 1): (-6, {2: 3, 1: -9, 0: 6}),
    (3, 2, 2): (-6, {3: 2, 1: -14, 0: 12}),
    (3, 2, 1): (-6, {3: 4, 2: -9, 1: -1, 0: 6}),
    (3, 2, 0): (-5, {2: 2, 1: -6, 0: 4}),
    (3, 1, 1): (-5, {3: 1, 2: 1, 1: -10, 0: 8}),
    (3, 1, 0): (-4, {2: 1, 1: -3, 0: 2}),
    (3, 0, 0): (0, {}),
    (2, 2, 2): (-6, {4: 2, 3: 6, 2: -26, 1: 6, 0: 12}),
    (2, 2, 1): (-5, {3: 6, 2: -8, 1: -18, 0: 20}),
    (2, 2, 0): (-4, {2: 4, 1: -12, 0: 8}),
    (2, 1, 1): (-4, {3: 2, 2: 3, 1: -23, 0: 18}),
    (2, 1, 0): (-3, {2: 2, 1: -6, 0: 4}),
    (2, 0, 0): (0, {}),
    (1, 1, 1): (-3, {3: 1, 2: 3, 1: -16, 0: 12}),
    (1, 1, 0): (-2, {2: 1, 1: -3, 0: 2}),
    (1, 0, 0): (0, {}),
    (0, 0, 0): (0, {}),
}

MISMATCHING_REPRESENTATIVES = {
    "3,2,2",
    "3,2,1",
    "3,2,0",
    "3,1,1",
    "2,2,2",
    "2,2,1",
    "2,2,0",
    "2,1,1",
}


def true_entry(x, y, z, n_sites=3):
    shift, inner = TRUE_FORMS[tuple(sorted((x, y, z), reverse=True))]
    return LaurentPoly(inner).shift(3 * n_sites + shift)


def all_triples():
    return [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]


# ---------------------------------------------------------------------------
# the table itself


def test_every_entry_matches_the_frozen_table():
    for triple in all_triples():
        assert alpha(*triple) == true_entry(*triple), triple


def test_entries_are_permutation_symmetric():
    assert alpha(3, 2, 1) == alpha(1, 2, 3) == alpha(2, 3, 1)
    assert alpha(2, 2, 0) == alpha(0, 2, 2) == alpha(2, 0, 2)


def test_entries_scale_by_cubes_per_extra_site():
    for triple in ((3, 3, 3), (2, 1, 1), (1, 1, 1), (3, 2, 0)):
        base = alpha(*triple, n_sites=3)
        assert alpha(*triple, n_sites=4) == base.shift(3)
        assert alpha(*triple, n_sites=5) == base.shift(6)


def test_entries_vanish_at_one_and_two_states():
    for triple in all_triples():
        entry = alpha(*triple)
        assert entry.evaluate(1) == 0
        assert entry.evaluate(2) == 0


def test_alpha_validates_arguments():
    with pytest.raises(ValueError, match="row weight"):
        alpha(4, 0, 0)
    with pytest.raises(ValueError, match="row weight"):
        alpha(1, -1, 0)
    for n in (2, 0, -1):
        with pytest.raises(ValueError, match="needs n_sites >= 3"):
            alpha(1, 1, 1, n_sites=n)


def test_symmetry_classes():
    table = alpha_table(3)
    assert len(table.entries) == 64
    assert len(table.symmetry_classes) == 15
    assert sum(len(cls) for cls in table.symmetry_classes) == 64
    classes = {frozenset(cls) for cls in table.symmetry_classes}
    assert frozenset({(3, 3, 3), (3, 3, 0), (3, 0, 3), (0, 3, 3)}) in classes
    zero_class = next(
        cls for cls in table.symmetry_classes if table.entries[cls[0]] == 0
    )
    assert len(zero_class) == 10
    for cls in table.symmetry_classes:
        values = {table.entries[t] for t in cls}
        assert len(values) == 1


# ---------------------------------------------------------------------------
# sign dichotomy


def test_sign_dichotomy_across_state_counts():
    table = alpha_table(3)
    report = sign_report(table, tuple(range(2, 11)))
    assert report["dichotomy_holds"] is True
    assert report["r_values"] == list(range(2, 11))
    for r in range(2, 11):
        per = report["per_r"][str(r)]
        assert per["verdict"] == "pass"
        assert per["violations"] == []
        assert per["expected"] == ("<=0" if r == 2 else ">=0")
        assert sum(per["sign_counts"].values()) == 64


def test_signs_at_two_states_are_all_zero():
    report = sign_report(alpha_table(3), (2,))
    assert report["per_r"]["2"]["sign_counts"] == {"-1": 0, "0": 64, "+1": 0}


def test_signs_at_three_states():
    report = sign_report(alpha_table(3), (3,))
    assert report["per_r"]["3"]["sign_counts"] == {"-1": 0, "0": 10, "+1": 54}


def test_sign_report_rejects_bad_state_counts():
    table = alpha_table(3)
    with pytest.raises(ValueError):
        sign_report(table, (1,))
    with pytest.raises(ValueError):
        sign_report(table, ())
    with pytest.raises(ValueError):
        sign_report(table, (2.5,))


# ---------------------------------------------------------------------------
# reference comparison


def test_reference_forms_cover_all_triples_once():
    covered = [t for form in REFERENCE_FORMS for t in form.triples]
    assert len(REFERENCE_FORMS) == 18
    assert len(covered) == 64
    assert sorted(covered) == sorted(all_triples())


def parse_reference_source(source: str, n_sites: int) -> LaurentPoly:
    """The polynomial of a printed form ``c*r^(3n-k)*(inner)`` at n_sites."""
    if source == "0":
        return LaurentPoly()
    match = re.fullmatch(r"(?:(\d+)\*)?r\^\(3n-(\d+)\)\*\((.+)\)", source)
    assert match, source
    scale, lowered, inner = match.groups()
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+", inner):
        parts = re.fullmatch(r"([+-]?)(\d*)(r(?:\^(\d+))?)?", term)
        assert parts and (parts[2] or parts[3]), term
        exp = (int(parts[4]) if parts[4] else 1) if parts[3] else 0
        assert exp not in coeffs, source
        coeffs[exp] = (-1 if parts[1] == "-" else 1) * int(parts[2] or 1)
    shift = 3 * n_sites - int(lowered)
    return LaurentPoly({e + shift: int(scale or 1) * c for e, c in coeffs.items()})


@pytest.mark.parametrize("n_sites", [3, 4])
def test_reference_sources_print_the_polynomials_they_are_compared_with(n_sites):
    for form in REFERENCE_FORMS:
        assert parse_reference_source(form.source, n_sites) == form.poly(n_sites), form.source
    zero_forms = [form for form in REFERENCE_FORMS if form.source == "0"]
    assert len(zero_forms) == 4
    assert all(form.poly(n_sites) == LaurentPoly() for form in zero_forms)


def test_comparison_verdicts_are_frozen():
    report = compare_reference(alpha_table(3))
    assert report["matches"] == 10
    assert report["mismatches"] == 8
    assert report["coverage_complete"] is True
    assert report["oracle_agreement"] is True
    mismatched = {
        rec["entry"] for rec in report["classes"] if rec["verdict"] == "mismatch"
    }
    assert mismatched == MISMATCHING_REPRESENTATIVES
    for rec in report["classes"]:
        assert rec["class_uniform"] is True
        if rec["verdict"] == "mismatch":
            assert "erratum" in rec["note"]
        else:
            assert "note" not in rec


@pytest.fixture
def cold_core_caches():
    """Clear the cached table entries and core around a test."""
    caches = (alpha_module.alpha, separation.reduced_expansion, separation.separated_form)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_oracle_agreement_is_an_independent_route(monkeypatch, cold_core_caches):
    # Add r^3 to the coefficient of the n = 3 matrix whose core rows are all
    # (1, 1, 0), wherever the package binds matrix_coefficient.  The
    # cross-check's matrix sum takes the wrong value; the table, read off
    # the core without constraint matrices, does not, so the cross-check
    # must report the disagreement.
    original = constraints.matrix_coefficient
    core = ((1, 2), (1, 3), (2, 3))
    target = (core, core, ())

    def tampered(n_sites, columns):
        coeff = original(n_sites, columns)
        if n_sites == 3 and tuple(tuple(sorted(col)) for col in columns) == target:
            coeff = coeff + LaurentPoly({3: 1})
        return coeff

    for module in (alpha_module, constraints, separation):
        if hasattr(module, "matrix_coefficient"):
            monkeypatch.setattr(module, "matrix_coefficient", tampered)
    assert compare_reference(alpha_table(3))["oracle_agreement"] is False
    assert compare_reference(alpha_table(4))["oracle_agreement"] is True


def count_matrix_coefficient_calls(monkeypatch):
    """Wrap matrix_coefficient wherever a package module binds it; the
    returned list gains the n_sites of each call."""
    calls = []
    original = constraints.matrix_coefficient

    def counted(n_sites, columns):
        calls.append(n_sites)
        return original(n_sites, columns)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "potts_ghs" and hasattr(module, "matrix_coefficient"):
            monkeypatch.setattr(module, "matrix_coefficient", counted)
    return calls


def test_the_table_is_read_off_the_core(monkeypatch, cold_core_caches):
    # The table forms no constraint matrix; the cross-check forms all 512
    # supported on the core pairs, once per size.
    calls = count_matrix_coefficient_calls(monkeypatch)
    for n in (3, 4):
        table = alpha_table(n)
        assert calls == []
        assert compare_reference(table)["oracle_agreement"] is True
        assert len(calls) == 512
        assert set(calls) == {n}
        calls.clear()


def test_a_planted_core_coefficient_breaks_oracle_agreement(monkeypatch, cold_core_caches):
    # Add r^3 to the X_12 X_13 coefficient of the n = 3 core.  The table,
    # read off the core, takes the wrong value; the matrix sum does not.
    original = separation._factor_product

    def tampered(n_sites, window):
        poly = original(n_sites, window)
        if n_sites == 3:
            p1, p2, _ = pair_order(3).core_indices
            poly = poly + XPoly({((p1, 1), (p2, 1)): LaurentPoly({3: 1})})
        return poly

    monkeypatch.setattr(separation, "_factor_product", tampered)
    assert alpha(1, 1, 0) == true_entry(1, 1, 0) + LaurentPoly({3: 1})
    assert compare_reference(alpha_table(3))["oracle_agreement"] is False
    assert compare_reference(alpha_table(4))["oracle_agreement"] is True


@pytest.mark.parametrize("n_sites", [3, 4, 5, 6])
def test_oracle_agreement_at_every_size(n_sites):
    table = alpha_table(n_sites)
    assert compare_reference(table)["oracle_agreement"] is True
    # The extra sites are free singletons: one more block per factor.
    base = alpha_table(3).entries
    assert table.entries == {t: p.shift(3 * (n_sites - 3)) for t, p in base.items()}


def test_comparison_record_shapes():
    report = compare_reference(alpha_table(3))
    by_entry = {rec["entry"]: rec for rec in report["classes"]}
    full = by_entry["2,2,2"]
    assert full["reference"] == "r^(3n-6)*(2r^4+6r^3-28r^2+8r+12)"
    assert full["computed"] == "r^3*(2*r^4 + 6*r^3 - 26*r^2 + 6*r + 12)"
    assert full["triples"] == ["2,2,2"]
    agreeing = by_entry["3,3,3"]
    assert agreeing["verdict"] == "match"
    assert agreeing["computed"] == "r^3*(r^2 - 3*r + 2)"
    assert set(agreeing["triples"]) == {"3,3,3", "3,3,0", "3,0,3", "0,3,3"}


def test_mismatching_entries_match_the_frozen_truth_instead():
    # The eight flagged classes disagree with the reference but agree with
    # the independently frozen values — the point of the honest comparison.
    for rep in MISMATCHING_REPRESENTATIVES:
        x, y, z = (int(w) for w in rep.split(","))
        assert alpha(x, y, z) == true_entry(x, y, z)
        reference = next(
            form for form in REFERENCE_FORMS if form.representative == (x, y, z)
        )
        assert alpha(x, y, z) != reference.poly(3)


# ---------------------------------------------------------------------------
# rendering


def test_table_export_shape():
    export = table_export(alpha_table(3), r_values=(2, 3))
    assert export["n_sites"] == 3
    assert len(export["entries"]) == 64
    entry = export["entries"]["3,3,3"]
    assert entry["factored"] == "r^3*(r^2 - 3*r + 2)"
    assert entry["polynomial"] == "r^5 - 3*r^4 + 2*r^3"
    assert entry["signs"] == {"2": 0, "3": 1}
    assert len(export["symmetry_classes"]) == 15
