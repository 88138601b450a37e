"""The package's public names."""
import potts_ghs


def test_every_export_resolves_once():
    names = potts_ghs.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(potts_ghs, name), name


def test_export_list_is_pinned():
    # A change to the public names must show up in this list.
    assert sorted(potts_ghs.__all__) == [
        "AlphaTable",
        "CapacityError",
        "ConstraintMatrix",
        "GHS_TERMS",
        "GhostWeightVector",
        "LaurentPoly",
        "ModelFileError",
        "ModelSpec",
        "REFERENCE_FORMS",
        "SeparatedForm",
        "XPoly",
        "alpha",
        "alpha_table",
        "assemble_separated",
        "block_count",
        "compare_reference",
        "constrained_sum",
        "dump_weights",
        "evaluate_separated",
        "expand_full",
        "expand_partial",
        "ghs_sum",
        "instance_digest",
        "load_model",
        "matrix_coefficient",
        "merge_constraints",
        "monomial_key",
        "pair_order",
        "parse_rational",
        "random_model",
        "random_weights",
        "rational_str",
        "reduced_expansion",
        "relabel_sites",
        "second_derivative_analytic",
        "second_derivative_fd",
        "second_derivative_float",
        "second_derivative_via_sum",
        "separated_form",
        "separation_check",
        "sign_report",
        "table_export",
        "trial_rng",
        "xpoly_eval",
        "xpoly_records",
    ]
