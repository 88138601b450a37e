"""End-to-end tests of the command-line interface via subprocess."""

import argparse
import json
import math
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from brute_force import block_sum, ghs_I, pairs as brute_force_pairs, pinned_sum

MODULE = [sys.executable, "-m", "potts_ghs"]


def run_cli(*argv, **kwargs):
    return subprocess.run(
        MODULE + list(argv), capture_output=True, text=True, **kwargs
    )


def write_exact_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def load_report(path):
    return json.loads(path.read_text())


UNIFORM_2_MODEL = {
    "n_sites": 3,
    "n_states": 3,
    "mode": "exact-weights",
    "couplings": [[1, 2, 2], [1, 3, 2], [2, 3, 2]],
    "fields": [2, 2, 2],
}


# ---------------------------------------------------------------------------
# verify-ghs


def test_verify_two_states_passes(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "verify-ghs",
        "--n-sites",
        "3",
        "--r",
        "2",
        "--trials",
        "10",
        "--seed",
        "1",
        "--output",
        str(out),
    )
    assert result.returncode == 0
    assert "10/10 checks passed" in result.stdout
    report = load_report(out)
    assert report["summary"] == {
        "checks": 10,
        "passed": 10,
        "failed": 0,
        "status": "pass",
    }
    assert report["config"]["mode"] == "exact"
    for check in report["checks"]:
        assert check["witness"]["expected"] == "<=0"


def test_verify_three_states_fails_with_witnesses(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "verify-ghs",
        "--n-sites",
        "3",
        "--r",
        "3",
        "--trials",
        "5",
        "--seed",
        "1",
        "--output",
        str(out),
    )
    assert result.returncode == 1
    report = load_report(out)
    assert report["summary"]["status"] == "fail"
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing
    for check in failing:
        witness = check["witness"]
        assert witness["expected"] == ">=0"
        assert "/" in witness["value"]  # exact rational, not a float
        assert witness["weights"]["mode"] == "exact-weights"


def test_verify_float_mode_two_states():
    result = run_cli(
        "verify-ghs",
        "--n-sites",
        "3",
        "--r",
        "2",
        "--mode",
        "float",
        "--trials",
        "5",
    )
    assert result.returncode == 0


def test_verify_model_file_failing_instance(tmp_path):
    model = write_exact_model(tmp_path, UNIFORM_2_MODEL)
    out = tmp_path / "report.json"
    result = run_cli("verify-ghs", "--model", model, "--output", str(out))
    assert result.returncode == 1
    report = load_report(out)
    check = report["checks"][0]
    assert check["name"] == "curvature-sign"
    assert check["witness"]["value"] == "-1620864/1"


def test_verify_model_file_passing_instance(tmp_path):
    doc = dict(UNIFORM_2_MODEL, n_states=2)
    model = write_exact_model(tmp_path, doc)
    result = run_cli("verify-ghs", "--model", model)
    assert result.returncode == 0


# A sparse exact model at n = 11, r = 3: the chain 1-7-8, the pair 2-9, the
# field of site 10 and the isolated site 11 are pendant, and the triangle
# 4-5-6 off site 3 is summed out in series and in parallel.
SPARSE_11_MODEL = {
    "n_sites": 11,
    "n_states": 3,
    "mode": "exact-weights",
    "couplings": [
        [1, 2, "3/2"], [1, 3, 2], [2, 3, "5/4"], [3, 4, 2], [4, 5, 3], [4, 6, 2],
        [5, 6, "3/2"], [1, 7, 2], [7, 8, 3], [2, 9, "5/2"],
    ],
    "fields": [2, "3/2", 3, 1, 1, 1, 1, 1, 1, 2, 1],
}


def test_verify_sparse_model_file_sums_out_its_pendant_sites(tmp_path):
    # Exit 1: the curvature sum is negative at r = 3.  It is the brute-force
    # sum of sites 1..6 (the core and the triangle) times the cube of the
    # pendant factors t + r - 1 (r for the isolated site 11).
    out = tmp_path / "report.json"
    model = write_exact_model(tmp_path, SPARSE_11_MODEL)
    result = run_cli("verify-ghs", "--model", model, "--output", str(out))
    assert result.returncode == 1
    kept = {(i, j): t for i, j, t in SPARSE_11_MODEL["couplings"] if j <= 6}
    kept.update({(0, s): t for s, t in enumerate(SPARSE_11_MODEL["fields"][:6], 1)})
    core = [Fraction(kept.get(pair, 1)) for pair in brute_force_pairs(6)]
    factor = (2 + 2) * (3 + 2) * (Fraction(5, 2) + 2) * (2 + 2) * 3
    value = load_report(out)["checks"][0]["witness"]["value"]
    assert Fraction(value) == ghs_I(6, 3, core) * factor**3


# An exact model at n = 18, r = 2 whose blocks off the core (1, 2, 3) are not
# trees: the triangle 0-4-5 at the ghost, the 4-cycle 2-6-7-8 at site 2, the
# theta graph 1-10-9, 1-11-12-9, 1-13-9 at site 1 and the ladder with rails
# 3-14-15 and 16-17-18 and rungs 3-16, 14-17, 15-18 at site 3.  The series,
# parallel and pendant rules sum them all out, leaving the core.
BLOCKS_18_MODEL = {
    "n_sites": 18,
    "n_states": 2,
    "mode": "exact-weights",
    "couplings": [
        [1, 2, "3/2"], [1, 3, 2], [2, 3, "5/4"], [4, 5, 3],
        [2, 6, 2], [6, 7, 3], [7, 8, "5/4"], [2, 8, "7/3"],
        [1, 10, 2], [9, 10, "3/2"], [1, 11, "5/2"], [11, 12, 2], [9, 12, "4/3"],
        [1, 13, 3], [9, 13, 2],
        [3, 14, 2], [14, 15, "3/2"], [16, 17, 3], [17, 18, "5/3"],
        [3, 16, "9/4"], [14, 17, 2], [15, 18, "7/2"],
    ],
    "fields": [2, "3/2", 3, 2, "3/2"] + [1] * 13,
}


def test_verify_model_file_sums_out_blocks_that_are_not_trees(tmp_path):
    # Exit 0: the curvature sum is negative at r = 2.  Each block B meets the
    # rest at one site, so it multiplies the core's brute-force sum by
    # (Z_B / r)**3.  A full pass visits 2**18 configurations.
    out = tmp_path / "report.json"
    model = write_exact_model(tmp_path, BLOCKS_18_MODEL)
    result = run_cli("verify-ghs", "--model", model, "--output", str(out))
    assert result.returncode == 0
    pairs = {(i, j): Fraction(t) for i, j, t in BLOCKS_18_MODEL["couplings"]}
    pairs.update({(0, s): Fraction(t) for s, t in enumerate(BLOCKS_18_MODEL["fields"], 1)})
    core = [pairs.get(pair, 1) for pair in brute_force_pairs(3)]
    blocks = [
        [(0, 4), (4, 5), (0, 5)],
        [(2, 6), (6, 7), (7, 8), (2, 8)],
        [(1, 10), (9, 10), (1, 11), (11, 12), (9, 12), (1, 13), (9, 13)],
        [(3, 14), (14, 15), (16, 17), (17, 18), (3, 16), (14, 17), (15, 18)],
    ]
    factor = math.prod(block_sum(2, {p: pairs[p] for p in block}) / 2 for block in blocks)
    value = load_report(out)["checks"][0]["witness"]["value"]
    assert Fraction(value) == ghs_I(3, 2, core) * factor**3


def test_verify_requires_size_or_model():
    result = run_cli("verify-ghs")
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_verify_bad_model_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    result = run_cli("verify-ghs", "--model", str(path))
    assert result.returncode == 2


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 100000, "invalid JSON in model file"),
        (b'{"a": ' * 3000 + b"1" + b"}" * 3000, "invalid JSON in model file"),
        (b'{"n_sites": "\xff"}', "cannot read model file"),
    ],
    ids=["nested-array", "nested-object", "not-utf-8"],
)
def test_an_unparseable_model_file_is_a_usage_error(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = run_cli("verify-ghs", "--model", str(path))
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr


# Interpreters without a limit on integer strings (before 3.10.7, or with
# the limit switched off) read any digit count.
digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on integer string digits",
)


@digit_limit
def test_an_integer_past_the_digit_limit_is_a_model_file_error(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n_sites": %s, "n_states": 3, "mode": "physical"}' % ("9" * 4401))
    result = run_cli("verify-ghs", "--model", str(path))
    assert result.returncode == 2
    assert "model file integer has too many digits" in result.stderr
    assert "Traceback" not in result.stderr


@digit_limit
@pytest.mark.parametrize(
    "doc, where",
    [
        ({"couplings": [[1, 2, "9" * 5000 + "/7"]]}, "pair (1, 2)"),
        ({"fields": ["1", "9" * 5000, "1"]}, "the field of site 2"),
    ],
    ids=["pair", "field"],
)
def test_a_rational_past_the_digit_limit_names_its_key(tmp_path, doc, where):
    doc = {"n_sites": 3, "n_states": 3, "mode": "exact-weights", **doc}
    result = run_cli("verify-ghs", "--model", write_exact_model(tmp_path, doc))
    assert result.returncode == 2
    assert f"weight for {where}: " in result.stderr
    assert "too many digits" in result.stderr


# ---------------------------------------------------------------------------
# derivative


def test_derivative_exact_routes_agree(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "derivative",
        "--n-sites",
        "3",
        "--r",
        "3",
        "--i",
        "1",
        "--j",
        "2",
        "--k",
        "3",
        "--seed",
        "4",
        "--output",
        str(out),
    )
    assert result.returncode == 0
    report = load_report(out)
    names = [c["name"] for c in report["checks"]]
    assert "analytic-equals-curvature-route" in names
    assert "finite-difference-agreement" in names
    methods = [r["method"] for r in report["results"]]
    assert methods == ["analytic", "via-curvature-sum", "finite-difference"]


def test_derivative_repeated_site_uses_second_difference(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "derivative",
        "--n-sites",
        "3",
        "--r",
        "2",
        "--i",
        "1",
        "--j",
        "1",
        "--k",
        "1",
        "--output",
        str(out),
    )
    assert result.returncode == 0
    report = load_report(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["finite-difference-agreement"]


def test_derivative_float_mode():
    result = run_cli(
        "derivative",
        "--n-sites",
        "3",
        "--r",
        "3",
        "--mode",
        "float",
        "--i",
        "1",
        "--j",
        "2",
        "--k",
        "3",
    )
    assert result.returncode == 0


# ---------------------------------------------------------------------------
# expand


def test_expand_full_at_three_sites(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("expand", "--n-sites", "3", "--output", str(out))
    assert result.returncode == 0
    report = load_report(out)
    assert report["expansion"]["kind"] == "full"
    assert report["expansion"]["n_monomials"] == 1458
    assert len(report["expansion"]["monomials"]) == 1458


def test_expand_beyond_capacity():
    result = run_cli("expand", "--n-sites", "5")
    assert result.returncode == 3
    assert "capacity" in result.stderr


def test_expand_partial_with_model(tmp_path):
    model = write_exact_model(tmp_path, UNIFORM_2_MODEL)
    out = tmp_path / "report.json"
    result = run_cli(
        "expand",
        "--n-sites",
        "3",
        "--model",
        model,
        "--window",
        "2",
        "--output",
        str(out),
    )
    assert result.returncode == 0
    report = load_report(out)
    assert report["expansion"]["kind"] == "partial"
    assert report["expansion"]["window"] == 2
    check = report["checks"][0]
    assert check["name"] == "partial-expansion-evaluates-to-curvature-sum"
    assert check["witness"]["evaluated"] == check["witness"]["direct"]


def test_expand_model_size_mismatch(tmp_path):
    model = write_exact_model(tmp_path, UNIFORM_2_MODEL)
    result = run_cli("expand", "--n-sites", "4", "--model", model)
    assert result.returncode == 2
    assert result.stderr == "error: --n-sites does not match the model file\n"


def test_expand_partial_window_capacity(tmp_path):
    # A four-site model has ten pairs; the default full window exceeds the
    # dense-enumeration cap and must be refused as a capacity error.
    doc = {
        "n_sites": 4,
        "n_states": 2,
        "mode": "exact-weights",
        "couplings": [[i, j, 2] for i in range(1, 5) for j in range(i + 1, 5)],
        "fields": [2, 2, 2, 2],
    }
    model = write_exact_model(tmp_path, doc, "four.json")
    result = run_cli("expand", "--n-sites", "4", "--model", model)
    assert result.returncode == 3
    result = run_cli("expand", "--n-sites", "4", "--model", model, "--window", "3")
    assert result.returncode == 0


def test_expand_takes_its_size_from_the_model_file(tmp_path):
    model = write_exact_model(tmp_path, UNIFORM_2_MODEL)
    code, report = run_main(tmp_path, ["expand", "--model", model, "--window", "2"])
    assert code == 0
    sized_code, sized = run_main(
        tmp_path, ["expand", "--n-sites", "3", "--model", model, "--window", "2"]
    )
    assert sized_code == 0
    # Only the echoed flag differs: the run without it reads null.
    assert report["config"] == dict(sized["config"], n_sites=None)
    for r in (report, sized):
        del r["config"], r["timing"]
    assert report == sized


def test_expand_needs_a_size_or_a_model_file(capsys):
    from potts_ghs import cli

    assert cli.main(["expand"]) == 2
    assert capsys.readouterr().err == "error: expand needs --n-sites or --model\n"


def test_expand_window_needs_a_model():
    result = run_cli("expand", "--n-sites", "3", "--window", "3")
    assert result.returncode == 2
    assert "--window" in result.stderr


@pytest.mark.parametrize("n_sites", [1, 2])
def test_expand_on_fewer_than_three_sites_names_the_curvature_sum(tmp_path, n_sites):
    doc = {
        "n_sites": n_sites,
        "n_states": 3,
        "mode": "exact-weights",
        "couplings": [[1, 2, 2]] if n_sites == 2 else [],
        "fields": [2] * n_sites,
    }
    model = write_exact_model(tmp_path, doc, "small.json")
    result = run_cli("expand", "--n-sites", str(n_sites), "--model", model)
    assert result.returncode == 2
    assert "the curvature sum needs n_sites >= 3" in result.stderr


# ---------------------------------------------------------------------------
# separation-check


def test_separation_exhaustive_fails_honestly(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "separation-check",
        "--n-sites",
        "3",
        "--mode",
        "exhaustive",
        "--output",
        str(out),
    )
    assert result.returncode == 1
    report = load_report(out)
    check = report["checks"][0]
    assert check["name"] == "separation-exhaustive"
    assert check["status"] == "fail"
    assert check["witness"]["mismatch_count"] == 3402
    assert check["witness"]["first_mismatch"]["monomial"] == [[0, 1], [3, 1], [4, 1]]


def test_separation_exhaustive_wrong_size():
    result = run_cli("separation-check", "--n-sites", "4", "--mode", "exhaustive")
    assert result.returncode == 3
    assert "capacity" in result.stderr


@pytest.mark.parametrize("n_sites, code", [(2, 2), (4, 3)])
@pytest.mark.parametrize(
    "argv",
    [["expand"], ["separation-check", "--mode", "exhaustive"]],
    ids=["expand", "separation-exhaustive"],
)
def test_the_three_site_symbolic_routes_share_exit_codes(capsys, argv, n_sites, code):
    # Fewer than three sites is a usage error, more is past capacity.
    from potts_ghs import cli

    assert cli.main(argv + ["--n-sites", str(n_sites)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:" if code == 2 else "capacity error:")


def test_separation_random_eval(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "separation-check",
        "--n-sites",
        "4",
        "--mode",
        "random-eval",
        "--r",
        "3",
        "--trials",
        "3",
        "--output",
        str(out),
    )
    assert result.returncode == 1
    report = load_report(out)
    witness = report["checks"][0]["witness"]
    assert len(witness["failures"]) == 3
    assert witness["failures"][0]["separated"] != witness["failures"][0]["direct"]


def test_separation_random_eval_needs_r():
    result = run_cli("separation-check", "--n-sites", "3", "--mode", "random-eval")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "extra, flag",
    [
        ([], "--r"),
        (["--r", "3", "--trials", "0"], "--trials"),
        (["--r", "3", "--trials", "-2"], "--trials"),
    ],
    ids=["no-r", "zero-trials", "negative-trials"],
)
def test_separation_random_eval_names_the_flag_it_refuses(tmp_path, capsys, extra, flag):
    argv = ["separation-check", "--n-sites", "3", "--mode", "random-eval"] + extra
    assert run_main(tmp_path, argv) == (2, None)
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--r", "--trials", "--seed"])
def test_separation_exhaustive_refuses_the_random_eval_flags(tmp_path, capsys, flag):
    argv = ["separation-check", "--n-sites", "3", "--mode", "exhaustive", flag, "1"]
    assert run_main(tmp_path, argv) == (2, None)
    assert flag in capsys.readouterr().err


def test_separation_exhaustive_refuses_r_before_judging_capacity(tmp_path, capsys):
    argv = ["separation-check", "--n-sites", "5", "--mode", "exhaustive", "--r", "1000"]
    assert run_main(tmp_path, argv) == (2, None)
    err = capsys.readouterr().err
    assert "--r" in err
    assert "capacity" not in err


def test_separation_configs_echo_only_the_flags_a_mode_uses(tmp_path):
    code, report = run_main(
        tmp_path, ["separation-check", "--n-sites", "3", "--mode", "exhaustive"]
    )
    assert code == 1
    assert report["config"] == {
        "n_sites": 3, "mode": "exhaustive", "r": None, "trials": None, "seed": None,
    }
    argv = ["separation-check", "--n-sites", "3", "--mode", "random-eval", "--r", "2"]
    code, report = run_main(tmp_path, argv)
    assert report["config"] == {
        "n_sites": 3, "mode": "random-eval", "r": 2, "trials": 50, "seed": 0,
    }
    assert report["checks"][0]["witness"]["trials"] == 50
    code, report = run_main(tmp_path, argv + ["--trials", "2", "--seed", "9"])
    assert (report["config"]["trials"], report["config"]["seed"]) == (2, 9)
    # The witness carries only what the check found; the run is in config.
    assert set(report["checks"][0]["witness"]) == {"failures", "trials"}
    assert report["checks"][0]["witness"]["trials"] == 2


# ---------------------------------------------------------------------------
# alpha-table


def test_alpha_table_signs_pass(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("alpha-table", "--output", str(out))
    assert result.returncode == 0
    report = load_report(out)
    assert report["config"]["r_values"] == [2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert len(report["checks"]) == 9
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["sign_report"]["dichotomy_holds"] is True
    assert len(report["table"]["entries"]) == 64


def test_alpha_table_prints_table_without_output():
    result = run_cli("alpha-table", "--r-values", "2,3")
    assert result.returncode == 0
    assert "x,y,z  entry" in result.stdout
    assert "r^3*(r^2 - 3*r + 2)" in result.stdout


def test_alpha_table_reference_comparison_flags_mismatches(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "alpha-table", "--r-values", "2,3", "--compare-paper", "--output", str(out)
    )
    assert result.returncode == 1
    report = load_report(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["reference-coverage"]["status"] == "pass"
    assert by_name["core-oracle-agreement"]["status"] == "pass"
    mismatch_names = {
        name
        for name, check in by_name.items()
        if name.startswith("reference-") and check["status"] == "fail"
    }
    assert mismatch_names == {
        "reference-322",
        "reference-321",
        "reference-320",
        "reference-311",
        "reference-222",
        "reference-221",
        "reference-220",
        "reference-211",
    }
    assert report["reference_comparison"]["mismatches"] == 8


def test_alpha_table_bad_r_values():
    result = run_cli("alpha-table", "--r-values", "2,x")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "argv, repeated",
    [
        (("sweep", "--n-sites-list", "3,3", "--r-list", "2", "--trials", "1"), 3),
        (("sweep", "--n-sites-list", "3", "--r-list", "2,3,2", "--trials", "1"), 2),
        (("alpha-table", "--r-values", "3,3,2"), 3),
    ],
    ids=["n-sites-list", "r-list", "r-values"],
)
def test_repeated_list_values_are_usage_errors(argv, repeated):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert f"repeated value {repeated}" in result.stderr


# ---------------------------------------------------------------------------
# sweep


def test_sweep_two_states_passes(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "sweep",
        "--n-sites-list",
        "3,4",
        "--r-list",
        "2",
        "--trials",
        "5",
        "--output",
        str(out),
    )
    assert result.returncode == 0
    report = load_report(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["cell-n3-r2", "cell-n4-r2"]


def test_sweep_mixed_states_fails():
    result = run_cli(
        "sweep", "--n-sites-list", "3", "--r-list", "2,3", "--trials", "5"
    )
    assert result.returncode == 1
    assert "[fail] cell-n3-r3" in result.stdout


def test_sweep_rejects_small_sizes():
    result = run_cli("sweep", "--n-sites-list", "2", "--r-list", "2")
    assert result.returncode == 2


def test_sweep_failures_carry_replayable_witnesses(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "sweep", "--n-sites-list", "3", "--r-list", "3", "--trials", "2",
        "--output", str(out),
    )
    assert result.returncode == 1
    failures = load_report(out)["checks"][0]["witness"]["failures"]
    assert failures
    for failure in failures:
        model = write_exact_model(tmp_path, failure["weights"], "replay.json")
        replay = run_cli("verify-ghs", "--model", model, "--output", str(out))
        assert replay.returncode == 1
        witness = load_report(out)["checks"][0]["witness"]
        assert witness["instance"] == failure["instance"]
        assert witness["value"] == failure["value"]


# ---------------------------------------------------------------------------
# input validation and work bounds


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_non_positive_trials(trials):
    result = run_cli("verify-ghs", "--n-sites", "4", "--r", "3", "--trials", trials)
    assert result.returncode == 2
    assert "--trials" in result.stderr


def test_sweep_rejects_zero_trials():
    result = run_cli("sweep", "--n-sites-list", "3", "--r-list", "3", "--trials", "0")
    assert result.returncode == 2
    assert "--trials" in result.stderr


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make every curvature computation the CLI calls fail the test."""
    from potts_ghs import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration started")

    for name in (
        "ghs_sum",
        "evaluate_separated",
        "_triple_pass",
        "second_derivative_fd",
    ):
        monkeypatch.setattr(cli, name, forbidden)
    return cli


def test_an_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    from potts_ghs import cli

    def broken(args):
        raise RuntimeError("handler broke\non two lines")

    monkeypatch.setattr(cli, "_cmd_verify_ghs", broken)
    assert cli.main(["verify-ghs", "--n-sites", "3", "--r", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: handler broke on two lines\n"
    assert captured.out == ""


def test_calls_in_one_interpreter_match_calls_in_fresh_processes(tmp_path, monkeypatch, capsys):
    from potts_ghs import cli

    # argparse wraps its usage lines to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    model = write_exact_model(tmp_path, UNIFORM_2_MODEL)
    out = tmp_path / "report.json"
    to_file = ["--output", str(out)]
    sequence = [
        ["sweep", "--n-sites-list", "3", "--r-list", "2,3", "--trials", "2", *to_file],
        ["verify-ghs", "--model", model, *to_file],
        ["derivative", "--model", model, "--i", "1", "--j", "2", "--k", "3", *to_file],
        ["verify-ghs", "--n-sites", "4", "--r", "2", "--trials", "3", "--seed", "5", *to_file],
        ["expand", "--model", model, "--window", "2", *to_file],
        ["verify-ghs", "--mode", "bogus"],
        ["alpha-table", "--r-values", "2,3"],
    ]

    def outcome(code, stdout, stderr):
        written = None
        if out.exists():
            written = load_report(out)
            del written["timing"]
            out.unlink()
        return code, stdout, stderr, written

    alone = []
    for argv in sequence:
        result = run_cli(*argv)
        alone.append(outcome(result.returncode, result.stdout, result.stderr))

    builds = []
    build_parser = cli.build_parser

    def counted_build():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", counted_build)
    together = []
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        together.append(outcome(code, captured.out, captured.err))

    assert len(builds) == 1
    assert [o[0] for o in alone] == [1, 1, 0, 0, 0, 2, 0]
    assert together == alone


def test_sweep_checks_every_cell_before_the_first_runs(no_enumeration):
    argv = ["sweep", "--n-sites-list", "3,2", "--r-list", "3"]
    assert no_enumeration.main(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-ghs", "--n-sites", "12", "--r", "5"],
        ["verify-ghs", "--n-sites", "12", "--r", "5", "--mode", "float"],
        ["derivative", "--n-sites", "12", "--r", "5", "--i", "1", "--j", "2", "--k", "3"],
        ["sweep", "--n-sites-list", "3,12", "--r-list", "5"],
    ],
)
def test_oversized_requests_exit_before_any_work(no_enumeration, capsys, argv):
    start = time.perf_counter()
    assert no_enumeration.main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-ghs", "--n-sites", "3", "--r", "2", "--trials", "100000000"],
        ["sweep", "--n-sites-list", "3", "--r-list", "2", "--trials", "100000000"],
        ["separation-check", "--n-sites", "3", "--mode", "random-eval", "--r", "2",
         "--trials", "100000000"],
    ],
    ids=["verify-ghs", "sweep", "separation-check"],
)
def test_a_run_past_the_total_work_bound_exits_before_any_work(
    no_enumeration, capsys, argv
):
    # Each instance is small; 10**8 trials of 2**4 configurations are not.
    start = time.perf_counter()
    assert no_enumeration.main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-ghs", "--n-sites", "2", "--r", "1000"],
        ["sweep", "--n-sites-list", "2", "--r-list", "1000"],
        ["separation-check", "--n-sites", "2", "--mode", "random-eval", "--r", "1000"],
        ["alpha-table", "--n-sites", "2"],
        ["expand", "--n-sites", "2"],
        ["separation-check", "--n-sites", "2", "--mode", "exhaustive"],
        ["verify-ghs", "--model", "@exact"],
        ["verify-ghs", "--model", "@physical"],
        ["alpha-table", "--n-sites", "0"],
        ["alpha-table", "--n-sites", "-1"],
        ["expand", "--n-sites", "0"],
        ["expand", "--n-sites", "-1"],
        ["verify-ghs", "--n-sites", "0", "--r", "1000"],
        ["separation-check", "--n-sites", "-1", "--mode", "exhaustive"],
    ],
    ids=[
        "verify-ghs", "sweep", "separation-check", "alpha-table", "expand",
        "separation-exhaustive", "verify-ghs-exact-model", "verify-ghs-physical-model",
        "alpha-table-zero", "alpha-table-negative", "expand-zero", "expand-negative",
        "verify-ghs-zero", "separation-exhaustive-negative",
    ],
)
def test_seeded_runs_refuse_a_size_below_the_triple_before_capacity(
    no_enumeration, tmp_path, capsys, argv
):
    # 1000**3 configurations would exceed the bound, but a size without the
    # site triple (1, 2, 3) is refused first, the same way by every seeded run;
    # every other route that reads the triple refuses it with the same line.
    if argv[-1].startswith("@"):
        mode = {"@exact": "exact-weights", "@physical": "physical"}[argv[-1]]
        doc = {"n_sites": 2, "n_states": 3, "mode": mode, "couplings": [[1, 2, 2]]}
        argv = argv[:-1] + [write_exact_model(tmp_path, doc, "two-sites.json")]
    assert no_enumeration.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: the curvature sum needs n_sites >= 3\n"


@pytest.mark.parametrize("source", ["flags", "exact-weights", "physical"])
def test_the_three_site_rule_comes_before_the_work_bound_in_every_form(
    no_enumeration, tmp_path, capsys, source
):
    # 1000**3 configurations exceed the bound, but the flags and a model
    # file of either pipeline refuse the size without the triple first.
    if source == "flags":
        argv = ["verify-ghs", "--n-sites", "2", "--r", "1000"]
    else:
        doc = {"n_sites": 2, "n_states": 1000, "mode": source, "couplings": [[1, 2, 2]]}
        argv = ["verify-ghs", "--model", write_exact_model(tmp_path, doc)]
    assert no_enumeration.main(argv) == 2
    assert capsys.readouterr().err == "error: the curvature sum needs n_sites >= 3\n"


def test_a_derivative_needs_no_third_site(tmp_path, capsys):
    # The derivative reads only the sites it is given, so two sites suffice;
    # a site past n_sites is named, not the three-site rule.
    argv = ["derivative", "--n-sites", "2", "--r", "3", "--i", "1", "--j", "2", "--k", "2"]
    code, report = run_main(tmp_path, argv)
    assert code == 0
    assert report["results"][0]["site_triple"] == [1, 2, 2]
    assert run_main(tmp_path, argv[:-1] + ["3"]) == (2, None)
    assert capsys.readouterr().err == "error: site 3 out of range for n_sites=2\n"


def test_the_total_work_bound_sums_the_cells_of_a_sweep(no_enumeration, capsys):
    # 3 * 10**6 trials of 2**4 or 2**5 configurations are within the bound
    # in either cell alone, not over both.
    for cell in ((3, 2), (4, 2)):
        no_enumeration._check_total(3_000_000, [cell])
    argv = ["sweep", "--n-sites-list", "3,4", "--r-list", "2", "--trials", "3000000"]
    assert no_enumeration.main(argv) == 3
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-ghs", "--n-sites", "3", "--r", "-40", "--trials", "1"],
        ["sweep", "--n-sites-list", "3", "--r-list", "-40", "--trials", "1"],
        ["derivative", "--n-sites", "3", "--r", "-40", "--i", "1", "--j", "2", "--k", "3"],
        ["separation-check", "--n-sites", "4", "--mode", "random-eval", "--r", "-40"],
    ],
    ids=["verify-ghs", "sweep", "derivative", "separation-check"],
)
def test_a_state_count_below_two_is_a_usage_error(no_enumeration, capsys, argv):
    # A negative r must not reach the capacity bound, where (-40)**4 reads
    # as too large and (-40)**5 as small enough.
    assert no_enumeration.main(argv) == 2
    assert "at least 2 states" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--n-sites", "2000"],
        ["alpha-table", "--n-sites", "2000"],
        ["verify-ghs", "--model", "@model"],
    ],
    ids=["expand", "alpha-table", "verify-ghs-model"],
)
def test_oversized_site_counts_exit_before_the_pair_list(tmp_path, capsys, argv):
    # The pair list has C(N+1, 2) entries, about 2 million at N = 2000.
    from potts_ghs import cli

    doc = {"n_sites": 2000, "n_states": 3, "mode": "exact-weights"}
    model = write_exact_model(tmp_path, doc, "big.json")
    argv = [model if arg == "@model" else arg for arg in argv]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10 * 2**20
    assert "capacity" in capsys.readouterr().err


def test_a_physical_model_file_caps_its_site_count_before_it_allocates(tmp_path):
    # Zero fields for 10**9 sites would be an 8 GB tuple.  The run gets its
    # own process under a 1.5 GB address-space limit, so that a regression
    # ends in a MemoryError rather than in that allocation.
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))

    doc = {"n_sites": 10**9, "n_states": 2, "mode": "physical"}
    model = write_exact_model(tmp_path, doc, "huge.json")
    start = time.perf_counter()
    result = run_cli("verify-ghs", "--model", model, preexec_fn=limit_memory)
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 3
    assert "exceeds the supported 64 sites" in result.stderr


def physical_model(tmp_path, coupling, field=0.0):
    doc = {
        "n_sites": 3,
        "n_states": 3,
        "mode": "physical",
        "couplings": [[1, 2, coupling], [1, 3, coupling], [2, 3, coupling]],
        "fields": [field] * 3,
    }
    # json.dumps writes a NaN coupling as the non-standard literal NaN,
    # which Python's json module reads back.
    return write_exact_model(tmp_path, doc, "physical.json")


def test_physical_model_with_nan_coupling_is_rejected(tmp_path):
    model = physical_model(tmp_path, float("nan"))
    out = tmp_path / "report.json"
    result = run_cli("verify-ghs", "--model", model, "--output", str(out))
    assert result.returncode == 2
    assert "non-finite" in result.stderr
    assert not out.exists()


def test_float_overflow_of_the_sum_falls_back_to_exact_sums(tmp_path):
    # e**200 is a finite double, but products of six such weights are not;
    # the float route sums the same doubles exactly instead of exiting 3.
    model = physical_model(tmp_path, 200.0, 200.0)
    tw = [math.exp(200.0)] * 6
    expected = float(ghs_I(3, 3, tw) / (3**3 * pinned_sum(3, 3, tw) ** 3))
    code, report = run_main(tmp_path, ["verify-ghs", "--model", model])
    assert code == 0
    assert report["checks"][0]["witness"]["value"] == expected
    argv = ["derivative", "--model", model, "--i", "1", "--j", "2", "--k", "3"]
    code, report = run_main(tmp_path, argv)
    assert code == 0
    assert report["results"][0]["value"] == expected


@pytest.mark.parametrize(
    "coupling, field, route",
    [(200.0, 200.0, "exact-fallback"), (0.5, 0.0, "float")],
    ids=["overflowing-sum", "double-range"],
)
def test_the_float_witness_names_its_route(tmp_path, coupling, field, route):
    # README's overflow file (couplings and fields of 200, N = 3, r = 3)
    # takes the exact fallback; a file whose sums stay in double range
    # takes the float pass.  Both pass the sign check.
    model = physical_model(tmp_path, coupling, field)
    code, report = run_main(tmp_path, ["verify-ghs", "--model", model])
    assert code == 0
    (check,) = report["checks"]
    assert check["name"] == "curvature-sign-float"
    assert check["witness"]["route"] == route


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n-sites-list", "3", "--r-list", "3", "--trials", "3"],
        ["verify-ghs", "--n-sites", "5", "--r", "3", "--trials", "4"],
    ],
    ids=["sweep", "verify-ghs"],
)
def test_float_failures_carry_replayable_model_files(tmp_path, argv):
    code, report = run_main(tmp_path, argv + ["--mode", "float"])
    assert code == 1
    if argv[0] == "sweep":
        failures = report["checks"][0]["witness"]["failures"]
    else:
        failures = [c["witness"] for c in report["checks"] if c["status"] == "fail"]
    assert failures
    for failure in failures:
        assert failure["route"] == "float"
        assert failure["weights"]["mode"] == "physical"
        model = write_exact_model(tmp_path, failure["weights"], "replay.json")
        code, replay = run_main(tmp_path, ["verify-ghs", "--model", model])
        assert code == 1
        witness = replay["checks"][0]["witness"]
        assert witness["value"].hex() == failure["value"].hex()
        assert witness["route"] == failure["route"]


@pytest.mark.parametrize(
    "argv",
    [["verify-ghs"], ["derivative", "--i", "1", "--j", "2", "--k", "3"]],
)
def test_overflowing_weight_is_a_capacity_error(tmp_path, argv):
    model = physical_model(tmp_path, 800.0)
    result = run_cli(*argv, "--model", model)
    assert result.returncode == 3
    assert "capacity" in result.stderr
    assert "Traceback" not in result.stderr


def test_coupling_beyond_the_decimal_exponent_range_is_a_capacity_error(tmp_path):
    # e**1e308 overflows even the decimal exponent range of the
    # finite-difference oracle, which runs first.
    model = physical_model(tmp_path, 1e308)
    result = run_cli("derivative", "--i", "1", "--j", "2", "--k", "3", "--model", model)
    assert result.returncode == 3
    assert "capacity" in result.stderr and "oracle" in result.stderr
    assert "Traceback" not in result.stderr


def test_derivative_rejects_nan_step():
    result = run_cli(
        "derivative", "--n-sites", "3", "--r", "3",
        "--i", "1", "--j", "2", "--k", "3", "--h-step", "nan",
    )
    assert result.returncode == 2
    assert "step" in result.stderr


@pytest.mark.parametrize("h", ["1e-320", "700"])
def test_derivative_refuses_a_step_outside_the_stencil_range(h):
    result = run_cli(
        "derivative", "--n-sites", "4", "--r", "3",
        "--i", "1", "--j", "2", "--k", "3", "--seed", "4", "--h-step", h,
    )
    assert result.returncode == 2
    assert "step" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_derivative_refuses_a_bad_step_before_the_exact_routes(monkeypatch, capsys, mode):
    from potts_ghs import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact route ran before the step was checked")

    monkeypatch.setattr(cli, "_triple_pass", forbidden)
    argv = ["derivative", "--n-sites", "4", "--r", "3", "--mode", mode, "--seed", "4"]
    argv += ["--i", "1", "--j", "2", "--k", "3", "--h-step", "700"]
    assert cli.main(argv) == 2
    assert "step" in capsys.readouterr().err


def test_derivative_takes_an_exact_weight_beyond_the_float_range(tmp_path):
    doc = {
        "n_sites": 3,
        "n_states": 3,
        "mode": "exact-weights",
        "couplings": [[1, 2, "3/2"], [1, 3, "5/4"], [2, 3, str(10**400)]],
        "fields": ["2", "3/2", "7/5"],
    }
    out = tmp_path / "report.json"
    result = run_cli(
        "derivative", "--model", write_exact_model(tmp_path, doc),
        "--i", "1", "--j", "2", "--k", "3", "--output", str(out),
    )
    assert result.returncode == 0, result.stderr
    checks = load_report(out)["checks"]
    assert [c["status"] for c in checks] == ["pass", "pass"]


# ---------------------------------------------------------------------------
# --model runs: the file replaces the trial flags


def run_main(tmp_path, argv):
    """Run the CLI in-process; return its exit code and, when a report was
    written, the report."""
    from potts_ghs import cli

    out = tmp_path / "report.json"
    if out.exists():
        out.unlink()
    code = cli.main(argv + ["--output", str(out)])
    return code, load_report(out) if out.exists() else None


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["derivative", "--n-sites", "7", "--r", "9", "--mode", "float", "--seed", "5"],
         "--n-sites"),
        (["derivative", "--seed", "5"], "--seed"),
        (["derivative", "--mode", "float"], "--mode float"),
        (["verify-ghs", "--n-sites", "7", "--r", "2", "--trials", "5"], "--n-sites"),
        (["verify-ghs", "--r", "2"], "--r"),
        (["verify-ghs", "--trials", "5"], "--trials"),
        (["verify-ghs", "--mode", "float"], "--mode float"),
        (["verify-ghs", "--mode", "exact", "@physical"], "--mode exact"),
    ],
    ids=[
        "derivative-all-flags", "derivative-seed", "derivative-mode",
        "verify-three-flags", "verify-r", "verify-trials", "verify-mode",
        "verify-physical-exact-mode",
    ],
)
def test_model_runs_refuse_the_flags_the_file_replaces(tmp_path, capsys, argv, flag):
    if argv[-1] == "@physical":
        model = physical_model(tmp_path, 0.5)
        argv = argv[:-1]
    else:
        model = write_exact_model(tmp_path, UNIFORM_2_MODEL)
    if argv[0] == "derivative":
        argv = argv + ["--i", "1", "--j", "2", "--k", "3"]
    code, report = run_main(tmp_path, argv + ["--model", model])
    assert (code, report) == (2, None)
    assert flag in capsys.readouterr().err


def test_model_configs_report_the_pipeline_that_ran(tmp_path):
    exact = write_exact_model(tmp_path, dict(UNIFORM_2_MODEL, n_states=2))
    physical = physical_model(tmp_path, 0.5)
    triple = ["--i", "1", "--j", "2", "--k", "3"]
    # The benchmark's argv shapes, including its --mode exact on exact files.
    code, report = run_main(tmp_path, ["verify-ghs", "--model", exact])
    assert code == 0
    assert report["config"] == {
        "model": exact, "n_sites": None, "r": None, "mode": "exact", "trials": None, "seed": None,
    }
    code, report = run_main(tmp_path, ["derivative", "--model", exact, "--mode", "exact"] + triple)
    assert code == 0
    assert report["config"]["mode"] == "exact"
    code, report = run_main(tmp_path, ["verify-ghs", "--model", physical, "--mode", "float"])
    assert code == 0
    assert report["config"]["mode"] == "float"
    code, report = run_main(tmp_path, ["derivative", "--model", physical] + triple)
    assert code == 0
    assert report["config"] == {
        "model": physical,
        "n_sites": None,
        "r": None,
        "mode": "float",
        "seed": None,
        "i": 1,
        "j": 2,
        "k": 3,
        "h_step": 1e-4,
    }
    assert all(r["site_triple"] == [1, 2, 3] for r in report["results"])


def subcommand_flags(command):
    """The destinations of a subcommand's flags, read from the parser."""
    from potts_ghs import cli

    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["verify-ghs", "--model", None], {"n_sites", "r", "trials", "seed"}),
        (["verify-ghs", "--n-sites", "3", "--r", "2", "--trials", "2"], {"model"}),
        (
            ["derivative", "--n-sites", "3", "--r", "2", "--i", "1", "--j", "2", "--k", "3"],
            {"model"},
        ),
        (["expand", "--n-sites", "3"], {"model", "window"}),
        (["expand", "--n-sites", "3", "--model", None], set()),
        (["separation-check", "--n-sites", "3", "--mode", "exhaustive"], {"r", "trials", "seed"}),
        (["alpha-table", "--n-sites", "3", "--r-values", "2,3"], set()),
        (["sweep", "--n-sites-list", "3", "--r-list", "2", "--trials", "2"], set()),
    ],
    ids=[
        "verify-ghs-model", "verify-ghs-seeded", "derivative", "expand",
        "expand-model", "separation-check", "alpha-table", "sweep",
    ],
)
def test_a_config_echoes_every_flag_of_its_subcommand(tmp_path, argv, unused):
    argv = [write_exact_model(tmp_path, UNIFORM_2_MODEL) if a is None else a for a in argv]
    code, report = run_main(tmp_path, argv)
    assert code in (0, 1)
    config = report["config"]
    assert set(config) == subcommand_flags(argv[0]) - {"output"}
    assert {name for name, value in config.items() if value is None} == unused


@pytest.mark.parametrize("command", ["verify-ghs", "derivative"])
@pytest.mark.parametrize("size", [["--n-sites", "3"], ["--r", "3"], []])
def test_trial_runs_need_a_model_or_both_size_flags(tmp_path, capsys, command, size):
    argv = [command] + size
    if command == "derivative":
        argv += ["--i", "1", "--j", "2", "--k", "3"]
    assert run_main(tmp_path, argv) == (2, None)
    assert f"{command} needs --model or both --n-sites and --r" in capsys.readouterr().err


def test_trial_configs_read_the_defaults(tmp_path):
    argv = ["verify-ghs", "--n-sites", "3", "--r", "2"]
    code, report = run_main(tmp_path, argv)
    assert code == 0
    assert len(report["checks"]) == 100
    assert report["config"] == {
        "model": None, "n_sites": 3, "r": 2, "mode": "exact", "trials": 100, "seed": 0,
    }
    argv = ["derivative", "--n-sites", "3", "--r", "3", "--i", "1", "--j", "2", "--k", "3"]
    code, report = run_main(tmp_path, argv)
    assert code == 0
    assert (report["config"]["mode"], report["config"]["seed"]) == ("exact", 0)


# ---------------------------------------------------------------------------
# report plumbing


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.strip() == "0.1.0"


def test_unknown_subcommand_is_usage_error():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_unwritable_output_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "report.json"
    result = run_cli(
        "alpha-table", "--n-sites", "3", "--r-values", "3", "--output", str(out)
    )
    assert result.returncode == 2
    assert "cannot write report" in result.stderr
    assert "Traceback" not in result.stderr


def test_reports_are_deterministic_apart_from_timing(tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = run_cli(
            "verify-ghs",
            "--n-sites",
            "3",
            "--r",
            "2",
            "--trials",
            "3",
            "--seed",
            "9",
            "--output",
            str(out),
        )
        assert result.returncode == 0
        report = load_report(out)
        report.pop("timing")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_report_shape(tmp_path):
    out = tmp_path / "report.json"
    run_cli(
        "verify-ghs",
        "--n-sites",
        "3",
        "--r",
        "2",
        "--trials",
        "2",
        "--output",
        str(out),
    )
    report = load_report(out)
    assert report["tool"] == {"name": "potts-ghs", "version": "0.1.0"}
    assert report["command"] == "verify-ghs"
    assert set(report) == {
        "tool",
        "command",
        "config",
        "checks",
        "summary",
        "timing",
    }
    assert isinstance(report["timing"]["seconds"], float)
