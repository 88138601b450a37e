"""The package's public names and its runtime dependencies."""
import json
import subprocess
import sys

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
        "GhostWeightVector",
        "LaurentPoly",
        "ModelFileError",
        "ModelSpec",
        "SeparatedForm",
        "XPoly",
        "alpha_table",
        "compare_reference",
        "dump_model",
        "evaluate_separated",
        "expand_full",
        "expand_partial",
        "ghs_sum",
        "load_model",
        "random_model",
        "random_weights",
        "second_derivative_analytic",
        "second_derivative_fd",
        "second_derivative_float",
        "second_derivative_via_sum",
        "separated_form",
        "separation_check",
        "sign_report",
        "trial_rng",
    ]


# Runs the CLI with every import of mpmath failing; argv lists come from argv[1].
STDLIB_ONLY = """
import json, sys
sys.modules["mpmath"] = None
from potts_ghs import cli
sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_the_cli_runs_on_the_standard_library_alone(tmp_path):
    model = tmp_path / "physical.json"
    model.write_text(json.dumps({
        "n_sites": 3,
        "n_states": 3,
        "mode": "physical",
        "couplings": [[1, 2, 0.5], [1, 3, 1.0], [2, 3, 1.5]],
        "fields": [0.25, 0.5, 0.75],
    }))
    triple = ["--i", "1", "--j", "2", "--k", "3"]
    argvs = [
        ["derivative", "--n-sites", "4", "--r", "3", "--seed", "4"] + triple,
        ["derivative", "--model", str(model)] + triple,
        ["verify-ghs", "--n-sites", "3", "--r", "2", "--mode", "float", "--trials", "5"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY, json.dumps(argvs)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("checks passed (pass)") == 3
