"""What the benchmark reads from a CLI report, and how it checks it.

``project`` runs in the worker right after a job and keeps only the fields
a check needs, so fields that later versions add to a report (outside or
inside ``timing``) are never compared.  ``expected`` and ``verdict`` run in
the parent process, outside the timed region.  Every report must agree with
its own exit code and verdicts; seed-independent answers are compared with
``golden.json``, and the seed-dependent answers of a seeded sample of jobs
are recomputed with the brute-force enumerator in ``oracle.py``.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import oracle

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# verify-ghs --mode float accepts values down to -FLOAT_SIGN_TOL at r >= 3;
# a float value may differ from the exact reference by FLOAT_VALUE_TOL.
FLOAT_SIGN_TOL = 1e-12
FLOAT_VALUE_TOL = 1e-9


def monomial_digest(records: list) -> str:
    """sha256 of the canonical JSON of a report's monomial records."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def project(kind: str, report: dict) -> dict:
    """The part of a report that the check for ``kind`` compares."""
    checks = report.get("checks", [])
    if kind == "sign-model":
        check = checks[0]
        return {"status": check["status"], "value": check["witness"]["value"]}
    if kind == "sweep":
        return {
            check["name"]: {
                "status": check["status"],
                "failures": [[f["trial"], f["value"]] for f in check["witness"]["failures"]],
            }
            for check in checks
        }
    if kind == "derivative":
        values = {r["method"]: r["value"] for r in report["results"]}
        return {
            "analytic": values["analytic"],
            "via": values["via-curvature-sum"],
            "statuses": sorted((c["name"], c["status"]) for c in checks),
        }
    if kind == "float-verify":
        return {c["name"]: [c["status"], c["witness"]["value"]] for c in checks}
    if kind == "expand-full":
        monomials = report["expansion"]["monomials"]
        return {"n_monomials": len(monomials), "sha256": monomial_digest(monomials)}
    if kind == "expand-partial":
        witness = checks[0]["witness"]
        return {
            "status": checks[0]["status"],
            "evaluated": witness["evaluated"],
            "direct": witness["direct"],
            "monomials": [
                [m["exponents"], m["coefficient"]] for m in report["expansion"]["monomials"]
            ],
        }
    if kind == "separation-exhaustive":
        witness = checks[0]["witness"]
        return {
            "mismatch_count": witness["mismatch_count"],
            "monomials_compared": witness["monomials_compared"],
        }
    if kind == "separation-random":
        witness = checks[0]["witness"]
        return {
            "trials": witness["trials"],
            "failures": [[f["trial"], f["weights"], f["direct"]] for f in witness["failures"]],
        }
    if kind == "alpha":
        comparison = report["reference_comparison"]
        return {
            "entries": {k: e["polynomial"] for k, e in report["table"]["entries"].items()},
            "classes": len(comparison["classes"]),
            "mismatched": sorted(
                c["entry"] for c in comparison["classes"] if c["verdict"] == "mismatch"
            ),
        }
    raise ValueError(f"unknown job kind {kind!r}")


# -- expected answers ----------------------------------------------------------


def _sign_ok(value, n_states: int, tol: float = 0) -> bool:
    return value <= tol if n_states == 2 else value >= -tol


def _program_weights(n_sites: int, n_states: int, seed: int, trial: int) -> dict:
    """The exact instance the CLI draws for (seed, trial)."""
    from potts_ghs.sampling import random_weights, trial_rng

    drawn = random_weights(n_sites, n_states, trial_rng(seed, trial))
    return oracle.weights_from_sequence(n_sites, drawn.weights)


def _program_float_weights(n_sites: int, n_states: int, seed: int, trial: int) -> dict:
    """Pair weights e**J of the physical instance the CLI draws."""
    from potts_ghs.sampling import random_model, trial_rng

    model = random_model(n_sites, n_states, trial_rng(seed, trial))
    weights = {(0, i): math.exp(b) for i, b in enumerate(model.fields, start=1)}
    weights.update({pair: math.exp(j) for pair, j in model.couplings.items()})
    return weights


def expected(job: dict) -> dict:
    """Exit code (None when the check does not fix it) and reference
    answer of a job, computed without the package's kernels."""
    kind, p = job["kind"], job["params"]
    if kind == "sign-model":
        value, _ = oracle.curvature(p["n"], p["r"], oracle.weights_from_model_file(p["model"]))
        return {"rc": 0 if _sign_ok(value, p["r"]) else 1, "value": value}
    if kind == "sweep":
        cells = {}
        for n in p["n_list"]:
            for r in p["r_list"]:
                failures = []
                for k in range(p["trials"]):
                    value, _ = oracle.curvature(n, r, _program_weights(n, r, p["seed"], k))
                    if not _sign_ok(value, r):
                        failures.append([k, value])
                cells[f"cell-n{n}-r{r}"] = failures
        return {"rc": 1 if any(cells.values()) else 0, "cells": cells}
    if kind == "derivative":
        weights = oracle.weights_from_model_file(p["model"])
        return {"rc": 0, "value": oracle.second_derivative(p["n"], p["r"], weights)}
    if kind == "float-verify":
        values = [
            oracle.second_derivative(p["n"], p["r"], _program_float_weights(p["n"], p["r"], p["seed"], k))
            for k in range(p["trials"])
        ]
        return {"rc": None, "values": values}
    if kind == "expand-partial":
        model = p["model"]
        weights = oracle.weights_from_model_file(model)
        value, _ = oracle.curvature(p["n"], model["n_states"], weights)
        pairs = [(i, j) for i in range(p["n"] + 1) for j in range(i + 1, p["n"] + 1)]
        x = [weights.get(pair, Fraction(1)) - 1 for pair in pairs]
        return {"rc": 0, "value": value, "x": x}
    if kind == "separation-random":
        weights = [_program_weights(p["n"], p["r"], p["seed"], k) for k in range(p["trials"])]
        return {
            "rc": 1,
            "values": [oracle.curvature(p["n"], p["r"], w)[0] for w in weights],
            "weights": [list(w.values()) for w in weights],
        }
    if kind in GOLDEN_KINDS:
        rc, key = GOLDEN_KINDS[kind]
        return {"rc": rc, "golden": GOLDEN[key]}
    raise ValueError(f"unknown job kind {kind!r}")


# -- verdicts ------------------------------------------------------------------


def _evaluate_monomials(monomials: list, x: list) -> Fraction:
    total = Fraction(0)
    for exponents, coeff in monomials:
        term = Fraction(coeff)
        for var, exp in exponents:
            term *= x[var] ** exp
        total += term
    return total


def _sign_model(p, rc, got, want):
    value = Fraction(got["value"])
    ok = _sign_ok(value, p["r"])
    if got["status"] != ("pass" if ok else "fail") or rc != (0 if ok else 1):
        return "verdict disagrees with the value"
    if want and value != want["value"]:
        return "wrong curvature sum"


def _sweep(p, rc, got, want):
    failing = False
    for name, cell in got.items():
        r = int(name.rsplit("-r", 1)[1])
        if any(_sign_ok(Fraction(v), r) for _, v in cell["failures"]):
            return f"a trial within the expected sign is listed as failing in {name}"
        if cell["status"] != ("fail" if cell["failures"] else "pass"):
            return f"verdict of {name} disagrees with its failures"
        failing = failing or bool(cell["failures"])
    if rc != int(failing):
        return "exit code disagrees with the cells"
    if want:
        if set(got) != set(want["cells"]):
            return "wrong cells"
        for name, failures in want["cells"].items():
            if [[k, Fraction(v)] for k, v in got[name]["failures"]] != failures:
                return f"wrong failing trials in {name}"


def _derivative(p, rc, got, want):
    if got["analytic"] != got["via"] or rc != 0:
        return "the analytic and curvature-sum routes disagree"
    if any(status != "pass" for _, status in got["statuses"]):
        return "a derivative check failed"
    if want and Fraction(got["analytic"]) != want["value"]:
        return "wrong second derivative"


def _float_verify(p, rc, got, want):
    failing = False
    for name, (status, value) in got.items():
        if not math.isfinite(value):
            return f"non-finite value in {name}"
        if (status == "pass") != _sign_ok(value, p["r"], FLOAT_SIGN_TOL):
            return f"verdict disagrees with the value in {name}"
        failing = failing or status == "fail"
    if rc != int(failing):
        return "exit code disagrees with the trials"
    if want:
        if len(got) != len(want["values"]):
            return "wrong trial count"
        for (name, (_, value)), ref in zip(sorted(got.items()), want["values"]):
            if abs(value - ref) > FLOAT_VALUE_TOL:
                return f"wrong float value in {name}"


def _expand_partial(p, rc, got, want):
    if got["evaluated"] != got["direct"] or got["status"] != "pass" or rc != 0:
        return "the expansion and the direct sum disagree"
    if want:
        if Fraction(got["direct"]) != want["value"]:
            return "wrong curvature sum"
        if _evaluate_monomials(got["monomials"], want["x"]) != want["value"]:
            return "expansion does not evaluate to the curvature sum"


def _separation_random(p, rc, got, want):
    # The factored form is wrong at positive fields: every trial refutes it.
    if len(got["failures"]) != got["trials"] or got["trials"] != p["trials"] or rc != 1:
        return "expected every trial to refute the factored form"
    if want:
        for (trial, weights, direct), ref, ref_w in zip(got["failures"], want["values"], want["weights"]):
            if [Fraction(t) for t in weights] != ref_w:
                return f"wrong instance in trial {trial}"
            if Fraction(direct) != ref:
                return f"wrong curvature sum in trial {trial}"


def _golden(p, rc, got, want):
    if got != want["golden"]:
        return "differs from the golden values"


# kind -> (expected exit code, key in golden.json) for seed-independent jobs.
GOLDEN_KINDS = {
    "expand-full": (0, "expand_full_3"),
    "separation-exhaustive": (1, "separation_exhaustive_3"),
    "alpha": (1, "alpha_table_3"),
}

CHECKS = {
    "sign-model": _sign_model,
    "sweep": _sweep,
    "derivative": _derivative,
    "float-verify": _float_verify,
    "expand-partial": _expand_partial,
    "separation-random": _separation_random,
    **{kind: _golden for kind in GOLDEN_KINDS},
}


def verdict(job: dict, rc, got: dict | None, want: dict | None = None) -> str | None:
    """None when the job is correct, else a one-line reason.

    The report must agree with its own exit code and verdicts.  With
    ``want`` (from ``expected``) its answers must also equal the reference;
    seed-independent jobs are always compared with the golden values.
    """
    if rc not in (0, 1):
        return f"exit code {rc}"
    if got is None:
        return "no report"
    if job["kind"] in GOLDEN_KINDS:
        want = expected(job)
    if want and want["rc"] is not None and rc != want["rc"]:
        return f"exit code {rc}, expected {want['rc']}"
    return CHECKS[job["kind"]](job["params"], rc, got, want)
