"""Command-line interface: seeded verification runs with JSON reports.

Every subcommand assembles a deterministic report — tool identity, echoed
configuration, one record per check, and a summary — with wall-clock timing
isolated in its own subtree so reports from identical runs are byte-identical
elsewhere.  The echoed configuration is the subcommand's parsed flags: each
handler checks its flags, writes the defaults it resolves back onto them,
and returns its checks and report extras; a flag the run did not use reads
null.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage or model-file error, 3 capacity exceeded, 4 internal error (any
other exception, reported in one line without a traceback).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .alpha import (
    alpha_table,
    compare_reference,
    expected_sign,
    has_expected_sign,
    sign_report,
    table_export,
)
from .derivatives import _triple_pass, ghs_sum, second_derivative_fd
from .expansion import expand_full, expand_partial
from .model import (
    CapacityError,
    GhostWeightVector,
    ModelSpec,
    _require_triple,
    instance_digest,
    pair_order,
)
from .modelfile import dump_model, load_model, rational_str
from .sampling import random_model, random_weights, trial_rng
from .separation import evaluate_separated, separated_form, separation_check
from .xpoly import xpoly_eval, xpoly_records

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

FLOAT_SIGN_TOL = 1e-12
# Largest r**(n_sites + 1) enumerated per instance; larger requests exit
# with a capacity error before any work.  One exact instance at n=11, r=3
# (3**12 = 531441) takes about 9 s on a 2-CPU Xeon VM under Python 3.11.
MAX_CONFIGURATIONS = 10**6
# Largest sum of trials * r**(n_sites + 1) over the cells of one run:
# verify-ghs's default 100 trials at the per-instance bound.
MAX_TOTAL_CONFIGURATIONS = 100 * MAX_CONFIGURATIONS


class UsageError(ValueError):
    """Bad arguments or inputs discovered after parsing."""


def _check(name: str, ok: bool, witness: dict) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "witness": witness}


def _check_work(n_sites: int, n_states: int) -> None:
    """Refuse a state count below 2 (usage) or an instance whose
    enumeration exceeds MAX_CONFIGURATIONS (capacity)."""
    if n_states < 2:
        raise UsageError(f"r={n_states}: a Potts model needs at least 2 states")
    # The exponent is capped so that huge sizes stay cheap to judge; at
    # r >= 2 the cap alone already exceeds the bound.
    if n_states ** min(n_sites + 1, 64) > MAX_CONFIGURATIONS:
        raise CapacityError(
            f"n_sites={n_sites}, r={n_states} needs r**(n_sites+1) configurations, "
            f"more than the supported {MAX_CONFIGURATIONS}"
        )


def _check_total(trials: int, cells) -> None:
    """Refuse a run whose trials over its (n_sites, r) cells, each already
    within MAX_CONFIGURATIONS, enumerate more than MAX_TOTAL_CONFIGURATIONS
    configurations in all (capacity)."""
    total = trials * sum(r ** (n + 1) for n, r in cells)
    if total > MAX_TOTAL_CONFIGURATIONS:
        raise CapacityError(
            f"--trials {trials} needs {total} configurations in all, "
            f"more than the supported {MAX_TOTAL_CONFIGURATIONS}"
        )


def _sign_check(instance: GhostWeightVector | ModelSpec) -> tuple[bool, dict]:
    """Curvature-sign verdict and witness for the site triple (1, 2, 3): the
    exact sum for exact weights, the float derivative for a physical model,
    whose witness names the route that ran ("float" or "exact-fallback")."""
    _require_triple(instance.n_sites)
    r = instance.n_states
    witness = {"n_states": r, "expected": expected_sign(r)}
    if isinstance(instance, GhostWeightVector):
        value = ghs_sum(instance)
        tol = 0
        witness.update(instance=instance_digest(instance), value=rational_str(value))
    else:
        value, _, route = _triple_pass(instance, 1, 2, 3)
        tol = FLOAT_SIGN_TOL
        witness.update(route=route, tolerance=tol, value=value)
    return has_expected_sign(value, r, tol), witness


def _draw(mode: str):
    """The seeded instance generator of a mode."""
    return random_weights if mode == "exact" else random_model


def _instance_source(args, replaced: tuple[str, ...], triple: bool = False):
    """The --model file's instance, or None for a seeded --n-sites/--r cell.

    The flags the file replaces may not be passed, and --mode only to name
    the file's pipeline.  With ``triple`` the file must hold the site triple
    (1, 2, 3); that rule comes before the work bound, as for a seeded cell.
    Sets ``args.mode`` to the pipeline that runs, and for a seeded cell
    ``args.seed`` to its default, since --model forbids it.
    """
    if not args.model:
        if args.n_sites is None or args.r is None:
            raise UsageError(f"{args.command} needs --model or both --n-sites and --r")
        args.mode = args.mode or "exact"
        args.seed = 0 if args.seed is None else args.seed
        return None
    for name in replaced:
        if getattr(args, name) is not None:
            raise UsageError(f"--{name.replace('_', '-')} cannot be combined with --model")
    instance = load_model(args.model)
    if triple:
        _require_triple(instance.n_sites)
    _check_work(instance.n_sites, instance.n_states)
    mode = "exact" if isinstance(instance, GhostWeightVector) else "float"
    if args.mode not in (None, mode):
        raise UsageError(f"--mode {args.mode} does not match the {mode} model file")
    args.mode = mode
    return instance


def _trials(cells, mode: str, trials: int, seed: int, check) -> list:
    """Validate every (n, r) cell of a run and its total work, then return
    one lazy generator of the cell's seeded trials as (k, ok, witness) per
    cell, where ``check(instance)`` gives (ok, witness)."""
    if trials < 1:
        raise UsageError("--trials must be >= 1")
    for n, r in cells:
        _require_triple(n)
        _check_work(n, r)
    _check_total(trials, cells)
    draw = _draw(mode)

    def run(n: int, r: int):
        for k in range(trials):
            yield (k, *check(draw(n, r, trial_rng(seed, k))))

    return [run(n, r) for n, r in cells]


def _sign_trial(instance: GhostWeightVector | ModelSpec) -> tuple[bool, dict]:
    """``_sign_check`` whose failing witness carries its model file."""
    ok, witness = _sign_check(instance)
    if not ok:
        witness["weights"] = dump_model(instance)
    return ok, witness


def _separation_trial(weights: GhostWeightVector) -> tuple[bool, dict]:
    """The evaluated separated form against the direct curvature sum."""
    lhs = evaluate_separated(separated_form(weights.n_sites), weights)
    rhs = ghs_sum(weights)
    return lhs == rhs, {
        "instance": instance_digest(weights),
        "weights": [rational_str(t) for t in weights.weights],
        "separated": rational_str(lhs),
        "direct": rational_str(rhs),
    }


# -- subcommand handlers -----------------------------------------------------


def _cmd_verify_ghs(args) -> tuple:
    instance = _instance_source(args, ("n_sites", "r", "trials", "seed"), triple=True)
    if instance is not None:
        ok, witness = _sign_check(instance)
        name = "curvature-sign" if args.mode == "exact" else "curvature-sign-float"
        return [_check(name, ok, witness)], {}

    args.trials = 100 if args.trials is None else args.trials
    cells = [(args.n_sites, args.r)]
    [run] = _trials(cells, args.mode, args.trials, args.seed, _sign_trial)
    return [_check(f"trial-{k:04d}", ok, witness) for k, ok, witness in run], {}


def _cmd_derivative(args) -> tuple:
    i, j, k = args.i, args.j, args.k
    instance = _instance_source(args, ("n_sites", "r", "seed"))
    if instance is None:
        _check_work(args.n_sites, args.r)
        instance = _draw(args.mode)(args.n_sites, args.r, trial_rng(args.seed, 0))

    def result(method: str, value, digest=None, **extra) -> dict:
        return {
            "method": method,
            "value": value,
            "site_triple": [i, j, k],
            "instance": digest,
            **extra,
        }

    # The finite difference validates --h-step, so it runs before the exact
    # routes; its record still comes last.
    fd = second_derivative_fd(instance, i, j, k, h=args.h_step)
    checks = []
    # One pass: for exact weights both exact records read its eight sums.
    analytic, via, _ = _triple_pass(instance, i, j, k)
    if isinstance(instance, GhostWeightVector):
        digest = instance_digest(instance)
        results = [result("analytic", rational_str(analytic), digest)]
        if via is not None:
            results.append(result("via-curvature-sum", rational_str(via), digest))
            checks.append(
                _check(
                    "analytic-equals-curvature-route",
                    via == analytic,
                    {"analytic": rational_str(analytic), "via": rational_str(via)},
                )
            )
    else:
        results = [result("analytic", analytic)]
    reference = float(analytic)
    results.append(result("finite-difference", fd, h=args.h_step))
    err = abs(fd - reference)
    tol = max(1e-6 * abs(reference), 1e-10)
    checks.append(
        _check(
            "finite-difference-agreement",
            err <= tol,
            {
                "analytic": reference,
                "finite_difference": fd,
                "abs_error": err,
                "tolerance": tol,
                "h": args.h_step,
            },
        )
    )
    return checks, {"results": results}


def _cmd_expand(args) -> tuple:
    if args.window is not None and not args.model:
        raise UsageError("--window needs --model")
    # Without --n-sites the model file gives the size; a --n-sites is judged
    # before the file is read.
    weights, n_sites = None, args.n_sites
    if n_sites is None:
        if not args.model:
            raise UsageError("expand needs --n-sites or --model")
        weights = load_model(args.model)
        n_sites = weights.n_sites
    _require_triple(n_sites)
    order = pair_order(n_sites)
    extras = {}
    if args.model:
        if weights is None:
            weights = load_model(args.model)
        if not isinstance(weights, GhostWeightVector):
            raise UsageError("expand needs an exact-weights model")
        if weights.n_sites != n_sites:
            raise UsageError("--n-sites does not match the model file")
        _check_work(weights.n_sites, weights.n_states)
        window = args.window = len(order) if args.window is None else args.window
        poly = expand_partial(weights, window)
        value = xpoly_eval(poly, weights.x_values())
        direct = ghs_sum(weights)
        checks = [
            _check(
                "partial-expansion-evaluates-to-curvature-sum",
                value == direct,
                {
                    "window": window,
                    "evaluated": rational_str(value),
                    "direct": rational_str(direct),
                },
            )
        ]
        extras["expansion"] = {
            "kind": "partial",
            "window": window,
            "n_monomials": len(poly),
            "monomials": xpoly_records(poly, len(order)),
        }
    else:
        poly = expand_full(n_sites)
        checks = [
            _check(
                "full-expansion-computed",
                True,
                {"n_monomials": len(poly), "n_pairs": len(order)},
            )
        ]
        extras["expansion"] = {
            "kind": "full",
            "n_monomials": len(poly),
            "monomials": xpoly_records(poly, len(order)),
        }
    return checks, extras


def _cmd_separation_check(args) -> tuple:
    if args.mode == "exhaustive":
        for name in ("r", "trials", "seed"):
            if getattr(args, name) is not None:
                raise UsageError(f"--{name} is not used by --mode exhaustive")
        report = separation_check(args.n_sites)
        passed = report.pop("passed")
    else:
        if args.r is None:
            raise UsageError("--mode random-eval needs --r")
        args.trials = 50 if args.trials is None else args.trials
        args.seed = 0 if args.seed is None else args.seed
        cell = (args.n_sites, args.r)
        [run] = _trials([cell], "exact", args.trials, args.seed, _separation_trial)
        failures = [{"trial": k, **witness} for k, ok, witness in run if not ok]
        passed = not failures
        report = {"trials": args.trials, "failures": failures}
    return [_check(f"separation-{args.mode}", passed, report)], {}


def _cmd_alpha_table(args) -> tuple:
    r_values = args.r_values = _parse_int_list(args.r_values)
    table = alpha_table(args.n_sites)
    signs = sign_report(table, r_values)
    checks = []
    for r in r_values:
        entry = signs["per_r"][str(r)]
        checks.append(
            _check(
                f"signs-r{r}",
                entry["verdict"] == "pass",
                {
                    "expected": entry["expected"],
                    "sign_counts": entry["sign_counts"],
                    "violations": entry["violations"],
                },
            )
        )
    extras = {"table": table_export(table, tuple(r_values)), "sign_report": signs}
    if args.compare_paper:
        comparison = compare_reference(table)
        for record in comparison["classes"]:
            checks.append(
                _check(
                    f"reference-{record['entry'].replace(',', '')}",
                    record["verdict"] == "match",
                    record,
                )
            )
        checks.append(
            _check(
                "reference-coverage",
                comparison["coverage_complete"],
                {"classes": len(comparison["classes"])},
            )
        )
        checks.append(
            _check(
                "core-oracle-agreement",
                comparison["oracle_agreement"],
                {"entries": 64},
            )
        )
        extras["reference_comparison"] = comparison
    return checks, extras


def _cmd_sweep(args) -> tuple:
    args.n_sites_list = _parse_int_list(args.n_sites_list)
    args.r_list = _parse_int_list(args.r_list)
    cells = [(n, r) for n in args.n_sites_list for r in args.r_list]
    # Every cell is validated here, before the first trial runs.
    runs = _trials(cells, args.mode, args.trials, args.seed, _sign_trial)
    checks = []
    for (n, r), run in zip(cells, runs):
        failures = [{"trial": k, **witness} for k, ok, witness in run if not ok]
        checks.append(
            _check(
                f"cell-n{n}-r{r}",
                not failures,
                {
                    "trials": args.trials,
                    "expected": expected_sign(r),
                    "failures": failures,
                },
            )
        )
    return checks, {}


# -- plumbing ----------------------------------------------------------------


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc
    if not values:
        raise UsageError(f"empty integer list {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"repeated value {value} in integer list {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potts-ghs",
        description=(
            "Exact verification of the magnetization curvature sign dichotomy "
            "on the ferromagnetic Potts model"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write the JSON report to this path")

    p = sub.add_parser("verify-ghs", help="check the curvature sign on instances")
    p.add_argument("--model", help="model file (JSON)")
    p.add_argument("--n-sites", type=int)
    p.add_argument("--r", type=int, help="number of spin states")
    p.add_argument("--mode", choices=("exact", "float"), help="default: exact")
    p.add_argument("--trials", type=int, help="default: 100")
    p.add_argument("--seed", type=int, help="default: 0")
    common(p)

    p = sub.add_parser("derivative", help="second derivative by several routes")
    p.add_argument("--model", help="model file (JSON)")
    p.add_argument("--n-sites", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--mode", choices=("exact", "float"), help="default: exact")
    p.add_argument("--seed", type=int, help="default: 0")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h-step", type=float, default=1e-4)
    common(p)

    p = sub.add_parser("expand", help="expansion in the deviation variables")
    p.add_argument("--n-sites", type=int, help="default: the --model file's")
    p.add_argument("--model", help="exact model file for a partial expansion")
    p.add_argument("--window", type=int, help="number of trailing pairs to expand")
    common(p)

    p = sub.add_parser("separation-check", help="verify the factored form")
    p.add_argument("--n-sites", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random-eval"), required=True)
    p.add_argument("--r", type=int, help="state count for random-eval mode")
    p.add_argument("--trials", type=int, help="random-eval only; default: 50")
    p.add_argument("--seed", type=int, help="random-eval only; default: 0")
    common(p)

    p = sub.add_parser("alpha-table", help="aggregated coefficients and signs")
    p.add_argument("--n-sites", type=int, default=3)
    p.add_argument("--r-values", default="2,3,4,5,6,7,8,9,10")
    p.add_argument(
        "--compare-paper",
        action="store_true",
        help="compare against the built-in reference closed forms",
    )
    common(p)

    p = sub.add_parser("sweep", help="sign checks over a grid of sizes")
    p.add_argument("--n-sites-list", required=True)
    p.add_argument("--r-list", required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    return parser


def build_report(command: str, config: dict, checks: list[dict], extras: dict | None, seconds: float) -> dict:
    passed = sum(1 for c in checks if c["status"] == "pass")
    report = {
        "tool": {"name": "potts-ghs", "version": __version__},
        "command": command,
        "config": config,
        "checks": checks,
        "summary": {
            "checks": len(checks),
            "passed": passed,
            "failed": len(checks) - passed,
            "status": "pass" if passed == len(checks) else "fail",
        },
        "timing": {"seconds": seconds},
    }
    if extras:
        report.update(extras)
    return report


# The parser depends only on this module's code and parsing leaves it as it
# was, so main builds it on its first call and every later call reuses it.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # The handler is read from the module when the call runs, not bound when
    # the parser was built.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    start = time.perf_counter()
    try:
        checks, extras = handler(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    seconds = time.perf_counter() - start
    config = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
    report = build_report(args.command, config, checks, extras, seconds)

    if args.command == "alpha-table" and not args.output:
        table = report.get("table")
        if table:
            print(_plain_table(table))
    for check in checks:
        if check["status"] == "fail":
            print(f"[fail] {check['name']}")
    summary = report["summary"]
    print(
        f"{args.command}: {summary['passed']}/{summary['checks']} checks passed "
        f"({summary['status']})"
    )
    if args.output:
        try:
            Path(args.output).write_text(
                json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
            )
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"report written to {args.output}")
    return EXIT_PASS if summary["status"] == "pass" else EXIT_CHECK_FAILURE


def _plain_table(table_dict: dict) -> str:
    lines = ["x,y,z  entry"]
    for key in sorted(table_dict["entries"]):
        lines.append(f"{key}  {table_dict['entries'][key]['factored']}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
