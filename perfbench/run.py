"""Benchmark of the potts-ghs command line on four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload sign-potts --seed 1 --seconds 20 --trace 0

Workloads: sign-potts, sign-ising, oracle, symbolic (see perfbench/README.md
for why each was chosen).  The load is a closed loop with one client: this
process runs one job at a time in one child interpreter.  sign-*, oracle
keep one worker interpreter for the run; every symbolic job gets a fresh
one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
traced pass of the job list and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks every
workload to a few small jobs (for the smoke test).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import answers
import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# Fixed hash seed for every child, so the traced counts repeat exactly.
CHILD_HASH_SEED = "0"
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
# Passes with distinct instances generated per run; longer runs cycle.
DISTINCT_PASSES = 64
# Jobs beyond the first pass whose answers are recomputed by the oracle.
CHECK_SAMPLE = 24

# Workloads whose jobs share lru_caches, so each job gets its own process.
FRESH_PER_JOB = {"symbolic"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("instances_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("constraints.constrained_sum.calls", "count"),
    ("constraints.constrained_sum.assignments", "count"),
    ("constraints.constrained_sum.self_s", "s"),
    ("constraints.matrix_coefficient.calls", "count"),
    ("constraints.matrix_coefficient.self_s", "s"),
    ("model.weighted_sums.calls", "count"),
    ("model.weighted_sums.configs", "count"),
    ("model.weighted_sums.self_s.fraction", "s"),
    ("model.weighted_sums.self_s.float", "s"),
    ("model.weighted_sums.self_s.mpf", "s"),
    ("partitions.block_count.calls", "count"),
    ("partitions.merge_constraints.calls", "count"),
    ("partitions.self_s", "s"),
    ("derivatives.ghs_sum.calls", "count"),
    ("derivatives.ghs_sum.self_s", "s"),
    ("derivatives.second_derivative_analytic.self_s", "s"),
    ("derivatives.second_derivative_via_sum.self_s", "s"),
    ("derivatives.second_derivative_float.self_s", "s"),
    ("derivatives.second_derivative_fd.self_s", "s"),
    ("laurent.LaurentPoly.inits", "count"),
    ("laurent.LaurentPoly.mul.calls", "count"),
    ("laurent.LaurentPoly.add.calls", "count"),
    ("xpoly.XPoly.inits", "count"),
    ("xpoly.XPoly.mul.calls", "count"),
    ("xpoly.XPoly.mul.self_s", "s"),
    ("xpoly.xpoly_eval.self_s", "s"),
    ("xpoly.xpoly_records.self_s", "s"),
    ("expansion.expand_full.self_s", "s"),
    ("expansion.expand_partial.self_s", "s"),
    ("expansion.expand_full.cache_hits", "count"),
    ("expansion.expand_full.cache_misses", "count"),
    ("alpha.alpha.cache_hit_ratio", "fraction"),
    ("alpha.alpha_table.self_s", "s"),
    ("alpha.compare_reference.self_s", "s"),
    ("alpha.sign_report.self_s", "s"),
    ("separation.reduced_expansion.self_s", "s"),
    ("separation.assemble_separated.self_s", "s"),
    ("separation.evaluate_separated.self_s", "s"),
    ("sampling.random_weights.self_s", "s"),
    ("sampling.random_model.self_s", "s"),
    ("modelfile.load_model.self_s", "s"),
    ("modelfile.rational_str.calls", "count"),
    ("cli.main.self_s", "s"),
    ("gc.collections.gen0", "count"),
    ("gc.collections.gen1", "count"),
    ("gc.collections.gen2", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "fraction"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = CHILD_HASH_SEED
    return env


# -- environment record ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "pythonhashseed": CHILD_HASH_SEED,
        "loadavg_start": list(os.getloadavg()),
    }


# -- children ----------------------------------------------------------------------


SETUP_PROBE = """
import sys, time
sys.path.insert(0, {here!r})
from calibration import sample
t0 = time.perf_counter()
before = [sample() for _ in range(5)]
t1 = time.perf_counter()
import potts_ghs.cli
t2 = time.perf_counter()
print(t0, t1, t2, sum(before + [sample() for _ in range(5)]) / 10)
"""


def measure_setup(env: dict) -> list[tuple]:
    """Fresh interpreter start until ``import potts_ghs.cli`` has returned.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    readings can be compared with the parent's before the spawn.  The child
    calibrates just before and just after the import (the first calibration
    is not counted as set-up), since the host's speed can differ between
    its CPUs.  Returns (seconds, mean calibration sample) per probe.
    """
    code = SETUP_PROBE.format(here=str(HERE))
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise BenchError(f"cannot import potts_ghs.cli:\n{done.stderr}")
        t0, t1, t2, speed = map(float, done.stdout.split()[-4:])
        samples.append((t2 - start - (t1 - t0), speed))
    return samples


def run_worker(passes: list[list[dict]], budget_s: float | None, trace: bool, workdir: Path,
               env: dict) -> dict:
    fd, name = tempfile.mkstemp(dir=workdir, suffix=".spec.json")
    os.close(fd)
    spec_path = Path(name)
    result_path = spec_path.with_suffix(".result")
    # The worker needs no params; leaving them out keeps its memory the
    # package's own.
    slim = [[{k: job[k] for k in ("id", "name", "kind", "argv")} for job in jobs] for jobs in passes]
    spec_path.write_text(json.dumps({"passes": slim, "budget_s": budget_s, "trace": trace}))
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path), str(result_path)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode != 0 or not result_path.exists():
            raise BenchError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    finally:
        spec_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)
    return result


def run_jobs(workload: str, passes: list[list[dict]], budget_s: float | None, trace: bool,
             workdir: Path, env: dict) -> list[dict]:
    """Worker results for whole passes.

    With a budget, passes run in turn while the time left is at least the
    last pass took; without one, the first pass runs once.
    """
    if workload not in FRESH_PER_JOB:
        return [run_worker(passes, budget_s, trace, workdir, env)]
    results = []

    def run_pass(k: int) -> None:
        for job in passes[k % len(passes)]:
            result = run_worker([[job]], None, trace, workdir, env)
            for record in result["records"]:
                record["pass"] = k
            results.append(result)

    workloads.repeat_passes(budget_s, run_pass)
    return results


# -- metrics -------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with fewer than eleven samples, the smallest."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def reference_latency(record: dict) -> float:
    return calibration.to_reference(record["latency_s"], record["speed_s"])


def wall_of_pass(records: list[dict], latency=reference_latency) -> float:
    """Time of one pass over the job list: the sum over the pass's job
    shapes of each shape's median latency in the run."""
    by_job: dict[str, list[float]] = {}
    for record in records:
        by_job.setdefault(record["name"], []).append(latency(record))
    return sum(statistics.median(v) for v in by_job.values())


def end_to_end(setup: list[tuple], results: list[dict], jobs: dict[str, dict]) -> tuple[dict, dict]:
    """End-to-end metrics, times in reference seconds, and their details."""
    records = [r for res in results for r in res["records"]]
    latencies = [reference_latency(r) for r in records]
    tail_ms, tail_pct = tail([1000 * x for x in latencies])
    metrics = {
        "setup_s": statistics.median(calibration.to_reference(*probe) for probe in setup),
        "wall_s": wall_of_pass(records),
        "instances_per_s": sum(jobs[r["id"]]["instances"] for r in records) / sum(latencies),
        "job_ms_p50": 1000 * statistics.median(latencies),
        "job_ms_tail": tail_ms,
        "peak_rss_mb": max(res["peak_rss_kib"] for res in results) / 1024,
    }
    detail = {
        "job_ms_tail_percentile": tail_pct,
        "job_samples": len(latencies),
        "passes": 1 + max(r["pass"] for r in records),
        "jobs_per_pass": len({r["name"] for r in records}),
        "raw": {
            "setup_s": statistics.median(probe[0] for probe in setup),
            "wall_s": wall_of_pass(records, lambda r: r["latency_s"]),
            "job_ms_p50": 1000 * statistics.median(r["latency_s"] for r in records),
            "calibration_ms_p50": 1000 * statistics.median(r["speed_s"] for r in records),
        },
    }
    return metrics, detail


def per_layer(results: list[dict], untraced_wall: float) -> dict:
    records = [r for res in results for r in res["records"]]
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    spanned = 0.0
    for res in results:
        for name, value in res["trace"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in res["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value
        spanned += res["trace"]["spanned_s"]
    self_s["partitions.self_s"] = self_s.get("partitions.block_count.self_s", 0.0) + self_s.get(
        "partitions.merge_constraints.self_s", 0.0
    )
    counts["expansion.expand_full.cache_hits"] = sum(r["caches"]["expand_full"][0] for r in records)
    counts["expansion.expand_full.cache_misses"] = sum(r["caches"]["expand_full"][1] for r in records)
    alpha_hits = sum(r["caches"]["alpha"][0] for r in records)
    alpha_lookups = alpha_hits + sum(r["caches"]["alpha"][1] for r in records)
    # Spans also contain the calibration sampler's time, so coverage is
    # taken over the job time with the sampler included.
    traced_raw = sum(r["latency_s"] + r["sampler_s"] for r in records)
    for g in range(3):
        counts[f"gc.collections.gen{g}"] = sum(r["gc"][g] for r in records)
    derived = {
        "alpha.alpha.cache_hit_ratio": alpha_hits / alpha_lookups if alpha_lookups else 0.0,
        "trace.overhead": sum(map(reference_latency, records)) / untraced_wall,
        "trace.coverage": spanned / traced_raw,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif unit == "s":
            value = self_s.get(name, 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out


# -- answers ---------------------------------------------------------------------------


def check(jobs: dict[str, dict], results: list[dict], seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons) over every job run.

    Every report is checked for consistency; the answers of the first
    pass's jobs and of a seeded sample of CHECK_SAMPLE other jobs are also
    recomputed by the oracle, outside the timed region.
    """
    records = [r for res in results for r in res["records"]]
    ran = sorted({r["id"] for r in records})
    first = [i for i in ran if i.startswith("p0.")]
    others = [i for i in ran if not i.startswith("p0.")]
    sample = set(first) | set(random.Random(f"check:{seed}").sample(others, min(CHECK_SAMPLE, len(others))))
    wanted = {i: answers.expected(jobs[i]) for i in sorted(sample)}
    failed = 0
    reasons = []
    for record in records:
        job = jobs[record["id"]]
        reason = answers.verdict(job, record["rc"], record["projection"], wanted.get(job["id"]))
        if reason and record["error"]:
            reason += ": " + record["error"].strip().splitlines()[-1]
        if reason:
            failed += 1
            if len(reasons) < 10:
                reasons.append(f"{job['id']}: {reason}")
    return len(records), failed, reasons


# -- main ------------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small jobs per workload")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    if not (SRC / "potts_ghs" / "cli.py").is_file():
        raise BenchError(f"no potts_ghs package under {SRC}")
    # The checker regenerates the CLI's seeded instances with its sampler.
    sys.path.insert(0, str(SRC))
    env = child_env()
    env_record = environment()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        passes = [
            workloads.materialize(jobs, workdir)
            for jobs in workloads.passes_for(args.workload, args.seed, DISTINCT_PASSES, args.tiny)
        ]
        jobs = {job["id"]: job for jobs in passes for job in jobs}
        setup = measure_setup(env)
        results = run_jobs(args.workload, passes, args.seconds, False, workdir, env)
        metrics, detail = end_to_end(setup, results, jobs)
        traced = []
        if args.trace:
            traced = run_jobs(args.workload, passes[:1], None, True, workdir, env)
            detail["end_to_end"] = metrics
            metrics = per_layer(traced, metrics["wall_s"])
        attempted, failed, reasons = check(jobs, results + traced, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_record.update(results[0]["env"])
    env_record["loadavg_end"] = list(os.getloadavg())
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "failed_ratio": {"value": failed / attempted, "unit": "fraction"},
            "failures": reasons,
            "environment": env_record,
        }
    )
    units = dict(PER_LAYER if args.trace else END_TO_END)
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        outcome = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, detail = outcome["result"], outcome["detail"]
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(
            f"{'job_ms_tail':48s} is p{detail['job_ms_tail_percentile']:.1f} "
            f"of {detail['job_samples']} jobs"
        )
    print(f"{'failed_ratio':48s} {detail['failed_ratio']['value']:.6g} fraction")
    for reason in detail["failures"]:
        print(f"FAILED {reason}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
