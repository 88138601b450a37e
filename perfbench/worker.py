"""Child process that runs CLI jobs in-process and times each one.

Usage: python3 worker.py JOBS.json RESULT.json

JOBS.json holds {"passes": [[job, ...], ...], "budget_s": seconds or
null, "trace": bool}.  With a budget the worker runs the passes in turn
(cycling when it runs out of them) while the time left is at least what
the last pass took, and one pass at the least; without a budget it runs
the first pass.  Each job starts with the package's ``lru_cache``s
cleared, as a fresh ``potts-ghs`` process would, and only the
``cli.main`` call is timed, with the host's speed sampled around and
during it (see calibration.py).  The report projection, cache statistics
and garbage-collector counts are taken after the clock stops.
"""
from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import potts_ghs.cli as cli

import answers
import calibration
import workloads

# The lru_caches a fresh potts-ghs process starts without, by home module.
CACHES = {
    name: getattr(importlib.import_module(f"potts_ghs.{module}"), name)
    for module, name in (
        ("expansion", "expand_full"),
        ("alpha", "alpha"),
        ("separation", "reduced_expansion"),
        ("separation", "separated_form"),
        ("model", "pair_order"),
    )
}


def _gc_collections() -> list[int]:
    return [gen["collections"] for gen in gc.get_stats()]


def run_job(job: dict, pass_index: int, interval_s: float | None) -> dict:
    for cached in CACHES.values():
        cached.cache_clear()
    report_path = Path(job["argv"][job["argv"].index("--output") + 1])
    report_path.unlink(missing_ok=True)
    sink, errors = io.StringIO(), io.StringIO()
    gc_before = _gc_collections()
    error = None
    with calibration.Speedometer(interval_s) as speed:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                rc = cli.main(job["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            error = traceback.format_exc()
        latency = time.perf_counter() - start
        sampler = speed.spent
    gc_after = _gc_collections()
    projection = None
    if error is None and report_path.exists():
        try:
            projection = answers.project(job["kind"], json.loads(report_path.read_text()))
        except (KeyError, IndexError, TypeError, ValueError):
            error = "unreadable report: " + traceback.format_exc(limit=1)
        report_path.unlink()
    return {
        "id": job["id"],
        "name": job["name"],
        "pass": pass_index,
        "latency_s": latency - sampler,
        "sampler_s": sampler,
        "speed_s": speed.speed_s,
        "rc": rc,
        "error": error or (errors.getvalue()[-500:] or None),
        "projection": projection,
        "gc": [b - a for a, b in zip(gc_before, gc_after)],
        "caches": {
            name: [cached.cache_info().hits, cached.cache_info().misses]
            for name, cached in CACHES.items()
        },
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # Traced passes report exact collector counts, so sample only around jobs.
    interval_s = None if tracer else calibration.INTERVAL_S
    passes = spec["passes"]
    records = []

    def run_pass(k: int) -> None:
        records.extend(run_job(job, k, interval_s) for job in passes[k % len(passes)])

    workloads.repeat_passes(spec["budget_s"], run_pass)
    import mpmath
    import mpmath.libmp

    result = {
        "records": records,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
        "trace": tracer.summary() if tracer else None,
    }
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
