"""The job lists of the four workloads, generated from the workload seed.

A job is one ``potts-ghs`` CLI invocation.  Every input it receives (model
files and the CLI's own ``--seed`` values) is drawn here from the seed, so
the same seed gives the same jobs.  Each pass over a workload has the same
job shapes (``name``) with fresh instances, so that a run's figures average
over many instances rather than depend on a few.  ``params`` carries what
the checker in ``answers.py`` needs to recompute the answer.

``tiny`` shrinks every workload to a few small jobs for the smoke test.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sign-potts", "sign-ising", "oracle", "symbolic")

# (n_sites, n_states) cells and model files per cell and density, per pass.
SIGN_POTTS_CELLS = ((4, 6), (5, 5), (6, 3), (6, 4), (7, 3))
SIGN_ISING_CELLS = ((8, 2), (9, 2), (10, 2))
# In a sparse instance every SPARSE_STRIDE-th coupling, in lexicographic
# order, differs from 1.  The positions are fixed, so that the work a sparse
# instance costs does not vary from seed to seed.
SPARSE_STRIDE = 4


def _pairs(n_sites: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n_sites + 1) for j in range(i + 1, n_sites + 1)]


def _weight(rng: random.Random) -> str:
    """A rational weight t = 1 + X > 1 in the CLI sampler's range, with the
    numerator and denominator of X drawn from their top bit lengths (16 and
    8 bits), so that big-integer costs vary little from seed to seed."""
    t = 1 + Fraction(rng.randint(2**15, 2**16), rng.randint(2**7, 2**8))
    return f"{t.numerator}/{t.denominator}"


def model_file(n_sites: int, n_states: int, density: str, rng: random.Random) -> dict:
    """An exact-weights model file.

    dense: every pair weight exceeds 1.  sparse: the fields of sites 1..3
    exceed 1, the fields beyond site 3 are 1 (zero field), and one coupling
    in SPARSE_STRIDE exceeds 1.
    """
    couplings = [(i, j) for i, j in _pairs(n_sites) if i > 0]
    if density == "dense":
        active = set(couplings)
        fields = [_weight(rng) for _ in range(n_sites)]
    else:
        active = set(couplings[::SPARSE_STRIDE])
        fields = [_weight(rng) if site <= 3 else "1/1" for site in range(1, n_sites + 1)]
    return {
        "n_sites": n_sites,
        "n_states": n_states,
        "mode": "exact-weights",
        "couplings": [[i, j, _weight(rng) if (i, j) in active else "1/1"] for i, j in couplings],
        "fields": fields,
    }


def _job(name: str, kind: str, argv: list, instances: int, **params) -> dict:
    return {"name": name, "kind": kind, "argv": argv, "instances": instances, "params": params}


def _sign_jobs(rng, cells, per_cell, sweep_sites, sweep_states, sweep_trials) -> list[dict]:
    jobs = []
    for n, r in cells:
        for density in ("dense", "sparse"):
            for k in range(per_cell):
                model = model_file(n, r, density, rng)
                jobs.append(
                    _job(
                        f"{density}-n{n}-r{r}-{k}", "sign-model",
                        ["verify-ghs", "--model", "@model"], 1, n=n, r=r, model=model,
                    )
                )
    seed = rng.randrange(2**31)
    jobs.append(
        _job(
            "sweep", "sweep",
            ["sweep", "--n-sites-list", ",".join(map(str, sweep_sites)),
             "--r-list", ",".join(map(str, sweep_states)),
             "--trials", str(sweep_trials), "--seed", str(seed)],
            len(sweep_sites) * len(sweep_states) * sweep_trials,
            n_list=list(sweep_sites), r_list=list(sweep_states), trials=sweep_trials, seed=seed,
        )
    )
    return jobs


def _oracle_jobs(rng, sizes, per_size, float_trials) -> list[dict]:
    jobs = []
    for n in sizes:
        for k in range(per_size):
            jobs.append(
                _job(
                    f"derivative-n{n}-{k}", "derivative",
                    ["derivative", "--model", "@model", "--mode", "exact",
                     "--i", "1", "--j", "2", "--k", "3"],
                    1, n=n, r=3, model=model_file(n, 3, "dense", rng),
                )
            )
    for n in sizes:
        seed = rng.randrange(2**31)
        jobs.append(
            _job(
                f"float-n{n}", "float-verify",
                ["verify-ghs", "--n-sites", str(n), "--r", "3", "--mode", "float",
                 "--trials", str(float_trials), "--seed", str(seed)],
                float_trials, n=n, r=3, trials=float_trials, seed=seed,
            )
        )
    return jobs


def _symbolic_jobs(rng, sizes, windows, random_trials, full) -> list[dict]:
    jobs = []
    if full:
        jobs.append(_job("expand-full-n3", "expand-full", ["expand", "--n-sites", "3"], 0))
        jobs.append(
            _job(
                "separation-exhaustive-n3", "separation-exhaustive",
                ["separation-check", "--n-sites", "3", "--mode", "exhaustive"], 0,
            )
        )
    jobs.append(
        _job("alpha-table-n3", "alpha", ["alpha-table", "--n-sites", "3", "--compare-paper"], 0)
    )
    for n in sizes:
        for s in windows:
            model = model_file(n, 3, "dense", rng)
            jobs.append(
                _job(
                    f"expand-n{n}-s{s}", "expand-partial",
                    ["expand", "--n-sites", str(n), "--model", "@model", "--window", str(s)],
                    1, n=n, model=model,
                )
            )
    seed = rng.randrange(2**31)
    jobs.append(
        _job(
            "separation-random-n4", "separation-random",
            ["separation-check", "--n-sites", "4", "--mode", "random-eval", "--r", "3",
             "--trials", str(random_trials), "--seed", str(seed)],
            random_trials, n=4, r=3, trials=random_trials, seed=seed,
        )
    )
    return jobs


def passes_for(workload: str, seed: int, count: int, tiny: bool = False) -> list[list[dict]]:
    """``count`` passes of the workload; job ids are unique across them."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    passes = []
    for k in range(count):
        jobs = _one_pass(workload, rng, tiny)
        passes.append([{**job, "id": f"p{k}.{job['name']}"} for job in jobs])
    return passes


def _one_pass(workload: str, rng: random.Random, tiny: bool) -> list[dict]:
    if workload == "sign-potts":
        if tiny:
            return _sign_jobs(rng, ((3, 3), (4, 3)), 1, (3,), (3,), 2)
        return _sign_jobs(rng, SIGN_POTTS_CELLS, 2, (5, 6), (3, 4), 2)
    if workload == "sign-ising":
        if tiny:
            return _sign_jobs(rng, ((4, 2), (5, 2)), 1, (4,), (2,), 2)
        return _sign_jobs(rng, SIGN_ISING_CELLS, 3, (8, 9, 10), (2,), 2)
    if workload == "oracle":
        if tiny:
            return _oracle_jobs(rng, (3, 4), 1, 2)
        return _oracle_jobs(rng, (5, 6), 3, 3)
    if workload == "symbolic":
        if tiny:
            return _symbolic_jobs(rng, (3,), (1, 2), 2, full=False)
        return _symbolic_jobs(rng, (3, 4, 5), (3, 4, 5, 6), 5, full=True)
    raise ValueError(f"unknown workload {workload!r}")


def materialize(jobs: list[dict], workdir: Path) -> list[dict]:
    """Write each job's model file and point its argv at it and at a
    report path (one per job id)."""
    out = []
    for job in jobs:
        argv = list(job["argv"])
        if "@model" in argv:
            path = workdir / f"{job['id']}.model.json"
            path.write_text(json.dumps(job["params"]["model"], indent=1))
            argv[argv.index("@model")] = str(path)
        argv += ["--output", str(workdir / f"{job['id']}.report.json")]
        out.append({**job, "argv": argv})
    return out


def repeat_passes(budget_s: float | None, run_pass) -> None:
    """Call ``run_pass(k)`` for k = 0, 1, ... while the time left of
    ``budget_s`` is at least what the last pass took; once when
    ``budget_s`` is None."""
    start = time.perf_counter()
    last_pass = 0.0
    k = 0
    while k == 0 or (budget_s is not None and budget_s - (time.perf_counter() - start) >= last_pass):
        pass_start = time.perf_counter()
        run_pass(k)
        last_pass = time.perf_counter() - pass_start
        k += 1
