"""Smoke test of the benchmark on its tiny workloads.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, *args: str) -> tuple[list[str], dict]:
    code = run.main(["--seed", "3", "--seconds", "0.5", "--tiny", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    lines, result = _run(capsys, "--workload", workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.split()[:3] == ["failed_ratio", "0", "fraction"] for line in lines)
    assert any(line.startswith("job_ms_tail") and " is p" in line for line in lines)


def test_every_per_layer_metric_is_printed_with_its_unit(capsys):
    _, result = _run(capsys, "--workload", "symbolic", "--trace", "1")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["laurent.LaurentPoly.inits"]["value"] > 0
    assert result["correct"]


def test_a_tampered_answer_counts_as_failed(capsys, monkeypatch):
    real = run.run_worker

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        record = result["records"][0]
        value = record["projection"]["value"]
        record["projection"]["value"] = value.replace("/", "1/", 1)
        return result

    monkeypatch.setattr(run, "run_worker", tampered)
    lines, result = _run(capsys, "--workload", "sign-potts")
    assert not result["correct"] and result["failed"] == 1
    ratio = next(line for line in lines if line.startswith("failed_ratio")).split()[1]
    assert float(ratio) == pytest.approx(1 / result["attempted"])
    assert any("wrong curvature sum" in line for line in lines)
