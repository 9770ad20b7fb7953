"""Smoke test of the benchmark itself: one op per workload, every metric, failure counting.

Run from the repository root: ``python -m pytest bench/test_smoke.py -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qpd3  # noqa: E402
import qpd3.closedform  # noqa: E402

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_reports_every_end_to_end_metric(workload):
    result, lines, errors, _, _ = harness.measure(workload, 1, 0, False, setup_runs=1)
    assert result["correct"], errors
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[0] == "failed_frac" for line in lines)


def test_traced_run_reports_every_per_layer_metric_and_restores_originals():
    bindings = [
        (qpd3.game, "expected_payoffs"),
        (qpd3.closedform, "expected_payoffs"),
        (qpd3, "expected_payoffs"),
        (qpd3.cli, "compare_to_oracle"),
        (qpd3.game.StrategyParams, "__init__"),
    ]
    before = [vars(owner)[key] for owner, key in bindings]
    result, _, errors, _, tracer = harness.measure("audit", 1, 0, True, setup_runs=1)
    assert result["correct"], errors
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert result["metrics"]["game.expected_payoffs.calls"]["value"] == 1000
    assert tracer.leftovers() == []
    assert [vars(owner)[key] for owner, key in bindings] == before


def test_wrong_oracle_value_is_counted_as_failed(monkeypatch):
    original = qpd3.closedform.compare_to_oracle

    def stub(sampler, n, seed=0):
        report = original(sampler, n, seed)
        first = report.samples[0]
        oracle = (first.oracle[0] + 1e-6,) + first.oracle[1:]
        wrong = dataclasses.replace(
            first,
            oracle=oracle,
            delta_abs=tuple(abs(a - b) for a, b in zip(oracle, first.closed_form)),
        )
        return dataclasses.replace(report, samples=(wrong,) + report.samples[1:])

    monkeypatch.setattr(qpd3.closedform, "compare_to_oracle", stub)
    result, lines, errors, _, _ = harness.measure("audit", 1, 0, False, setup_runs=1)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert [line.split()[1] for line in lines if line.split()[0] == "failed_frac"] == ["1"]
    assert any("reference" in e for e in errors)


def test_command_prints_result_as_last_line():
    proc = _run_cli(ROOT, "--workload", "audit", "--seed", "2", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
