"""Tests of the benchmark itself, on tiny variants of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Smallest sizes that still leave ten samples beyond every percentile.
TINY = {
    "churn-fast": dict(updates=1000),
    "churn-basic-apps": dict(updates=1000),
    "density-audit": dict(updates=1000, query_every=1, audit_every=10),
}


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


def test_declared_workloads_are_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(TINY) == set(bench.WORKLOADS)


def test_full_workloads_support_every_percentile():
    for w in bench.WORKLOADS.values():
        lines = bench.workload_lines(w, seed=3)
        assert sum(1 for ln in lines if ln[0] in "+-") >= w.updates
        assert bench.sample_shortfalls(w, lines) == []


def test_too_few_samples_is_a_failure():
    w = dataclasses.replace(tiny("churn-fast"), updates=200)
    result = bench.run(w, seed=1, seconds=0, trace=False)
    assert not result.correct
    assert any("update p99" in f for f in result.failures)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_declared_metric(name, trace, monkeypatch,
                                              capsys):
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(name))
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_injected_audit_violation_is_reported(monkeypatch, capsys):
    name = "density-audit"
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(bench, "audit_state",
                        lambda stack: ["injected violation"])
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", "0"])
    captured = capsys.readouterr()
    out = json.loads(captured.out.strip().splitlines()[-1])
    assert code != 0
    assert not out["correct"]
    # Every `! audit` op fails, plus the end-of-pass audit, in every pass.
    audits = bench.workload_lines(tiny(name), 5).count("! audit")
    assert out["failed"] == bench.LATENCY_PASSES * (audits + 1)
    assert "injected violation" in captured.err
    assert all(m["value"] is None for m in out["metrics"].values())


def test_differing_passes_are_a_failure(monkeypatch):
    real = bench.run_pass
    calls = []

    def drifting(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res)
        if len(calls) == 2:
            res.fingerprint["copy_flips"] += 1
        return res

    monkeypatch.setattr(bench, "run_pass", drifting)
    result = bench.run(tiny("churn-fast"), seed=2, seconds=0, trace=True)
    # Untraced and traced passes alternate; failures number untraced first.
    assert len(calls) == 2 * bench.LATENCY_PASSES
    assert result.failures == [
        f"pass {bench.LATENCY_PASSES} differs from pass 0 in ['copy_flips']"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-fast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_to_the_reference_speed():
    # The loop ran at half the reference speed, then at the reference speed
    # from the second update on: the first update's time is scaled by the
    # mean of the loop times around it, the second's by the reference.
    ref = bench.REF_CAL_NS
    p = bench.PassResult(setup_ns=[10**9] * 3, parse_ns=[0] * 3,
                         thresholds_ns=[0] * 3, update_ns=[300, 100],
                         attempted=2, cal_ns=[3 * ref, ref, ref],
                         cal_at=[(1, 0, 0)])
    scaled = bench._summarize(p)
    assert list(scaled["update_ns"]) == [150, 100]
    assert p.scale == 1.0    # set-up: the median loop time
    assert p.times["setup_s"] == 1.0
    assert p.times["update_ops_per_s"] == 2 * 1e9 / 250
    assert p.update_ns == []
