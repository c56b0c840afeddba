"""The benchmark's own tests: reproducible inputs, checks that catch wrong
output, tracing that leaves output unchanged, and the BENCHMARK.json contract.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracer
from workloads import make_round

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("bell", "spins", "coords", "tps-files")


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def generated(workload: str, seed: int, where: Path) -> dict:
    """Every input file and request argv that round 1 of a workload generates."""
    where.mkdir()
    os.chdir(where)
    reqs = make_round(workload, seed, 1)
    files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
    return {"argv": [r.argv for r in reqs], "files": files}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload, in_tmp):
    first = generated(workload, 7, in_tmp / "a")
    again = generated(workload, 7, in_tmp / "b")
    other = generated(workload, 8, in_tmp / "c")
    assert first == again
    assert first != other


def run_kind(workload: str, kind_prefix: str) -> tuple[harness.Request, harness.Outcome]:
    """Run round 1 up to the first request of the given kind (later requests
    of a tps-files session read what earlier ones wrote)."""
    for req in make_round(workload, 3, 1):
        _, outcome = harness.execute(req)
        assert harness.verify(req, outcome) is None
        if req.kind.startswith(kind_prefix):
            return req, outcome
    raise AssertionError(f"no {kind_prefix} request in {workload}")


def tampered(outcome: harness.Outcome, **changes) -> harness.Outcome:
    return harness.Outcome(**{**outcome.__dict__, **changes})


def test_tampered_chsh_value_fails(in_tmp):
    req, outcome = run_kind("bell", "chsh")
    report = outcome.report()
    report["value"] -= 1e-3
    assert "chsh value" in harness.verify(req, tampered(outcome, stdout=json.dumps(report)))


def test_tampered_schmidt_coefficient_fails(in_tmp):
    req, outcome = run_kind("tps-files", "schmidt-refactored")
    report = outcome.report()
    report["coefficients"][0] += 1e-6
    assert "Schmidt coefficients" in harness.verify(req, tampered(outcome, stdout=json.dumps(report)))


def test_tampered_csv_row_fails(in_tmp):
    req, outcome = run_kind("spins", "demo-spins-csv")
    lines = outcome.stdout.splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[3] = ",".join(cells)
    assert "closed form" in harness.verify(req, tampered(outcome, stdout="\n".join(lines) + "\n"))


def test_tampered_library_result_fails(in_tmp):
    req, outcome = run_kind("tps-files", "disentangle")
    value = dict(outcome.value, rank=2)
    assert "rank 2" in harness.verify(req, tampered(outcome, value=value))


def test_wrong_exit_code_fails(in_tmp):
    req, outcome = run_kind("coords", "demo-coords-json")
    assert "exit code 1" in harness.verify(req, tampered(outcome, code=1))
    bad, rejected = run_kind("coords", "malformed-even-d")
    assert rejected.code == 5
    assert "exit code 0" in harness.verify(bad, tampered(rejected, code=0))
    assert "one 'error:' line" in harness.verify(bad, tampered(rejected, stderr="error: a\nb\n"))


def test_uncaught_exception_fails(in_tmp):
    req = harness.Request("boom", check=lambda o: None, call=lambda: 1 / 0)
    _, outcome = harness.execute(req)
    assert "ZeroDivisionError" in harness.verify(req, outcome)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_match_untraced(workload, in_tmp):
    reqs = make_round(workload, 5, 1)
    plain = [harness.execute(r)[1].fingerprint() for r in reqs]
    t = tracer.Tracer()
    t.install()
    try:
        traced = [harness.execute(r)[1].fingerprint() for r in reqs]
    finally:
        t.uninstall()
    assert traced == plain
    values = t.metrics(1.0, 1.0)
    assert values["cli.calls"] > 0 and values["trace.spans"] > 0
    # uninstall restores the original functions
    import tpslab.cli

    assert not hasattr(tpslab.cli.main, "__wrapped__")


def test_layer_self_times_fit_in_traced_wall(in_tmp):
    reqs = make_round("spins", 5, 1)
    t = tracer.Tracer()
    t.install()
    try:
        wall = sum(harness.execute(r)[0] for r in reqs)
    finally:
        t.uninstall()
    values = t.metrics(wall, wall)
    total = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0 < total <= wall
    assert values["spins.calls"] > 0 and values["linalg.validations"] > 0


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_run_reports_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "coords",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bell", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
