"""Smoke tests of the benchmark at tiny sizes, span conservation, and the
printed metric names against BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for line in proc.stdout.splitlines()[:-1]:
        assert "CHECK FAILED" not in line


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_span_self_times_conserve():
    """self + children = parent on every node, and the layer self times
    add up to the root, on a real traced chip run."""
    wl = workloads.make("chip-gibbs", 1, "tiny", "")
    wl.setup()
    tracer = spans.Tracer()
    with spans.instrument(tracer), tracer.root("bench.timed") as root:
        wl.run()
    for node in root.nodes():
        kids = node.children + list(node.aggs.values())
        assert node.self_time + sum(k.total for k in kids) == pytest.approx(
            node.total, abs=1e-9)
        assert node.self_time >= -1e-9
    assert sum(tracer.layer_self("bench.timed").values()) == pytest.approx(
        root.total, abs=1e-9)
    assert tracer.calls("bench.timed", ["pe.step"]) > 0
    assert tracer.chip["bench.timed"]["runs"] == 2 * (1 + 2)


def test_instrument_restores_the_program():
    from repro.pe.pe import PE
    from repro.serve import workload as serve_workload
    from repro.system.chip import Chip

    before = (PE.step, Chip.run, serve_workload.generate_requests)
    with spans.instrument(spans.Tracer()):
        assert PE.step is not before[0]
        assert serve_workload.generate_requests is not before[2]
    assert (PE.step, Chip.run, serve_workload.generate_requests) == before


def test_nested_calls_count_once():
    tracer = spans.Tracer()
    with tracer.root("bench.timed"):
        outer = tracer.open("kernels.build")
        inner = tracer.open("kernels.build")
        node, t0 = tracer.agg_enter("pe.step")
        tracer.agg_exit(node, t0)
        tracer.close(inner)
        tracer.close(outer)
    assert tracer.inclusive("bench.timed", ["kernels.build"]) == outer.total
    assert tracer.calls("bench.timed", ["kernels.build", "pe.step"]) == 3


def test_ledger_flags_changed_values(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run._ledger_check("k", "aaa") is None
    assert run._ledger_check("k", "aaa") is None
    assert "differ" in run._ledger_check("k", "bbb")


def test_derived_seeds_are_stable_and_distinct():
    assert workloads.derive_seed(1, "a") == workloads.derive_seed(1, "a")
    assert workloads.derive_seed(1, "a") != workloads.derive_seed(2, "a")
    assert workloads.derive_seed(1, "a") != workloads.derive_seed(1, "b")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "chip-bp", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
