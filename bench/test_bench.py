"""The benchmark's own tests.

    python3 -m pytest -q bench

They run the benchmark at tiny size and check its contract, its correctness
gate, its seeding and its tracer.  They live outside the library's test
paths, so the library's tier-1 suite does not collect them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
import polycrystal as pc  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(last)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_without_errors(workload):
    detail, result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["error_rate"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    detail, result = _bench(workload, 1)
    assert result["correct"] and detail["error_rate"] == 0
    assert detail["missing_boundaries"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(detail["layer_self_s"].values())
    wall = result["metrics"]["trace.wall_s"]["value"]
    assert layers + result["metrics"]["trace.unattributed_s"]["value"] == pytest.approx(wall)


@pytest.mark.parametrize("workload,corrupt", [
    ("lr", lambda ref: ref + 1),
    ("closure", lambda ref: dict(ref, digest="0" * 24)),
    ("enumerate", lambda ref: dict(ref, n=ref["n"] + 1)),
])
def test_corrupted_reference_raises_error_rate(workload, corrupt):
    ops = workloads.generate(pc, workload, 3, tiny=True)
    passes = [run.spawn_pass(ops, False, None)]
    refs = workloads.references(pc, ops, workloads.load_digests())
    attempted, failed, _ = run.check(passes, refs)
    assert attempted == len(ops) and failed == 0
    refs[0] = corrupt(refs[0])
    assert run.check(passes, refs)[1] == 1


def _size(workload, ops):
    recorded = workloads.load_digests()
    props = workloads.properties(workload, ops, recorded, workloads.references(pc, ops, recorded))
    return props.get("elements_per_pass") or props.get("forms_per_pass") or props["ops_per_pass"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_different_inputs_of_comparable_size(workload):
    a = workloads.generate(pc, workload, 1)
    b = workloads.generate(pc, workload, 2)
    assert a != b
    assert _size(workload, a) == pytest.approx(_size(workload, b), rel=0.25)


def test_every_generated_operation_has_a_reference():
    recorded = workloads.load_digests()
    for workload in workloads.WORKLOADS:
        for seed in range(1, 6):
            ops = workloads.generate(pc, workload, seed)
            assert None not in workloads.references(pc, ops, recorded), (workload, seed)


def test_missing_boundary_is_reported_not_zero(monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "TIMED", [("realization.member", "realization", "no_such_member")] + [
        t for t in tracer.TIMED if t[0] != "realization.member"])
    t = tracer.Tracer()
    t.install()
    try:
        c = pc.type_a(2)
        lam = pc.weight(c, "1,1")
        pc.enumerate_blambda(pc.standard_iota(c), lam, pc.an_system(2, lam))
    finally:
        t.uninstall()
    metrics, _ = tracer.layer_metrics(t, 1)
    assert "realization.no_such_member" in t.missing
    assert not any(name.startswith("realization.member") for name in metrics)
    assert metrics["realization.elements"] == 8
