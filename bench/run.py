"""Benchmark runner for polycrystal.

    python3 bench/run.py --workload enumerate|closure|lr|cli --seed N \
        --seconds S --trace 0|1

Generates one pass of operations from the seed, then runs that pass again
and again, each time in a fresh interpreter (``passrun.py``), until the timed
phases add up to ``--seconds``.  One client, closed loop, no threads: the
next operation starts when the previous one returns.  Every 50 ms or so a
pass also times a fixed calibration loop; an operation's latency is the
median over the passes of its time over the calibration time next to it,
given in seconds at the reference speed ``CAL_NOMINAL_NS``.  ``wall_s`` and
the latency percentiles are computed from those.  Every output is checked
against an independent reference (the classical oracles or a recorded
digest) after the timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it carries the details: sample counts, error rate, input properties and the
environment.  Traced runs also write their spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PASS_TIMEOUT_S = 50
DEADLINE_S = 100  # start no new pass after this long, so a run ends well within 180 s
# The calibration loop's time (passrun.calibrate) at the reference speed: its
# median over a run on a 2-vCPU Intel Xeon virtual machine under Python 3.11.
CAL_NOMINAL_NS = 2_700_000

UNIT_NAMES = {"enumerate": "elements_per_s", "closure": "forms_per_s", "lr": "queries_per_s",
              "cli": "commands_per_s"}


class PassFailed(RuntimeError):
    pass


def spawn_pass(ops: list[dict], traced: bool, spans_path: Path | None) -> dict:
    """Run one pass in a new interpreter and return its reply.

    ``setup_s`` is the time from spawning the interpreter to the start of the
    timed phase: start-up, ``import polycrystal`` and building the inputs.
    ``end_to_end`` scales it to the reference speed by the pass's first
    calibration, taken right after it.
    """
    request = json.dumps({"ops": ops, "trace": traced, "spans_path": str(spans_path) if spans_path else None})
    start = time.time()
    proc = subprocess.run([sys.executable, str(BENCH / "passrun.py")], input=request, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    reply["setup_s"] = reply["ready"] - start
    reply["traced"] = traced
    reply["spans_path"] = spans_path
    return reply


def run_passes(ops, seconds: int, trace: bool, spans_stem: str) -> list[dict]:
    """Untraced passes until their timed phases reach ``seconds``; with
    ``trace``, traced and untraced passes alternate (traced first) until both
    kinds together reach it."""
    passes = []
    timed = 0.0
    began = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        spans = OUT / f"{spans_stem}-pass{len(passes)}.json" if traced else None
        reply = spawn_pass(ops, traced, spans)
        passes.append(reply)
        timed += reply["wall_s"]
        enough = timed >= seconds and (not trace or len(passes) >= 2)
        if enough or time.monotonic() - began > DEADLINE_S:
            return passes


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the data (inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_ns(passes: list[dict]) -> list[int]:
    """Each operation's fastest raw time over the passes, for the details."""
    return [min(p["ops"][i]["ns"] for p in passes) for i in range(len(passes[0]["ops"]))]


def calibrated_ns(passes: list[dict]) -> list[float]:
    """Each operation's time at the reference speed: the median over the
    passes of its time over the calibration time next to it, times
    ``CAL_NOMINAL_NS``.

    The machine's speed swings by up to 1.7x for seconds to minutes at a
    time, and the calibration loop slows with it, so the ratio holds steady
    where the raw time does not; a change to the library moves the
    operation's time and not the calibration's."""
    return [statistics.median(p["ops"][i]["ns"] / p["ops"][i]["cal_ns"] for p in passes) * CAL_NOMINAL_NS
            for i in range(len(passes[0]["ops"]))]


def end_to_end(workload: str, passes: list[dict]) -> tuple[dict, dict]:
    latencies = [ns / 1e6 for ns in calibrated_ns(passes)]
    wall = sum(latencies) / 1e3
    units = sum(max(p["ops"][i]["units"] for p in passes) for i in range(len(latencies)))
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] / p["first_cal_ns"] for p in passes) * CAL_NOMINAL_NS, "s"),
        "wall_s": (wall, "s"),
        "units_per_s": (units / wall, "1/s"),
        "latency_p50_ms": (quantile(latencies, 50), "ms"),
        "latency_p90_ms": (quantile(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["maxrss_mb"] for p in passes), "MB"),
    }
    detail = {
        UNIT_NAMES[workload]: units / wall,
        "latency_samples": len(latencies),
        "runs_per_operation": len(passes),
        "median_pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "fastest_runs_wall_s": sum(best_ns(passes)) / 1e9,
        "median_calibration_ms": statistics.median(op["cal_ns"] for p in passes for op in p["ops"]) / 1e6,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def per_layer(passes: list[dict], spans: Path) -> tuple[dict, dict]:
    """The metrics of the traced pass with the median wall time, so that its
    layer self times and unattributed time add up to its wall time, plus the
    tracing overhead; and that pass's self time per layer.  That pass's spans
    are kept at ``spans``; the other traced passes' spans are removed."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    middle = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    for p in traced:
        if p is middle:
            Path(p["spans_path"]).replace(spans)
        else:
            Path(p["spans_path"]).unlink()
    metrics = dict(middle["layer_metrics"])
    metrics["trace.overhead_ratio"] = sum(calibrated_ns(traced)) / sum(calibrated_ns(plain))
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}, middle["layer_self_s"]


def check(passes: list[dict], refs: list) -> tuple[int, int, list]:
    """(attempted, failed, first few failures) over every operation of every pass."""
    attempted = failed = 0
    failures = []
    for n, p in enumerate(passes):
        for i, (result, ref) in enumerate(zip(p["ops"], refs)):
            attempted += 1
            if result["error"] is not None or not workloads.matches(result["out"], ref):
                failed += 1
                if len(failures) < 5:
                    failures.append({"pass": n, "op": i, "error": result["error"], "out": result["out"], "ref": ref})
    return attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "polycrystal" / "__init__.py").is_file():
        print(f"error: no polycrystal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polycrystal as pc

    if Path(pc.__file__).resolve().parent != SRC / "polycrystal":
        print(f"error: imported polycrystal from {pc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops = workloads.generate(pc, args.workload, args.seed, args.tiny)
    stem = f"spans-{args.workload}-seed{args.seed}"
    try:
        passes = run_passes(ops, args.seconds, bool(args.trace), stem)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    recorded = workloads.load_digests()
    refs = workloads.references(pc, ops, recorded)
    attempted, failed, failures = check(passes, refs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "error_rate": failed / attempted,
        "failures": failures,
        "inputs": workloads.properties(args.workload, ops, recorded, refs),
        "warm_at_start": passes[0]["warm"],
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "debug": passes[0]["debug"]},
    }
    if args.trace:
        metrics, detail["layer_self_s"] = per_layer(passes, OUT / f"{stem}.json")
        detail["missing_boundaries"] = sorted(set().union(*(p.get("missing", []) for p in passes)))
    else:
        metrics, extra = end_to_end(args.workload, passes)
        detail.update(extra)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
