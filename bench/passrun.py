"""One benchmark pass in a fresh interpreter.

Reads ``{"ops": [...], "trace": bool, "spans_path": str | null}`` as JSON on
stdin, builds the library inputs (set-up), runs every operation once in order
(the timed phase), and prints one JSON object on stdout: per-operation
latency, the calibration time next to it, output summary and error, plus the
pass's wall time, peak RSS and, when traced, the per-layer metrics.

Each pass starts in a new interpreter so that the library's module-global
caches never carry over from one pass to the next.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import digest, weights_digest

ROOT = Path(__file__).resolve().parents[1]
CAL_LOOPS = 8000
CAL_EVERY_NS = 50_000_000  # calibrate again once this much operation time has passed


def calibrate() -> int:
    """Nanoseconds a fixed pure-Python loop takes right now.

    The loop hashes small int tuples into a dict, the kind of work the library
    does, but runs none of its code, so its time follows only how fast the
    machine runs at the moment.  The garbage collector is paused inside it,
    so the size of the library's heap cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        d = {}
        for i in range(CAL_LOOPS):
            t = (i % 97, i % 13)
            d[t] = d.get(t, 0) + t[0] * t[1]
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def _family(pc, family: str, iota):
    c = pc.build_cartan(family)
    s = pc.IotaSequence.from_display(c, iota) if iota else pc.standard_iota(c)
    return c, s


def _forms_digest(forms) -> list:
    return sorted([phi.const, [list(t) for t in phi.coeffs]] for phi in forms)


def _closure_summary(fs) -> dict:
    return {"forms": len(fs), "truncated": bool(fs.truncated), "digest": digest(_forms_digest(fs.forms))}


def _closed_system(pc, family: str, lam, op):
    tag, _, rest = family.partition(":")
    if tag == "an":
        return pc.an_system(int(rest), lam)
    if tag == "rank2":
        c1, c2 = (int(v) for v in rest.split(","))
        return pc.rank2_system(c1, c2, lam, op.get("window"))
    if tag == "affine-a":
        return pc.affine_a_system(int(rest), lam, op.get("rows", 4), op.get("k_bound", 8))
    raise ValueError(f"no closed-form system for {family}")


def _hat_closure(pc, s, lam, support: int):
    """Unit seeds plus weight seeds under the highest-weight operator."""
    seeds = [pc.LinForm.unit(k) for k in range(1, support + 1)]
    seeds += [pc.lambda_form(s, lam, i) for i in s.cartan.indices]
    return pc.generate_closure(s, lam, seeds, pc.HAT, support, 10000)


def _plain_closure(pc, s, support: int):
    seeds = [pc.LinForm.unit(k) for k in range(1, support + 1)]
    return pc.generate_closure(s, None, seeds, pc.PLAIN, support, 10000)


def materialize(pc, cli, op: dict):
    """Build the inputs of one operation.

    Returns ``(call, summarize, units)``: ``call`` runs the timed library work,
    ``summarize`` turns its result into a checkable JSON value outside the
    timing, and ``units(summary)`` is the operation's work in the workload's
    unit (elements, forms, queries or commands).
    """
    kind = op["op"]
    if kind == "cli":
        argv = list(op["argv"])

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        return (call, lambda r: {"code": r[0], "digest": digest(r[1]), "bytes": len(r[1].encode())},
                lambda summary: 1)
    if kind == "builder":
        c = pc.build_cartan(op["family"])
        lam = pc.Weight(c, tuple(op["lam"]))
        return (lambda: _closed_system(pc, op["family"], lam, op),
                lambda fs: _closure_summary(fs), lambda summary: summary["forms"])
    c, s = _family(pc, op["family"], op.get("iota"))
    lam = pc.Weight(c, tuple(op["lam"])) if "lam" in op else None
    if kind == "lr":
        mu = pc.Weight(c, tuple(op["mu"]))
        nu = pc.Weight(c, tuple(op["nu"]))
        return (lambda: pc.lr_coefficient(s, lam, mu, nu), lambda r: r, lambda summary: 1)
    if kind == "enumerate":
        def call():
            if op["system"] == "closed":
                fs = _closed_system(pc, op["family"], lam, op)
            else:
                try:
                    fs = _hat_closure(pc, s, lam, max(12, 4 * s.period_len))
                except pc.BudgetExceededError as exc:
                    fs = exc.partial
            return pc.enumerate_blambda(s, lam, fs, op["depth"])

        def summarize(r):
            return {"n": len(r), "complete": r.complete, "by_weight": weights_digest(r.by_weight),
                    "points": digest(sorted([list(t) for t in p.entries] for p in r.elements))}

        return call, summarize, lambda summary: summary["n"]
    if kind == "hat":
        def summarize(r):
            return _closure_summary(r)

        def call():
            try:
                return _hat_closure(pc, s, lam, op["support"])
            except pc.BudgetExceededError as exc:
                return exc.partial

        return call, summarize, lambda summary: summary["forms"]
    if kind == "positivity":
        def call():
            fs = _plain_closure(pc, s, op["support"])
            return fs, pc.check_positivity(fs, s)

        def summarize(r):
            fs, rep = r
            return dict(_closure_summary(fs), passed=rep.passed, conclusive=rep.conclusive,
                        violations=len(rep.violations))

        return call, summarize, lambda summary: summary["forms"]
    if kind == "ample":
        def summarize(rep):
            w = rep.witness
            return {"ample": rep.ample, "conclusive": rep.conclusive,
                    "witness": None if w is None else _forms_digest([w])}

        return (lambda: pc.check_ample(s, lam, op["support"], 10000), summarize, lambda summary: 0)
    if kind == "xi":
        def call():
            return [pc.generate_closure(s, None, [pc.xi_form(s, i)], pc.PLAIN, op["support"], 10000)
                    for i in c.indices]

        def summarize(sets):
            return {"forms": sum(len(fs) for fs in sets), "truncated": any(fs.truncated for fs in sets),
                    "digest": digest([_forms_digest(fs.forms) for fs in sets])}

        return call, summarize, lambda summary: summary["forms"]
    raise ValueError(f"unknown operation {kind!r}")


def warm_caches(pc) -> dict:
    """Entries held by the library's memoized functions, by qualified name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith(pc.__name__ + "."):
            for attr, value in vars(mod).items():
                if callable(getattr(value, "cache_info", None)):
                    out[f"{name}.{attr}"] = value.cache_info().currsize
    return out


def run_pass(request: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import polycrystal as pc
    from polycrystal import cli

    ops = [materialize(pc, cli, op) for op in request["ops"]]
    ready = time.time()
    warm = warm_caches(pc)
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    pending = []  # operations since the last calibration
    last_cal = first_cal = calibrate()
    for n, (call, summarize, units) in enumerate(ops):
        span = tracer.enter("bench.op") if tracer else None
        t0 = time.perf_counter_ns()
        summary = None
        try:
            value, error = call(), None
        except Exception as exc:  # an operation's failure is counted, the pass goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.leave("bench.op", span)
        if error is None:
            try:
                summary = summarize(value)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        del value
        results.append({"ns": t1 - t0, "out": summary, "error": error,
                        "units": units(summary) if summary is not None else 0})
        pending.append(results[-1])
        if sum(r["ns"] for r in pending) >= CAL_EVERY_NS or n == len(ops) - 1:
            cal = calibrate()
            for r in pending:
                r["cal_ns"] = (last_cal + cal) / 2
            last_cal, pending = cal, []
    wall_ns = sum(r["ns"] for r in results)
    if tracer:
        tracer.uninstall()
    reply = {
        "ready": ready,
        "wall_s": wall_ns / 1e9,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "warm": warm,
        "first_cal_ns": first_cal,
        "debug": __debug__,
        "ops": results,
    }
    if tracer:
        from tracer import layer_metrics

        metrics, layers = layer_metrics(tracer, wall_ns)
        if "cli.main" in tracer.installed:
            metrics["cli.output_bytes"] = sum(r["out"].get("bytes", 0) for r in results
                                              if isinstance(r["out"], dict))
        reply["layer_metrics"] = metrics
        reply["layer_self_s"] = layers
        reply["missing"] = tracer.missing
        if request.get("spans_path"):
            path = Path(request["spans_path"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(tracer.dump()))
    return reply


if __name__ == "__main__":
    print(json.dumps(run_pass(json.load(sys.stdin))))
