"""Layer tracer for the traced benchmark pass.

It measures the library from outside: for each boundary it looks up the
function object a module defines and rebinds every name in the package that
refers to it (the defining module's own global and the names other modules
imported) to a wrapper.  Timed boundaries record a span (name, start, end,
parent) in memory; the hottest fine-grained boundaries are only counted, so
their wrappers do not inflate the coarse spans.  Per-call costs of the
counted boundaries, and of a few timed ones, come afterwards from calling
the original functions directly on inputs captured during the pass.

A boundary the tracer cannot find is reported as missing, never as zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

PACKAGE = "polycrystal"

# (span name, module, attribute).  Several attributes may share a span name.
TIMED = [
    ("crystal.f_tilde", "crystal", "f_tilde"),
    ("crystal.epsilon", "crystal", "epsilon"),
    ("crystal.lattice_graph_dot", "crystal", "lattice_graph_dot"),
    ("realization.enumerate", "realization", "enumerate_blambda"),
    ("realization.member", "realization", "member"),
    ("realization.lr", "realization", "lr_coefficient"),
    ("realization.weight_multiplicity", "realization", "weight_multiplicity"),
    ("realization.epsilon_star", "realization", "epsilon_star"),
    ("linforms.closure", "linforms", "generate_closure"),
    ("linforms.check_ample", "linforms", "check_ample"),
    ("linforms.check_positivity", "linforms", "check_positivity"),
    ("special.system", "special", "an_system"),
    ("special.system", "special", "rank2_system"),
    ("special.system", "special", "affine_a_system"),
    ("special.admissible", "special", "enumerate_admissible"),
    ("oracle.weyl_dim", "oracle", "weyl_dim"),
    ("oracle.weight_system", "oracle", "weight_system"),
    ("oracle.tensor_decomposition", "oracle", "tensor_decomposition"),
    ("oracle.char_product_lr", "oracle", "char_product_lr"),
    ("oracle.freudenthal", "oracle", "freudenthal"),
    ("cli.main", "cli", "main"),
]
# Counted, not timed: (counter name, module, attribute path, sample stride).
COUNTED = [
    ("iota.index", "iota", "IotaSequence.index", 211),
    ("cartan.pairing", "cartan", "CartanData.pairing", 101),
    ("linforms.s_hat", "linforms", "s_hat", 97),
    ("linforms.s_plain", "linforms", "s_plain", 97),
]
SAMPLE_CAP = {"iota.index": 4000, "cartan.pairing": 4000, "linforms.s_hat": 2000,
              "crystal.f_tilde": 300, "realization.member": 300}
SAMPLE_STRIDE = {"crystal.f_tilde": 53, "realization.member": 29}
LAYERS = ("cartan", "iota", "crystal", "linforms", "special", "realization", "oracle", "cli")


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    for suffix, unit in (("ns_per_call", "ns"), ("us_per_call", "us"), ("_ratio", "ratio"), ("_bytes", "bytes"),
                         ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name by span index
        self.spans: list[tuple | None] = []  # (name, start_ns, end_ns, parent)
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {}
        self.originals: dict[str, object] = {}
        self.installed: set[str] = set()  # span and counter names with at least one boundary found
        self.missing: list[str] = []  # boundaries not found, as module.attribute
        self.zero = None  # the crystal's annihilator, to count f_tilde calls that return it
        self._cells: dict[str, list[int]] = {}
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.names.append(name)
        self.spans.append(None)
        self.stack.append(idx)
        return time.perf_counter_ns()

    def leave(self, name: str, start: int) -> int:
        end = time.perf_counter_ns()
        idx = self.stack.pop()
        self.spans[idx] = (name, start, end, self.stack[-1])
        return self.stack[-1]

    # -- installation ----------------------------------------------------
    def _rebind(self, original, wrapper, owner, name) -> None:
        """Point every package name bound to ``original`` at ``wrapper``."""
        targets = [(owner, name)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original and (mod, attr) != (owner, name):
                    targets.append((mod, attr))
        for obj, attr in targets:
            self._restore.append((obj, attr, original))
            setattr(obj, attr, wrapper)

    def install(self) -> None:
        crystal = _resolve("crystal", "ZERO")
        self.zero = crystal[2] if crystal else None
        for name, module, attr in TIMED:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, attr_name, original = found
            self.installed.add(name)
            self.originals[f"{module}.{attr}"] = original
            self._rebind(original, self._timed(name, original), owner, attr_name)
        for name, module, path, stride in COUNTED:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr_name, original = found
            self.installed.add(name)
            self.originals[name] = original
            self._rebind(original, self._counted(name, original, stride), owner, attr_name)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def _counted(self, name, original, stride):
        cell = self._cells[name] = [0]
        samples = self.samples.setdefault(name, [])
        cap = SAMPLE_CAP.get(name, 0)

        def counted(*args, **kwargs):
            n = cell[0] = cell[0] + 1
            if n % stride == 0 and len(samples) < cap:
                samples.append(args)
            return original(*args, **kwargs)

        return counted

    def _timed(self, name, original):
        after = _AFTER.get(name)
        stride = SAMPLE_STRIDE.get(name)
        samples = self.samples.setdefault(name, [])
        cap = SAMPLE_CAP.get(name, 0)
        tracer = self
        counts = self.counts

        def timed(*args, **kwargs):
            counts[name] += 1
            if stride is not None and counts[name] % stride == 0 and len(samples) < cap:
                samples.append(args)
            start = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.leave(name, start)
                if name == "linforms.closure" and hasattr(exc, "partial"):
                    counts["linforms.budget_hits"] += 1
                    counts["linforms.forms"] += len(exc.partial)
                raise
            parent = tracer.leave(name, start)
            if after is not None:
                after(tracer, result, parent)
            return result

        return timed

    def flush_counts(self) -> None:
        for name, cell in self._cells.items():
            self.counts[name] = cell[0]

    def parent_name(self, parent: int) -> str:
        return self.names[parent] if parent >= 0 else ""

    # -- results ---------------------------------------------------------
    def self_times(self) -> dict[str, int]:
        """Self time in ns per span name: duration minus covered child time."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Counter = Counter()
        for idx, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] += span[2] - span[1] - child[idx]
        return dict(out)

    def dump(self) -> dict:
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        return {"names": names, "spans": [[code[s[0]], s[1], s[2], s[3]] for s in self.spans]}


def _after_f_tilde(tracer, result, parent):
    if result is tracer.zero:
        tracer.counts["crystal.f_tilde.zero"] += 1
    elif tracer.parent_name(parent) == "realization.enumerate":
        tracer.counts["realization.children"] += 1


def _after_enumerate(tracer, result, parent):
    tracer.counts["realization.elements"] += len(result)
    tracer.counts["realization.bfs_levels"] += result.depth_used
    if tracer.parent_name(parent) == "realization.lr":
        tracer.counts["realization.lr.scanned"] += len(result.elements)


def _after_lr(tracer, result, parent):
    tracer.counts["realization.lr.coefficients"] += result


def _after_closure(tracer, result, parent):
    tracer.counts["linforms.forms"] += len(result)
    tracer.counts["linforms.truncated"] += bool(result.truncated)


def _after_system(tracer, result, parent):
    tracer.counts["special.forms"] += len(result)


def _after_admissible(tracer, result, parent):
    tracer.counts["special.admissible.matrices"] += len(result)


_AFTER = {
    "crystal.f_tilde": _after_f_tilde,
    "realization.enumerate": _after_enumerate,
    "realization.lr": _after_lr,
    "linforms.closure": _after_closure,
    "special.system": _after_system,
    "special.admissible": _after_admissible,
}


def per_call_ns(fn, samples, repeat: int = 3) -> float:
    """Best-of-``repeat`` cost of ``fn(*args)`` over the captured samples, with
    the bare loop's cost subtracted; 0.0 when nothing was captured."""
    if fn is None or not samples:
        return 0.0
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        for args in samples:
            fn(*args)
        t1 = time.perf_counter_ns()
        for args in samples:
            pass
        t2 = time.perf_counter_ns()
        cost = (t1 - t0) - (t2 - t1)
        best = cost if best is None else min(best, cost)
    return max(best, 0) / len(samples)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_ns: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the raw self time per layer.

    Metrics whose boundary is missing are left out.
    """
    tracer.flush_counts()
    c = tracer.counts
    self_ns = tracer.self_times()
    per_layer = Counter()
    for name, ns in self_ns.items():
        per_layer[name.split(".")[0]] += ns
    orig = tracer.originals
    samples = tracer.samples
    f_samples = samples.get("crystal.f_tilde", [])
    points = [(b.point, i) for b, i in f_samples if hasattr(b, "point")]
    sigma_max = getattr(sys.modules.get(f"{PACKAGE}.crystal"), "sigma_max", None)

    def s(name):
        return self_ns.get(name, 0) / 1e9

    produced = c["realization.children"]
    new = c["realization.elements"] - c["realization.enumerate"]
    rewrites = c["linforms.s_hat"] + c["linforms.s_plain"]
    metrics = {
        "iota.index.calls": (c["iota.index"], "iota.index"),
        "iota.index.ns_per_call": (per_call_ns(orig.get("iota.index"), samples.get("iota.index")), "iota.index"),
        "cartan.pairing.calls": (c["cartan.pairing"], "cartan.pairing"),
        "cartan.pairing.ns_per_call": (
            per_call_ns(orig.get("cartan.pairing"), samples.get("cartan.pairing")), "cartan.pairing"),
        "crystal.f_tilde.calls": (c["crystal.f_tilde"], "crystal.f_tilde"),
        "crystal.f_tilde.self_s": (s("crystal.f_tilde"), "crystal.f_tilde"),
        "crystal.f_tilde.us_per_call": (per_call_ns(orig.get("crystal.f_tilde"), f_samples) / 1e3, "crystal.f_tilde"),
        "crystal.f_tilde.zero_ratio": (ratio(c["crystal.f_tilde.zero"], c["crystal.f_tilde"]), "crystal.f_tilde"),
        "crystal.sigma_max.us_per_call": (per_call_ns(sigma_max, points) / 1e3, "crystal.sigma_max"),
        "crystal.epsilon.calls": (c["crystal.epsilon"], "crystal.epsilon"),
        "crystal.epsilon.self_s": (s("crystal.epsilon"), "crystal.epsilon"),
        "crystal.self_s": (per_layer["crystal"] / 1e9, None),
        "realization.enumerate.calls": (c["realization.enumerate"], "realization.enumerate"),
        "realization.enumerate.self_s": (s("realization.enumerate"), "realization.enumerate"),
        "realization.elements": (c["realization.elements"], "realization.enumerate"),
        "realization.bfs_levels": (c["realization.bfs_levels"], "realization.enumerate"),
        "realization.dup_ratio": (ratio(produced - new, produced), "crystal.f_tilde"),
        "realization.member.calls": (c["realization.member"], "realization.member"),
        "realization.member.self_s": (s("realization.member"), "realization.member"),
        "realization.member.us_per_call": (
            per_call_ns(orig.get("realization.member"), samples.get("realization.member")) / 1e3,
            "realization.member"),
        "realization.lr.calls": (c["realization.lr"], "realization.lr"),
        "realization.lr.self_s": (s("realization.lr"), "realization.lr"),
        "realization.lr.scanned": (c["realization.lr.scanned"], "realization.lr"),
        "realization.lr.match_ratio": (
            ratio(c["realization.lr.coefficients"], c["realization.lr.scanned"]), "realization.lr"),
        "realization.self_s": (per_layer["realization"] / 1e9, None),
        "linforms.closure.calls": (c["linforms.closure"], "linforms.closure"),
        "linforms.closure.self_s": (s("linforms.closure"), "linforms.closure"),
        "linforms.forms": (c["linforms.forms"], "linforms.closure"),
        "linforms.rewrites": (rewrites, "linforms.s_hat"),
        "linforms.s_hat.us_per_call": (
            per_call_ns(orig.get("linforms.s_hat"), samples.get("linforms.s_hat")) / 1e3, "linforms.s_hat"),
        "linforms.new_form_ratio": (ratio(c["linforms.forms"], rewrites), "linforms.s_hat"),
        "linforms.truncated": (c["linforms.truncated"], "linforms.closure"),
        "linforms.budget_hits": (c["linforms.budget_hits"], "linforms.closure"),
        "linforms.self_s": (per_layer["linforms"] / 1e9, None),
        "special.system.calls": (c["special.system"], "special.system"),
        "special.system.self_s": (s("special.system"), "special.system"),
        "special.forms": (c["special.forms"], "special.system"),
        "special.admissible.matrices": (c["special.admissible.matrices"], "special.admissible"),
        "special.self_s": (per_layer["special"] / 1e9, None),
        "oracle.calls": (sum(v for k, v in c.items() if k.startswith("oracle.")), "oracle.weyl_dim"),
        "oracle.self_s": (per_layer["oracle"] / 1e9, "oracle.weyl_dim"),
        "cli.commands": (c["cli.main"], "cli.main"),
        "cli.self_s": (per_layer["cli"] / 1e9, "cli.main"),
        "trace.wall_s": (wall_ns / 1e9, None),
        "trace.unattributed_s": ((wall_ns - sum(per_layer[layer] for layer in LAYERS)) / 1e9, None),
    }
    found = tracer.installed | ({"crystal.sigma_max"} if sigma_max is not None else set())
    out = {name: value for name, (value, needs) in metrics.items() if needs is None or needs in found}
    return out, {layer: per_layer[layer] / 1e9 for layer in LAYERS}
