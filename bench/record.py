"""Record the reference digests and the workload provenance.

    python3 bench/record.py

Runs every operation whose reference is a recorded digest (closures,
closed-form builders, depth-capped affine crystals, CLI commands; full and
tiny sizes) once with the current library, and writes their checkable
outputs to ``reference_digests.json``.  Run it only on a commit whose
outputs are trusted (the acceptance tests pass); the benchmark then checks
every later commit against these values.

It also writes ``provenance.json``: per workload, the seed-1 pass's size and
measured input properties, plus the environment.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import passrun
import workloads

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import polycrystal as pc
    from polycrystal import cli

    recorded = {}
    for tiny in (False, True):
        for op in workloads.catalog(tiny):
            call, summarize, _ = passrun.materialize(pc, cli, op)
            out = summarize(call())
            if op["op"] == "cli":
                if out["code"] not in (0, 2):
                    raise SystemExit(f"{' '.join(op['argv'])} exits with {out['code']}")
            recorded[workloads.op_key(op)] = out
    workloads.DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    provenance = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(), "debug": __debug__},
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        ops = workloads.generate(pc, name, 1)
        refs = workloads.references(pc, ops, recorded)
        provenance["workloads"][name] = {
            "seed": 1,
            "why": why[name],
            **workloads.properties(name, ops, recorded, refs),
        }
    (BENCH / "provenance.json").write_text(json.dumps(provenance, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
