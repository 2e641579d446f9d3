"""Workload generation, reference answers and output checks.

A workload is a fixed skeleton of operation slots.  The seed picks, for
every slot, one input from a finite candidate list, so two seeds give
different inputs of comparable size.  Operations are plain JSON-able dicts:
this module builds them in the parent process, and ``passrun.py`` turns them
into library calls in a fresh interpreter.

References never come from the code under test.  Finite crystals and LR
queries are checked against the classical oracles; closures, affine crystals
and CLI output are checked against digests recorded in
``reference_digests.json`` by ``record.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("enumerate", "closure", "lr", "cli")
DIGESTS_PATH = Path(__file__).with_name("reference_digests.json")

# Non-standard periods of A4 (display order); each is a permutation, so the
# zero vector is ample and the generic closure stays small.
A4_PERIODS = ("4,2,3,1", "2,4,1,3", "3,1,4,2", "1,3,2,4", "2,1,4,3")

# enumerate: one operation per slot, as (family, periods or None for the
# standard one, system, candidate weights, depth cap).  The candidates of a
# slot differ in shape but cost the same to enumerate (their Python call
# counts agree within about 3%), so the seed changes the inputs and not the
# amount of work.  Every operation realizes a few hundred elements and takes
# well under 0.1 s, so that the calibrations on either side of it catch the
# machine's speed while it runs (see README.md).
_A4 = ("an:4", None, "closed", [(3, 0, 0, 2), (0, 0, 2, 2), (2, 1, 0, 1), (2, 0, 0, 3)], None)
_A5 = ("an:5", None, "closed", [(0, 2, 0, 0, 1), (1, 0, 1, 0, 1), (1, 0, 0, 2, 0)], None)
_B2 = ("rank2:1,2", None, "closed", [(2, 7), (4, 4), (5, 3), (8, 1)], None)
_G2 = ("rank2:1,3", None, "closed", [(4, 0), (0, 6), (2, 2)], None)
_A4_GENERIC = ("an:4", A4_PERIODS[:3], "generic", [(1, 0, 1, 2), (2, 1, 0, 1)], None)
_AFFINE3 = ("affine-a:3", None, "closed", [(2, 1, 0), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (0, 1, 2)], 8)
ENUMERATE_SLOTS = {
    False: [*[_A4] * 4, *[_A5] * 3, *[_B2] * 3, *[_G2] * 2, *[_A4_GENERIC] * 4, *[_AFFINE3] * 5],
    True: [
        ("an:4", None, "closed", [(1, 0, 0, 1), (0, 1, 1, 0)], None),
        ("rank2:1,3", None, "closed", [(1, 0), (0, 1)], None),
        ("an:4", A4_PERIODS[:2], "generic", [(1, 0, 0, 1), (0, 1, 0, 0)], None),
        ("affine-a:3", None, "closed", [(1, 1, 0), (1, 0, 1)], 6),
    ],
}

# lr: per family, a fixed pool of mu (so mu repeats across queries) and the
# coefficient-sum bound for lambda.  A query's cost is set by its family, its
# mu and its walk depth (the sum of the root offset of nu below lambda + mu),
# so a pass asks a fixed number of queries per (family, mu, depth) stratum and
# the seed picks lambda and nu inside each stratum.  One query per stratum
# asks for a nu whose coefficient is 0, where the stratum has one.
LR_FAMILIES = [
    ("an:2", [(1, 1), (2, 1), (1, 2)], 3),
    ("an:3", [(1, 0, 1), (0, 1, 0), (1, 1, 0)], 2),
    ("rank2:1,2", [(1, 1), (2, 0), (0, 2)], 3),
    ("rank2:1,3", [(1, 0), (0, 1), (1, 1)], 2),
]
LR_MAX_DEPTH = {False: 5, True: 2}
LR_PER_STRATUM = {False: 8, True: 1}

# cli: four draws of every short command, then verify at max weight 2 on
# five root data; the choices of a slot cost the same to run.  verify on an:3
# and rank2:1,3 takes about a second each and does most of the pass's work,
# chiefly its per-nu rebuild of mu's crystal.
CLI_COMMANDS = ("inequalities", "enumerate", "mult", "lr", "epsstar", "check-positivity", "check-ample", "verify")
_CLI_SHORT = [
    ("--family an:3 --lambda {} inequalities", ["2,0,1", "1,1,1", "0,2,2"]),
    ("--family rank2:1,3 --lambda {} inequalities --format json", ["2,1", "1,2", "3,0", "1,1"]),
    ("--family an:3 --iota {} --lambda 1,1,1 inequalities --generic --format json",
     ["2,3,1", "1,3,2", "3,1,2", "2,1,3"]),
    ("--family an:3 --lambda {} enumerate", ["2,1,1", "1,1,2"]),
    ("--family rank2:1,2 --lambda {} enumerate --format json", ["2,2", "3,1"]),
    ("--family an:2 --lambda {} enumerate --format dot", ["3,1", "1,3"]),
    ("--family an:3 --lambda {} mult --m 2,2,2", ["2,1,1", "1,1,2", "1,2,1"]),
    ("--family rank2:1,3 {}", ["--lambda 1,1 lr --mu 1,0 --nu 1,1", "--lambda 1,0 lr --mu 0,1 --nu 0,1",
                               "--lambda 0,1 lr --mu 1,0 --nu 0,1"]),
    ("--family an:3 epsstar --x {} --i 2", ["1,1,1,0,1", "1,1,1", "2,1,1,0,1", "1,0,1"]),
    ("--family an:3 --iota {} check-positivity", ["3,2,1", "1,3,2", "2,3,1"]),
    ("--family an:4 --iota 4,2,3,1 --lambda {} check-ample", ["1,0,0,1", "0,1,1,0", "1,1,0,0", "0,0,1,1"]),
]
CLI_SLOTS = {
    False: [*_CLI_SHORT * 4,
            *[(f"--family {family} verify --max-weight {{}}", [weight])
              for family, weight in [("an:2", "2"), ("rank2:1,1", "2"), ("rank2:1,2", "2"), ("an:3", "2"),
                                     ("rank2:1,3", "2")]]],
    True: [
        ("--family an:2 --lambda {} inequalities", ["1,1", "2,0"]),
        ("--family an:2 --lambda {} inequalities --format json", ["1,1", "0,2"]),
        ("--family an:2 --lambda {} enumerate", ["1,1", "2,0"]),
        ("--family an:2 --lambda {} enumerate --format json", ["1,1", "0,2"]),
        ("--family an:2 --lambda {} enumerate --format dot", ["1,1", "1,0"]),
        ("--family an:2 --lambda {} mult --m 1,1", ["1,1", "2,1"]),
        ("--family rank2:1,1 --lambda {} lr --mu 1,0 --nu 0,1", ["1,0", "2,1"]),
        ("--family rank2:1,1 epsstar --x {} --i 1", ["2,1", "1,1"]),
        ("--family an:3 --iota {} check-positivity", ["2,3,2,1", "3,2,1"]),
        ("--family rank2:2,2 --lambda {} check-ample", ["1,1", "1,0"]),
        ("--family an:2 verify --max-weight {}", ["1"]),
        ("--family rank2:1,1 verify --max-weight {}", ["1"]),
    ],
}


def _dominant(rank: int, bound: int):
    """Dominant coefficient vectors with 1 <= sum <= bound, in a fixed order."""
    return [co for co in itertools.product(range(bound + 1), repeat=rank) if 0 < sum(co) <= bound]


AFFINE3_PERIODS = ("3,2,1", "1,2,3", "2,3,1", "1,3,2", "3,1,2", "2,1,3")
# closure: affine closures of one to two thousand forms do most of the work
# (seven of about 470k Python calls, eight of about 340k, two of about 250k),
# plus nine light checks, closures and closed-form builders.  Within a slot
# the choices cost the same, and no operation takes much over 0.1 s, so the
# calibrations on either side of each one catch the machine's speed while it
# runs (see README.md); the median latency falls among the
# 340k-call closures and the 90th percentile among the 470k-call ones.
_AFFINE4_HAT = [{"op": "hat", "family": "affine-a:4", "iota": None, "lam": list(co), "support": 16}
                for co in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
_AFFINE4_POSITIVITY = [{"op": "positivity", "family": "affine-a:4", "iota": None, "support": 17}]
_AFFINE3_HAT = [{"op": "hat", "family": "affine-a:3", "iota": None, "lam": list(co), "support": 13}
                for co in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]
_AFFINE3_POSITIVITY = [{"op": "positivity", "family": "affine-a:3", "iota": p, "support": 14} for p in AFFINE3_PERIODS]
_AFFINE3_XI = [{"op": "xi", "family": "affine-a:3", "iota": None, "support": 14}]

CLOSURE_SLOTS = {
    False: [
        *[_AFFINE4_HAT] * 4,
        *[_AFFINE4_POSITIVITY] * 3,
        *[_AFFINE3_HAT] * 4,
        *[_AFFINE3_POSITIVITY] * 4,
        *[_AFFINE3_XI] * 2,
        [{"op": "xi", "family": "affine-a:4", "iota": None, "support": 14}],
        [{"op": "xi", "family": "an:4", "iota": p, "support": 24} for p in A4_PERIODS],
        [{"op": "hat", "family": "an:4", "iota": p, "lam": list(co), "support": 24}
         for p in A4_PERIODS for co in [(1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1)]],
        [{"op": "positivity", "family": f, "iota": p, "support": 20}
         for f, p in [("an:3", "2,3,2,1"), ("rank2:2,2", None), ("rank2:1,3", "1,2")]],
        [{"op": "ample", "family": "an:4", "iota": p, "lam": list(co), "support": 20}
         for p in A4_PERIODS for co in [(1, 0, 0, 1), (0, 1, 1, 0)]],
        [{"op": "ample", "family": f, "iota": p, "lam": list(co), "support": 20}
         for f, p, co in [("an:3", "2,3,2,1", (0, 1, 0)), ("an:3", "2,3,2,1", (1, 0, 1)),
                          ("rank2:2,2", None, (1, 1)), ("rank2:1,3", "1,2", (1, 1))]],
        [{"op": "builder", "family": "affine-a:4", "lam": list(co), "rows": 5, "k_bound": 10}
         for co in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)]],
        [{"op": "builder", "family": "an:5", "lam": list(co)} for co in _dominant(5, 2)[:6]]
        + [{"op": "builder", "family": "rank2:1,3", "lam": list(co)} for co in [(1, 1), (2, 1), (1, 2)]],
        [{"op": "builder", "family": "rank2:2,2", "lam": list(co), "window": 12} for co in [(1, 1), (2, 0), (0, 2)]],
    ],
    True: [
        [{"op": "hat", "family": "affine-a:3", "iota": None, "lam": list(co), "support": 10}
         for co in [(0, 0, 0), (1, 0, 0)]],
        [{"op": "positivity", "family": "an:3", "iota": p, "support": 12} for p in ["2,3,2,1", "3,2,1"]],
        [{"op": "ample", "family": "an:3", "iota": "2,3,2,1", "lam": list(co), "support": 12}
         for co in [(0, 1, 0), (1, 0, 1)]],
        [{"op": "xi", "family": "an:4", "iota": p, "support": 12} for p in A4_PERIODS[:2]],
        [{"op": "builder", "family": "affine-a:3", "lam": list(co), "rows": 3, "k_bound": 4}
         for co in [(1, 0, 0), (0, 1, 0)]],
        [{"op": "builder", "family": "an:3", "lam": list(co)} for co in [(1, 0, 1), (0, 1, 0)]],
        [{"op": "builder", "family": "rank2:2,2", "lam": list(co), "window": 6} for co in [(1, 1), (2, 0)]],
    ],
}


def digest(obj) -> str:
    """A short stable hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def op_key(op: dict) -> str:
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


def weights_digest(by_weight: dict) -> str:
    """Digest of a weight -> multiplicity map, keyed by root offsets."""
    return digest(sorted([list(k), v] for k, v in by_weight.items()))


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _enumerate_op(family, period, system, lam, depth) -> dict:
    return {"op": "enumerate", "family": family, "iota": period, "lam": list(lam), "system": system,
            "depth": depth}


def enumerate_ops(rng, tiny: bool) -> list[dict]:
    return [_enumerate_op(family, rng.choice(periods) if periods else None, system, rng.choice(lams), depth)
            for family, periods, system, lams, depth in ENUMERATE_SLOTS[tiny]]


def closure_ops(rng, tiny: bool) -> list[dict]:
    return [dict(rng.choice(slot)) for slot in CLOSURE_SLOTS[tiny]]


def _lr_strata(oracle, c, mu, lam_bound: int, max_depth: int) -> dict:
    """depth -> (pairs (lam, nu) with a nonzero coefficient, pairs with coefficient 0).

    nu runs over the dominant weights of the module with top lam + mu, so
    its root offset is a nonnegative integer vector and the walk runs."""
    strata = {}
    for lam in _dominant(c.rank, lam_bound):
        top = [a + b for a, b in zip(lam, mu)]
        decomposition = oracle.tensor_decomposition(c, lam, mu)
        for m in sorted(oracle.weight_system(c, tuple(top))):
            if not 1 <= sum(m) <= max_depth:
                continue
            nu = tuple(top[i] - sum(c.matrix[i][j] * m[j] for j in range(c.rank)) for i in range(c.rank))
            if min(nu) >= 0:
                strata.setdefault(sum(m), ([], []))[nu not in decomposition].append((lam, nu))
    return strata


def lr_ops(pc, rng, tiny: bool) -> list[dict]:
    from polycrystal import oracle

    ops = []
    per = LR_PER_STRATUM[tiny]
    for family, mus, bound in LR_FAMILIES:
        c = pc.build_cartan(family)
        for mu in mus[: 1 if tiny else None]:
            strata = _lr_strata(oracle, c, mu, bound, LR_MAX_DEPTH[tiny])
            for depth in sorted(strata):
                nonzero, zero = strata[depth]
                picks = [rng.choice(zero)] if zero else []
                picks += [rng.choice(nonzero or zero) for _ in range(per - len(picks))]
                ops += [{"op": "lr", "family": family, "lam": list(lam), "mu": list(mu), "nu": list(nu)}
                        for lam, nu in picks]
    rng.shuffle(ops)
    return ops


def cli_ops(rng, tiny: bool) -> list[dict]:
    return [{"op": "cli", "argv": template.format(rng.choice(choices)).split()}
            for template, choices in CLI_SLOTS[tiny]]


def generate(pc, workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The operations of one pass, a pure function of (workload, seed, tiny)."""
    rng = _rng(workload, seed)
    if workload == "enumerate":
        return enumerate_ops(rng, tiny)
    if workload == "closure":
        return closure_ops(rng, tiny)
    if workload == "lr":
        return lr_ops(pc, rng, tiny)
    if workload == "cli":
        return cli_ops(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def catalog(tiny: bool) -> list[dict]:
    """Every operation whose reference is a recorded digest."""
    ops = [_enumerate_op(family, None, system, lam, depth)
           for family, periods, system, lams, depth in ENUMERATE_SLOTS[tiny] if depth is not None
           for lam in lams]
    ops += [dict(op) for slot in CLOSURE_SLOTS[tiny] for op in slot]
    ops += [{"op": "cli", "argv": t.format(ch).split()} for t, choices in CLI_SLOTS[tiny] for ch in choices]
    return list({op_key(op): op for op in ops}.values())


def references(pc, ops: list[dict], recorded: dict) -> list:
    """One reference per operation: oracle values where the oracle applies,
    recorded digests otherwise.  ``None`` marks an operation with no reference,
    which the check counts as a failure."""
    from polycrystal import oracle

    refs = []
    for op in ops:
        if op["op"] == "lr":
            c = pc.build_cartan(op["family"])
            w = [pc.Weight(c, tuple(op[k])) for k in ("lam", "mu", "nu")]
            refs.append(pc.char_product_lr(c, *w))
        elif op["op"] == "enumerate" and op["depth"] is None:
            c = pc.build_cartan(op["family"])
            lam = tuple(op["lam"])
            refs.append({
                "n": pc.weyl_dim(c, pc.Weight(c, lam)),
                "complete": True,
                "by_weight": weights_digest(oracle.weight_system(c, lam)),
            })
        else:
            refs.append(recorded.get(op_key(op)))
    return refs


def matches(output, reference) -> bool:
    """Whether an operation's output agrees with its reference.

    Dict references name the fields they fix; other output fields (such as
    digests the reference does not cover) are ignored.
    """
    if reference is None or output is None:
        return False
    if isinstance(reference, dict):
        return isinstance(output, dict) and all(output.get(k) == v for k, v in reference.items())
    return output == reference


def properties(workload: str, ops: list[dict], recorded: dict, refs: list) -> dict:
    """Measured input properties of one pass, for the provenance record."""
    props = {"ops_per_pass": len(ops)}
    if workload == "enumerate":
        props["elements_per_pass"] = sum(r["n"] for r in refs if isinstance(r, dict))
    elif workload == "closure":
        outs = [recorded.get(op_key(op), {}) for op in ops]
        closures = [o for o in outs if "truncated" in o]
        props["forms_per_pass"] = sum(o.get("forms", 0) for o in outs)
        props["closures"] = len(closures)
        # A closure that hits its budget returns its partial set, which is marked truncated.
        props["truncated_or_budget_share"] = round(sum(o["truncated"] for o in closures) / max(1, len(closures)), 4)
    elif workload == "lr":
        seen = set()
        repeats = 0
        for op in ops:
            key = (op["family"], tuple(op["mu"]))
            repeats += key in seen
            seen.add(key)
        props["mu_repeat_share"] = round(repeats / len(ops), 4)
        props["zero_answer_share"] = round(sum(1 for r in refs if r == 0) / len(ops), 4)
    elif workload == "cli":
        props["commands"] = sorted({next(t for t in op["argv"] if t in CLI_COMMANDS) for op in ops})
    return props
