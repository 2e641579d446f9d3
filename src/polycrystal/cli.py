"""Command-line front end.

Commands: inequalities | enumerate | mult | lr | epsstar | check-positivity
| check-ample | verify.  Exit codes: 0 ok, 1 usage or domain error,
2 inconclusive/truncated, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import linforms, oracle, special
from .cartan import InvalidCartanError, Weight, build_cartan, weight, zero_weight
from .crystal import B_INFINITY, LatticePoint, lattice_graph_dot
from .iota import IotaSequence, standard_iota
from .linforms import (
    PLAIN,
    FormSet,
    LinForm,
    check_ample,
    check_positivity,
    forms_to_json,
    generate_closure,
    hat_system,
    xi_form,
)
from .realization import (
    CartanNotInvertibleError,
    IncompleteEnumerationError,
    NotAmpleError,
    StrictPositivityViolatedError,
    enumerate_blambda,
    epsilon_star,
    lr_coefficient,
    member,
    tensor_multiplicities,
    weight_multiplicity,
)

OK, USAGE, INCONCLUSIVE, MISMATCH = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="polycrystal", description=__doc__)
    p.add_argument("--family", required=True, help="rank2:c1,c2 | an:n | affine-a:n | custom:file.json")
    p.add_argument("--iota", help="period in display order, e.g. 3,2,1 (leftmost applied last)")
    p.add_argument("--lambda", dest="lam", help="highest-weight coefficients, e.g. 1,0,2")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "dot"), default="text")
    common.add_argument("--depth", type=int, default=None, help="enumeration depth cap")
    common.add_argument("--support", type=int, default=None, help="support window for closures")
    common.add_argument("--rows", type=int, default=4, help="admissible-matrix row bound")
    common.add_argument("--max-forms", type=int, default=10000)
    common.add_argument("--generic", action="store_true", help="use the operator closure, not closed forms")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("inequalities", parents=[common])
    sub.add_parser("enumerate", parents=[common])
    sp = sub.add_parser("mult", parents=[common])
    sp.add_argument("--m", required=True, help="per-color root-subtraction counts m_1,...,m_n")
    sp = sub.add_parser("lr", parents=[common])
    sp.add_argument("--mu", required=True)
    sp.add_argument("--nu", required=True)
    sp = sub.add_parser("epsstar", parents=[common])
    sp.add_argument("--x", required=True, help="entries x_1,x_2,... in ascending position order")
    sp.add_argument("--i", type=int, required=True, help="color index")
    sub.add_parser("check-positivity", parents=[common])
    sub.add_parser("check-ample", parents=[common])
    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--max-weight", type=int, default=2)
    return p


def _context(args):
    c = build_cartan(args.family)
    s = IotaSequence.from_display(c, args.iota) if args.iota else standard_iota(c)
    lam = weight(c, args.lam) if args.lam else zero_weight(c)
    return c, s, lam


def _default_support(args, s) -> int:
    if args.support is not None:
        return args.support
    return max(12, 4 * s.period_len)


def _system(c, s, lam, args) -> FormSet:
    """The closed form where one exists and describes ``s`` (the standard
    iota), unless --generic; otherwise the highest-weight closure."""
    tag = c.family[0]
    if args.generic or tag == "custom" or s != standard_iota(c):
        return hat_system(s, lam, _default_support(args, s), args.max_forms)
    if tag == "rank2":
        window = None
        if _infinite_rank2(c):
            window = args.support if args.support is not None else 9
        return special.rank2_system(*c.family[1], lam, window)
    if tag == "an":
        return special.an_system(c.rank, lam)
    k_bound = args.support if args.support is not None else 8
    return special.affine_a_system(c.rank, lam, args.rows, k_bound)


def render_inequality(phi: LinForm) -> str:
    """Forms whose variable part is purely negative print as 'c >= terms'."""
    negatives = [(k, -v) for k, v in phi.coeffs if v < 0]
    positives = [(k, v) for k, v in phi.coeffs if v > 0]
    if negatives and not positives:
        lhs = phi.label if phi.label is not None else str(phi.const)
        rhs = " + ".join(f"x_{k}" if v == 1 else f"{v}x_{k}" for k, v in negatives)
        return f"{lhs} >= {rhs}"
    return f"{phi.render()} >= 0"


def _infinite_rank2(c) -> bool:
    return c.family[0] == "rank2" and special.ChebCoeffs(*c.family[1]).l_max is None


def _warn_truncated(fs: FormSet, args) -> int:
    """INCONCLUSIVE, after naming the cause on stderr, if ``fs`` is truncated; else OK."""
    if not fs.truncated:
        return OK
    cause = f"budget of {args.max_forms} forms hit" if fs.budget_hit else "a form escaped the window"
    if not fs.budget_hit and fs.escaped is not None:
        cause += f": {render_inequality(fs.escaped)}"
    print(f"warning: system truncated ({cause}); constraints shown are necessary only", file=sys.stderr)
    return INCONCLUSIVE


def _emit_forms(fs: FormSet, args) -> int:
    if args.format == "json":
        payload = {
            "forms": forms_to_json(fs),
            "truncated": fs.truncated,
            "support_bound": fs.support_bound,
        }
        if fs.zero_beyond is not None:
            payload["zero_beyond"] = fs.zero_beyond
        print(json.dumps(payload, sort_keys=True))
    else:
        for phi in fs.sorted_forms:
            print(render_inequality(phi))
        if fs.zero_beyond is not None:
            print(f"x_k = 0 for k > {fs.zero_beyond}")
    return _warn_truncated(fs, args)


def cmd_inequalities(c, s, lam, args) -> int:
    return _emit_forms(_system(c, s, lam, args), args)


def _default_depth(c, args):
    if args.depth is not None:
        return args.depth
    if c.family[0] == "affine-a" or _infinite_rank2(c):
        return 6
    return None


def cmd_enumerate(c, s, lam, args) -> int:
    fs = _system(c, s, lam, args)
    result = enumerate_blambda(s, lam, fs, _default_depth(c, args))
    if args.format == "json":
        payload = {
            "count": len(result),
            "complete": result.complete,
            "depth": result.depth_used,
            "elements": [{"entries": {str(k): v for k, v in p.entries}} for p in result.elements],
            "by_weight": {",".join(map(str, k)): v for k, v in sorted(result.by_weight.items())},
        }
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "dot":
        print(lattice_graph_dot(result.elements))
    else:
        state = "complete" if result.complete else f"cut at depth {result.depth_used}"
        print(f"{len(result)} elements, {state}")
        for p in result.elements:
            print(p.render())
    return OK if result.complete else INCONCLUSIVE


def cmd_mult(c, s, lam, args) -> int:
    m = tuple(int(v) for v in args.m.split(","))
    if len(m) != c.rank:
        raise UsageError(f"--m needs {c.rank} entries")
    depth = args.depth if args.depth is not None else sum(m) + 1
    fs = _system(c, s, lam, args)
    result = enumerate_blambda(s, lam, fs, depth)
    value = weight_multiplicity(result, m)
    print(value if args.format == "text" else json.dumps({"multiplicity": value}))
    return OK


def cmd_lr(c, s, lam, args) -> int:
    mu = weight(c, args.mu)
    nu = weight(c, args.nu)
    value = lr_coefficient(s, lam, mu, nu, fs=_system(c, s, mu, args))
    print(value if args.format == "text" else json.dumps({"coefficient": value}))
    return OK


def cmd_epsstar(c, s, lam, args) -> int:
    if args.i not in c.indices:
        raise UsageError(f"--i must lie in 1..{c.rank}")
    values = [int(v) for v in args.x.split(",")]
    x = LatticePoint.build(s, zero_weight(c), values, B_INFINITY)
    n = _default_support(args, s)
    units = generate_closure(s, None, [LinForm.unit(k) for k in range(1, n + 1)], PLAIN, n, args.max_forms)
    closures = {i: generate_closure(s, None, [xi_form(s, i)], PLAIN, n, args.max_forms) for i in c.indices}
    for i, fs in closures.items():
        rep = check_positivity(fs, s, strict=True)
        if not rep:
            raise StrictPositivityViolatedError(f"color {i} closure breaks strict positivity")
    rep = check_positivity(units, s)
    if not rep:
        raise StrictPositivityViolatedError("the weight-free closure breaks positivity")
    if not member(x, units):
        raise ValueError("the point violates the weight-free system; not a realization element")
    target = closures[args.i]
    value = epsilon_star(x, args.i, target)
    print(value if args.format == "text" else json.dumps({"epsilon_star": value}))
    # Every unit closure escapes its window, so only its budget hit counts.
    code = _warn_truncated(target, args)
    return _warn_truncated(units, args) if units.budget_hit and not target.budget_hit else code


def cmd_check_positivity(c, s, lam, args) -> int:
    n = _default_support(args, s)
    units = generate_closure(s, None, [LinForm.unit(k) for k in range(1, n + 1)], PLAIN, n, args.max_forms)
    rep = check_positivity(units, s)
    if rep.passed:
        print("positivity: pass" + ("" if rep.conclusive else " (within tested bounds)"))
    else:
        print("positivity: fail")
        for phi, k in rep.violations:
            print(f"  {phi.render()} has coefficient {phi.coeff(k)} at first-occurrence position {k}")
    return OK if rep.conclusive else _warn_truncated(units, args)


def cmd_check_ample(c, s, lam, args) -> int:
    n = _default_support(args, s)
    rep = check_ample(s, lam, n, args.max_forms)
    if rep.ample:
        print("ample: yes" + ("" if rep.conclusive else " (within tested bounds)"))
    else:
        print(f"ample: no (witness: {rep.witness.render()} has constant {rep.witness.const})")
    return OK if rep.conclusive else _warn_truncated(rep.system, args)


def _dominant_weights(c, bound):
    """Dominant weights with coefficient sum <= bound, in lexicographic order."""
    return [Weight(c, co) for co in itertools.product(range(bound + 1), repeat=c.rank) if sum(co) <= bound]


def cmd_verify(c, s, lam, args) -> int:
    weights = _dominant_weights(c, args.max_weight)
    checked = 0
    crystals = {}
    for w in weights:
        fs = _system(c, s, w, args)
        result = enumerate_blambda(s, w, fs)
        dim = oracle.weyl_dim(c, w)
        if len(result) != dim:
            print(f"mismatch: |B({w.coeffs})| = {len(result)} but dimension is {dim}")
            return MISMATCH
        mults = oracle.weight_system(c, w.coeffs)
        if result.by_weight != mults:
            diff = set(result.by_weight.items()) ^ set(mults.items())
            print(f"mismatch: weight multiplicities differ for {w.coeffs}: {sorted(diff)[:3]}")
            return MISMATCH
        crystals[w.coeffs] = result
        checked += 1
    for w1 in weights:
        for w2 in weights:
            expected = oracle.tensor_decomposition(c, w1.coeffs, w2.coeffs)
            got = tensor_multiplicities(w1, crystals[w2.coeffs])
            for nu in sorted(got.keys() | expected.keys()):
                have, want = got.get(nu, 0), expected.get(nu, 0)
                if have != want:
                    print(f"mismatch: c^{nu}_({w1.coeffs},{w2.coeffs}) = {have}, oracle {want}")
                    return MISMATCH
            checked += len(expected)
    print(f"all checks passed ({checked} comparisons)")
    return OK


_COMMANDS = {
    "inequalities": cmd_inequalities,
    "enumerate": cmd_enumerate,
    "mult": cmd_mult,
    "lr": cmd_lr,
    "epsstar": cmd_epsstar,
    "check-positivity": cmd_check_positivity,
    "check-ample": cmd_check_ample,
    "verify": cmd_verify,
}
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    try:
        c, s, lam = _context(args)
        return _COMMANDS[args.command](c, s, lam, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except linforms.BudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except (
        InvalidCartanError,
        NotAmpleError,
        IncompleteEnumerationError,
        StrictPositivityViolatedError,
        CartanNotInvertibleError,
        oracle.NotFiniteTypeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
