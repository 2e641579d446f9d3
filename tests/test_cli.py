import json

import pytest

import polycrystal as pc
from polycrystal import oracle, special
from polycrystal.cli import _build_parser, _context, _system, main, render_inequality
from polycrystal.linforms import HAT, LinForm, form_from_json, generate_closure, lambda_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_inequalities_rank2_text(capsys):
    code, out, err = run(capsys, "--family", "rank2:2,2", "--lambda", "1,1", "inequalities")
    assert code == 2  # infinite family, truncated window
    assert "lambda_1 >= x_1" in out.splitlines()
    assert "lambda_2 + 2x_1 - x_2 >= 0" in out
    assert "truncated" in err


def test_inequalities_finite_exit_zero(capsys):
    code, out, _ = run(capsys, "--family", "rank2:1,1", "--lambda", "1,1", "inequalities")
    assert code == 0
    assert "lambda_1 >= x_1" in out
    assert "x_k = 0 for k > 3" in out


def test_inequalities_an_json_zero_constants(capsys):
    code, out, _ = run(capsys, "--family", "an:3", "--lambda", "0,0,0", "inequalities", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["forms"] and all(f["const"] == 0 for f in payload["forms"])
    assert payload["truncated"] is False


def test_inequalities_affine_truncated(capsys):
    code, out, err = run(
        capsys, "--family", "affine-a:3", "--lambda", "1,0,0", "inequalities", "--rows", "4", "--format", "json"
    )
    assert code == 2
    assert json.loads(out)["truncated"] is True


def test_json_forms_roundtrip(capsys):
    _, out, _ = run(capsys, "--family", "an:2", "--lambda", "2,0", "inequalities", "--format", "json")
    payload = json.loads(out)
    fs = pc.an_system(2, pc.weight(pc.type_a(2), "2,0"))
    assert frozenset(form_from_json(d) for d in payload["forms"]) == fs.forms


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "--family", "rank2:1,1", "--lambda", "1,1", "enumerate")
    assert code == 0
    assert out.splitlines()[0] == "8 elements, complete"


def test_enumerate_affine_capped(capsys):
    code, out, _ = run(capsys, "--family", "rank2:2,2", "--lambda", "1,0", "enumerate", "--depth", "3")
    assert code == 2
    assert "cut at depth 3" in out


def test_enumerate_json_and_determinism(capsys):
    args = ("--family", "an:3", "--lambda", "1,0,0", "enumerate", "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out1)
    assert payload["count"] == 4 and payload["complete"] is True
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_enumerate_json_roundtrips_into_lattice_points(capsys):
    c = pc.type_a(2)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "1,1")
    _, out, _ = run(capsys, "--family", "an:2", "--lambda", "1,1", "enumerate", "--format", "json")
    payload = json.loads(out)
    parsed = {
        pc.LatticePoint.build(s, lam, {int(k): v for k, v in e["entries"].items()}).entries
        for e in payload["elements"]
    }
    result = pc.enumerate_blambda(s, lam, pc.an_system(2, lam))
    assert parsed == {p.entries for p in result.elements}
    weights = {tuple(int(v) for v in key.split(",")): n for key, n in payload["by_weight"].items()}
    assert weights == result.by_weight


def test_enumerate_dot(capsys):
    code, out, _ = run(capsys, "--family", "rank2:1,1", "--lambda", "1,0", "enumerate", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph crystal {") and '[label="1"]' in out


def test_mult(capsys):
    code, out, _ = run(capsys, "--family", "an:2", "--lambda", "1,1", "mult", "--m", "1,1")
    assert code == 0 and out.strip() == "2"


def test_lr(capsys):
    code, out, _ = run(capsys, "--family", "rank2:1,1", "--lambda", "1,0", "lr", "--mu", "1,0", "--nu", "0,1")
    assert code == 0 and out.strip() == "1"


def test_lr_honours_system_flags(capsys):
    args = ("--family", "rank2:1,1", "--lambda", "1,0", "lr", "--mu", "1,0", "--nu", "0,1")
    code, out, err = run(capsys, *args, "--generic", "--max-forms", "2")
    assert code == 1 and err.strip() == "error: max_forms is smaller than the seed set"
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.strip() == "1"


def test_nonstandard_iota_uses_the_closure(capsys):
    args = ("--family", "an:3", "--iota", "2,1,3", "--lambda", "1,1,0")
    code, out, _ = run(capsys, *args, "enumerate")
    assert code == 0 and out.splitlines()[0] == "20 elements, complete"
    assert run(capsys, *args, "inequalities") == run(capsys, *args, "inequalities", "--generic")
    code, out, _ = run(capsys, "--family", "an:3", "--iota", "2,1,3", "verify", "--max-weight", "1")
    assert code == 0 and "all checks passed" in out


@pytest.mark.parametrize(
    "argv, operator",
    [
        ("--family an:3 --lambda 1,1,0 inequalities", special.CLOSED),
        ("--family an:3 --iota 3,2,1 --lambda 1,1,0 inequalities", special.CLOSED),
        ("--family rank2:1,2 --lambda 1,1 inequalities", special.CLOSED),
        ("--family rank2:2,2 --lambda 1,1 inequalities", special.CLOSED),
        ("--family affine-a:3 --lambda 1,0,0 inequalities", special.CLOSED),
        ("--family an:3 --iota 2,1,3 --lambda 1,1,0 inequalities", HAT),
        ("--family rank2:1,2 --iota 1,2 --lambda 1,1 inequalities", HAT),
        ("--family an:3 --lambda 1,1,0 inequalities --generic", HAT),
        ("--family custom --lambda 1,0 inequalities", HAT),
    ],
)
def test_system_dispatch(argv, operator, tmp_path):
    """Closed forms only on the standard iota of a family that has one."""
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"rank": 2, "matrix": [[2, -1], [-1, 2]], "symmetrizer": [1, 1]}))
    args = _build_parser().parse_args(argv.replace("custom", f"custom:{path}").split())
    c, s, lam = _context(args)
    fs = _system(c, s, lam, args)
    assert fs.operator == operator
    if operator == HAT:
        n = max(12, 4 * s.period_len)
        seeds = [LinForm.unit(k) for k in range(1, n + 1)] + [lambda_form(s, lam, i) for i in c.indices]
        assert fs.forms == generate_closure(s, lam, seeds, HAT, n, args.max_forms).forms


def test_truncation_warning_names_the_escaped_form(capsys):
    argv = "--family an:3 --iota 2,1,3 --lambda 1,1,0 inequalities".split()
    code, out, err = run(capsys, *argv)
    args = _build_parser().parse_args(argv)
    fs = _system(*_context(args), args)
    assert code == 2 and not fs.budget_hit and fs.escaped is not None
    assert err == (
        f"warning: system truncated (a form escaped the window: {render_inequality(fs.escaped)}); "
        "constraints shown are necessary only\n"
    )
    assert out == "".join(render_inequality(phi) + "\n" for phi in fs.sorted_forms)


def test_epsstar(capsys):
    code, out, _ = run(capsys, "--family", "rank2:1,1", "epsstar", "--x", "2,1", "--i", "1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "--family", "an:3", "epsstar", "--x", "1,1,1,0,1", "--i", "2")
    assert code == 0 and out.strip() == "0"


def test_epsstar_rejects_outside_point(capsys):
    code, _, err = run(capsys, "--family", "an:2", "epsstar", "--x", "0,0,1", "--i", "1")
    assert code == 1 and "error" in err


def test_check_positivity(capsys):
    code, out, _ = run(capsys, "--family", "an:3", "--iota", "2,3,2,1", "check-positivity")
    assert code == 0
    assert out.splitlines()[0] == "positivity: fail"
    assert "first-occurrence position 2" in out
    code, out, _ = run(capsys, "--family", "rank2:1,2", "check-positivity")
    assert code == 2  # clean verdict on a truncated window
    assert out.splitlines()[0].startswith("positivity: pass")


def test_check_ample(capsys):
    code, out, _ = run(capsys, "--family", "an:3", "--iota", "2,3,2,1", "--lambda", "0,1,0", "check-ample")
    assert code == 0 and out.startswith("ample: no")
    code, out, _ = run(capsys, "--family", "rank2:2,2", "--lambda", "1,1", "check-ample")
    assert code == 2 and out.startswith("ample: yes")


def test_check_positivity_names_a_budget_hit(capsys):
    code, out, err = run(capsys, "--family", "an:3", "--iota", "2,3,2,1", "check-positivity", "--max-forms", "20")
    assert code == 2 and out == "positivity: pass (within tested bounds)\n"
    assert err == "warning: system truncated (budget of 20 forms hit); constraints shown are necessary only\n"


def test_check_ample_names_the_escaped_form(capsys):
    argv = "--family rank2:1,1 --lambda 1,1 check-ample".split()
    code, out, err = run(capsys, *argv)
    c, s, lam = _context(_build_parser().parse_args(argv))
    escaped = pc.hat_system(s, lam, 12).escaped
    assert code == 2 and out == "ample: yes (within tested bounds)\n"
    assert err == (
        f"warning: system truncated (a form escaped the window: {render_inequality(escaped)}); "
        "constraints shown are necessary only\n"
    )


def test_epsstar_names_a_budget_hit_on_either_closure(capsys):
    # 13 forms cut the weight-free unit closure short but hold all of color 2's.
    code, out, err = run(capsys, "--family", "an:3", "epsstar", "--x", "1,1,1", "--i", "2", "--max-forms", "13")
    assert code == 2 and out == "0\n"
    assert err == "warning: system truncated (budget of 13 forms hit); constraints shown are necessary only\n"
    # The unit closure escapes its window on every run; that alone keeps exit 0.
    assert run(capsys, "--family", "an:3", "epsstar", "--x", "1,1,1", "--i", "2") == (0, "0\n", "")
    # 20 forms cut color 3's affine closure short: exit 2, and the cause is named.
    code, out, err = run(capsys, "--family", "affine-a:3", "epsstar", "--x", "1", "--i", "3", "--max-forms", "20")
    assert code == 2 and out == "0\n"
    assert err == "warning: system truncated (budget of 20 forms hit); constraints shown are necessary only\n"


def test_admissible_bound_is_inconclusive(capsys, monkeypatch):
    def exceeded(n, row_bound):
        raise pc.BudgetExceededError(())

    monkeypatch.setattr(special, "enumerate_admissible", exceeded)
    code, out, err = run(capsys, "--family", "affine-a:3", "--lambda", "1,0,0", "inequalities")
    assert code == 2 and out == ""
    assert err == "inconclusive: budget exceeded (0 items kept)\n"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "--family", "an:2", "verify", "--max-weight", "2")
    assert code == 0 and "all checks passed" in out


def test_verify_detects_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "weyl_dim", lambda c, w: 999)
    code, out, _ = run(capsys, "--family", "an:2", "verify", "--max-weight", "1")
    assert code == 3 and out.startswith("mismatch:")


@pytest.mark.parametrize("change", ["count", "drop"])
def test_verify_detects_a_tensor_mismatch(capsys, monkeypatch, change):
    # (1,0) (x) (1,0) = (2,0) + (0,1) in A2: alter the first count, or drop (0,1) from the oracle.
    real = oracle.tensor_decomposition

    def altered(c, lam, mu):
        table = dict(real(c, lam, mu))
        if (lam, mu) == ((1, 0), (1, 0)):
            if change == "count":
                table[(0, 1)] += 1
            else:
                del table[(0, 1)]
        return table

    monkeypatch.setattr(oracle, "tensor_decomposition", altered)
    code, out, _ = run(capsys, "--family", "an:2", "verify", "--max-weight", "1")
    want = 2 if change == "count" else 0
    assert (code, out) == (3, f"mismatch: c^(0, 1)_((1, 0),(1, 0)) = 1, oracle {want}\n")


def test_custom_family_generic_pipeline(capsys, tmp_path):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"rank": 2, "matrix": [[2, -1], [-1, 2]], "symmetrizer": [1, 1]}))
    code, out, _ = run(
        capsys, "--family", f"custom:{path}", "--iota", "2,1", "--lambda", "1,0",
        "enumerate", "--support", "8",
    )
    assert code == 0 and out.splitlines()[0] == "3 elements, complete"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "--family", "rank2:1,1")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "--family", "rank2:0,1", "--lambda", "1,0", "enumerate")
    assert code == 1
    code, _, err = run(capsys, "--family", "an:2", "--lambda", "1,1", "mult", "--m", "1")
    assert code == 1 and "entries" in err
