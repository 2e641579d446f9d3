import pytest

import polycrystal as pc
from polycrystal.crystal import LatticePoint
from polycrystal.linforms import PLAIN, BudgetExceededError, LinForm, generate_closure, s_plain, xi_form
from polycrystal.realization import member
from polycrystal.special import (
    AdmissibleMatrix,
    ChebCoeffs,
    affine_a_system,
    affine_pos,
    an_epsilon_star,
    an_pos,
    an_system,
    base_admissible,
    cheb_a,
    cheb_p,
    enumerate_admissible,
    rank2_epsilon_star,
    rank2_system,
)

from conftest import capped_ball


def test_coefficients_base_cases():
    assert cheb_a(3, 2, 0) == 0
    assert cheb_a(3, 2, 1) == 1


def test_coefficients_linear_at_two_two():
    assert [cheb_a(2, 2, l) for l in range(11)] == list(range(11))


def test_coefficients_turn_negative():
    assert cheb_a(1, 1, 4) == -1
    assert ChebCoeffs(1, 1).l_max == 3


@pytest.mark.parametrize("c1,c2,expected", [(0, 0, 2), (1, 1, 3), (1, 2, 4), (2, 1, 4), (1, 3, 6), (3, 1, 6)])
def test_l_max_table(c1, c2, expected):
    coeffs = ChebCoeffs(c1, c2)
    assert coeffs.l_max == expected
    # the cutoff coefficient vanishes and earlier ones are positive
    assert coeffs.a(expected) == 0
    assert all(coeffs.a(l) > 0 for l in range(1, expected))


@pytest.mark.parametrize("c1,c2", [(2, 2), (2, 3), (4, 1), (3, 3)])
def test_l_max_infinite(c1, c2):
    assert ChebCoeffs(c1, c2).l_max is None
    assert all(cheb_a(c1, c2, l) > 0 for l in range(1, 13))


@pytest.mark.parametrize("x", range(-3, 6))
def test_recurrence_matches_generating_function(x):
    # (1 - X z + z^2) * sum P_k z^k == 1, coefficientwise up to z^12
    p = [cheb_p(x, k) for k in range(13)]
    for m in range(13):
        conv = p[m] - (x * p[m - 1] if m >= 1 else 0) + (p[m - 2] if m >= 2 else 0)
        assert conv == (1 if m == 0 else 0)


def test_rank2_system_two_two_family():
    c = pc.rank2(2, 2)
    lam = pc.weight(c, "1,1")
    fs = rank2_system(2, 2, lam, l_window=9)
    for l in range(1, 9):
        assert LinForm.build(coeffs={l: l, l + 1: -(l - 1)}) in fs.forms
        assert LinForm.build(const=1, coeffs={l: l + 1, l + 1: -l}) in fs.forms
    assert fs.truncated
    with pytest.raises(ValueError):
        rank2_system(2, 2, lam)  # infinite family needs a window


def test_rank2_system_zero_zero_is_a_box():
    c = pc.rank2(0, 0)
    lam = pc.weight(c, "2,1")
    fs = rank2_system(0, 0, lam)
    assert fs.zero_beyond == 2 and not fs.truncated
    s = pc.standard_iota(c)
    inside = {
        tuple(sorted(vals.items()))
        for vals in capped_ball([1, 2, 3], 5)
        if member(LatticePoint.build(s, lam, vals), fs)
    }
    expected = {
        tuple(sorted({k: v for k, v in {1: a, 2: b}.items() if v}.items()))
        for a in range(3)
        for b in range(2)
    }
    assert inside == expected


def test_rank2_system_eta_cutoff_form():
    # at the cutoff, the weight-free family degenerates to minus one coordinate
    for c1, c2 in [(0, 0), (1, 1), (1, 2), (1, 3)]:
        cheb = ChebCoeffs(c1, c2)
        lm = cheb.l_max
        eta_last = LinForm.build(coeffs={lm - 1: cheb.a_prime(lm), lm: -cheb.a_prime(lm - 1)})
        assert eta_last == LinForm.build(coeffs={lm: -1})


def test_an_system_rank_one():
    c = pc.type_a(1)
    lam = pc.weight(c, "2")
    fs = an_system(1, lam)
    assert fs.zero_beyond == 1
    rendered = {f.render() for f in fs.sorted_forms}
    assert rendered == {"x_1", "lambda_1 - x_1"}
    assert {(f.const, f.coeffs) for f in fs.forms} == {(0, ((1, 1),)), (2, ((1, -1),))}


def test_an_system_matches_rank2_on_a2():
    ca = pc.type_a(2)
    cr = pc.rank2(1, 1)
    lam_a = pc.weight(ca, "1,2")
    lam_r = pc.weight(cr, "1,2")
    fs_a = an_system(2, lam_a)
    fs_r = rank2_system(1, 1, lam_r)
    sa = pc.standard_iota(ca)
    sr = pc.standard_iota(cr)
    for vals in capped_ball([1, 2, 3, 4], 5):
        xa = LatticePoint.build(sa, lam_a, vals)
        xr = LatticePoint.build(sr, lam_r, vals)
        assert member(xa, fs_a) == member(xr, fs_r)


def test_an_system_contains_difference_bound():
    c = pc.type_a(3)
    lam = pc.weight(c, "0,5,0")
    fs = an_system(3, lam)
    assert LinForm.build(const=5, coeffs={an_pos(3, 1, 2): -1, an_pos(3, 1, 1): 1}) in fs.forms


def test_operator_action_on_staircase_forms():
    # three-case rewriting rule for the staircase family
    n = 4
    s = pc.standard_iota(pc.type_a(n))

    def fam(j, i):
        coeffs = {an_pos(n, j, i - j + 1): -1}
        if i - j >= 1:
            coeffs[an_pos(n, j, i - j)] = 1
        return LinForm.build(coeffs=coeffs)

    for i in range(2, n + 1):
        for j in range(1, i + 1):
            phi = fam(j, i)
            for p in range(1, 4):
                for q in range(1, n + 1):
                    out = s_plain(s, phi, an_pos(n, p, q))
                    if (p, q) == (j, i - j) and j < i:
                        assert out == fam(j + 1, i)
                    elif (p, q) == (j, i - j + 1) and j != 1:
                        assert out == fam(j - 1, i)
                    else:
                        assert out == phi


def test_operator_action_on_affine_family():
    n = 3
    s = pc.standard_iota(pc.affine_a(n))

    def fam(j, i):
        assert 1 < i <= n - 1
        return LinForm.build(coeffs={affine_pos(n, j, i): -1, affine_pos(n, j, i - 1): 1})

    i = 2
    for j in range(1, 5):
        phi = fam(j, i)
        for p in range(1, 5):
            for q in range(1, n):
                out = s_plain(s, phi, affine_pos(n, p, q))
                if (p, q) == (j, i - 1):
                    assert out == fam(j + 1, i)
                elif (p, q) == (j, i) and (p, q) > (2, 1):
                    assert out == fam(j - 1, i)
                else:
                    assert out == phi


def test_admissible_base_matrix_forms():
    base = base_admissible(3)
    for k in (1, 2, 5):
        assert base.form(k) == LinForm.unit(k)


def test_enumerate_admissible_structure():
    mats = enumerate_admissible(3, 5)
    keys = {m.entries for m in mats}
    assert len(keys) == len(mats)
    assert base_admissible(3).entries in keys
    # top-left positivity pins the base matrix
    for m in mats:
        if m.s(1, 1) > 0:
            assert m.entries == base_admissible(3).entries
    # unique matrix with a negative second-row second-column entry
    neg = [m for m in mats if m.entry(2, 2) < 0]
    assert len(neg) == 1
    assert dict(neg[0].entries) == {(1, 2): 1, (2, 1): 1, (2, 2): -1}


def test_admissible_tail_propagation():
    # once a column-1 partial sum of 1 exhausts the cumulative bound, the
    # tail is pinned row by row
    for m in enumerate_admissible(3, 5):
        rows = m.s_rows(7)
        for j in range(1, 7):
            total = sum(sum(r) for r in rows[:j - 1]) + rows[j - 1][0]
            if rows[j - 1][0] == 1 and total == j:
                for k in range(j, 7):
                    assert rows[k - 1][0] == 1
                    assert all(v == 0 for v in rows[k - 1][1:])
                break


def test_enumerate_admissible_monotone_in_row_bound():
    small = {m.entries for m in enumerate_admissible(3, 3)}
    large = {m.entries for m in enumerate_admissible(3, 4)}
    assert small <= large


@pytest.mark.parametrize("n, row_bound", [(3, 6), (4, 5)])
def test_enumerated_matrices_are_admissible(n, row_bound):
    # The backtracking builds its matrices without validate(); check they would pass it.
    mats = enumerate_admissible(n, row_bound)
    assert mats
    for m in mats:
        m.validate()
        assert AdmissibleMatrix.build(n, dict(m.entries), row_bound) == m


def test_enumerate_admissible_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_admissible(3, 5, count_bound=5)


def test_admissible_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        AdmissibleMatrix.build(3, {(1, 1): -1}, 2)
    with pytest.raises(ValueError):
        AdmissibleMatrix.build(3, {(1, 2): 2}, 2)  # cumulative bound broken
    with pytest.raises(ValueError):
        AdmissibleMatrix.build(3, {(1, 1): 1, (2, 2): 1}, 3)  # tail never stabilizes


def test_affine_a_system_content():
    n = 3
    c = pc.affine_a(n)
    lam = pc.weight(c, "1,0,2")
    fs = affine_a_system(n, lam, row_bound=4, k_bound=8)
    assert fs.truncated
    # unit forms from the base matrix at every shift
    for k in range(1, 9):
        assert LinForm.unit(k) in fs.forms
    # the final-color family contains the shifted seed x_1 + x_2 - x_3
    assert LinForm.build(const=2, coeffs={1: 1, 2: 1, 3: -1}) in fs.forms
    # color 1 contributes only the corner bound; no wrapped difference forms
    assert LinForm.build(const=1, coeffs={affine_pos(n, 1, 1): -1}) in fs.forms
    assert LinForm.build(const=1, coeffs={affine_pos(n, 2, 1): -1, affine_pos(n, 1, 2): 1}) not in fs.forms
    # colors 2..n-1 contribute the column-difference family down the window
    for j in (1, 2, 3):
        assert LinForm.build(const=0, coeffs={affine_pos(n, j, 2): -1, affine_pos(n, j, 1): 1}) in fs.forms


def test_affine_xi_closure_forms_are_admissible_shift_zero():
    # every untruncated closure form from the final-color seed matches some
    # admissible matrix read at shift zero
    n = 3
    c = pc.affine_a(n)
    s = pc.standard_iota(c)
    fs = generate_closure(s, None, [xi_form(s, n)], PLAIN, support_bound=8, max_forms=400)
    mats = enumerate_admissible(n, 6)
    base = base_admissible(n).entries
    shift0 = {m.form(0) for m in mats if m.entries != base if m.form(0).max_index <= 8}
    assert xi_form(s, n) in shift0
    assert fs.forms <= shift0


def test_closed_forms_match_generic_closure_on_balls():
    # the closed-form systems cut out the same lattice sets as the full
    # operator closures, on exhaustive balls
    cases = [
        ("rank2", (0, 0), "2,1", [1, 2, 3], 4),
        ("rank2", (1, 1), "1,1", [1, 2, 3, 4], 4),
        ("rank2", (1, 2), "1,1", [1, 2, 3, 4, 5], 4),
        ("rank2", (2, 1), "0,2", [1, 2, 3, 4, 5], 4),
        ("rank2", (1, 3), "1,0", list(range(1, 8)), 3),
        ("an", 2, "1,1", [1, 2, 3, 4], 4),
        ("an", 3, "1,0,1", list(range(1, 8)), 3),
        ("an", 4, "0,1,0,0", list(range(1, 11)), 3),
    ]
    for tag, arg, lam_text, positions, depth in cases:
        if tag == "rank2":
            c = pc.rank2(*arg)
            lam = pc.weight(c, lam_text)
            closed = rank2_system(*arg, lam)
        else:
            c = pc.type_a(arg)
            lam = pc.weight(c, lam_text)
            closed = an_system(arg, lam)
        s = pc.standard_iota(c)
        bound = max(positions) + 2 * s.period_len
        seeds = [LinForm.unit(k) for k in range(1, bound + 1)]
        seeds += [pc.lambda_form(s, lam, i) for i in c.indices]
        generic = generate_closure(s, lam, seeds, "hat", bound, 20000)
        # closed-form constraints all appear in the closure (window permitting)
        for phi in closed.forms:
            if phi.max_index <= max(positions):
                assert phi in generic.forms, phi
        for vals in capped_ball(positions, depth):
            x = LatticePoint.build(s, lam, vals)
            assert member(x, closed) == member(x, generic), (tag, arg, vals)


def test_closed_epsilon_star_helpers():
    assert rank2_epsilon_star(2, 2, {1: 3}, 1) == 3
    assert rank2_epsilon_star(0, 0, {2: 4}, 2) == 4
    assert an_epsilon_star(3, {an_pos(3, 1, 2): 2, an_pos(3, 1, 1): 1}, 2) == 1


def test_admissible_json():
    mats = enumerate_admissible(3, 3)
    m = next(m for m in mats if m.entry(2, 2) < 0)
    assert m.to_json() == {"entries": {"1;2": 1, "2;1": 1, "2;2": -1}, "row_bound": 3}
