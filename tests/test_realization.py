import dataclasses
import random
from fractions import Fraction

import pytest

import polycrystal as pc
from polycrystal.crystal import B_INFINITY, ZERO, LatticeElem, LatticePoint, e_tilde, epsilon, f_tilde, phi, weight
from polycrystal.linforms import HAT, PLAIN, LinForm, generate_closure, lambda_form, xi_form
from polycrystal.realization import (
    CartanNotInvertibleError,
    IncompleteEnumerationError,
    NotAmpleError,
    StrictPositivityViolatedError,
    enumerate_blambda,
    epsilon_star,
    lr_coefficient,
    member,
    solve_root_offset,
    tensor_multiplicities,
    weight_multiplicity,
)

from conftest import capped_ball


def hw_system(c, s, lam, bound=12, cap=20000):
    seeds = [LinForm.unit(k) for k in range(1, bound + 1)]
    seeds += [lambda_form(s, lam, i) for i in c.indices]
    return generate_closure(s, lam, seeds, HAT, bound, cap)


def test_member_examples():
    c = pc.rank2(2, 2)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "1,0")
    fs = pc.rank2_system(2, 2, lam, l_window=9)
    assert member(LatticePoint.build(s, lam, {}), fs)
    assert not member(LatticePoint.build(s, lam, {1: 2}), fs)
    assert member(LatticePoint.build(s, lam, {1: 1}), fs)


def test_member_zero_cutoff():
    c = pc.rank2(1, 1)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "1,1")
    fs = pc.rank2_system(1, 1, lam)
    assert not member(LatticePoint.build(s, lam, {40: 1}), fs)


def test_enumerate_dimensions(a2):
    c, s = a2
    for lam_text, expected in [("1,0", 3), ("1,1", 8)]:
        lam = pc.weight(c, lam_text)
        fs = pc.rank2_system(1, 1, lam)
        result = enumerate_blambda(s, lam, fs, validate=True)
        assert len(result) == expected and result.complete


def test_enumerate_trivial_module():
    for c, builder in [
        (pc.rank2(1, 2), lambda lam: pc.rank2_system(1, 2, lam)),
        (pc.type_a(3), lambda lam: pc.an_system(3, lam)),
        (pc.affine_a(3), lambda lam: pc.affine_a_system(3, lam)),
    ]:
        s = pc.standard_iota(c)
        lam = pc.zero_weight(c)
        result = enumerate_blambda(s, lam, builder(lam), depth_cap=4)
        assert [p.entries for p in result.elements] == [()]
        assert result.complete


def test_enumerate_rejects_non_dominant_weight(a2):
    c, s = a2
    lam = pc.weight(c, "-1,1")
    fs = pc.rank2_system(1, 1, pc.weight(c, "0,0"))
    with pytest.raises(ValueError):
        enumerate_blambda(s, lam, fs)


def test_enumerate_rejects_non_ample(skewed_a3):
    c, s = skewed_a3
    lam = pc.weight(c, "0,1,0")
    fs = hw_system(c, s, lam, bound=8)
    with pytest.raises(NotAmpleError):
        enumerate_blambda(s, lam, fs)


def test_enumeration_stability_and_unique_highest(a2):
    c, s = a2
    lam = pc.weight(c, "2,1")
    fs = pc.rank2_system(1, 1, lam)
    result = enumerate_blambda(s, lam, fs, validate=True)
    entries = {p.entries for p in result.elements}
    highest = []
    for p in result.elements:
        elem = LatticeElem(p)
        killed = 0
        for i in c.indices:
            down = f_tilde(elem, i)
            assert down is ZERO or down.point.entries in entries
            up = e_tilde(elem, i)
            assert up is ZERO or up.point.entries in entries
            killed += up is ZERO
        if killed == c.rank:
            highest.append(p)
        for i in c.indices:
            w = weight(elem)
            assert phi(elem, i) - epsilon(elem, i) == w.pairing(i)
    assert [p.entries for p in highest] == [()]


def test_epsilon_star_rank2_closed_form():
    for c1, c2 in [(1, 1), (1, 2), (1, 3)]:
        c = pc.rank2(c1, c2)
        s = pc.standard_iota(c)
        units = generate_closure(s, None, [LinForm.unit(k) for k in range(1, 9)], PLAIN, 8, 5000)
        xi1 = generate_closure(s, None, [xi_form(s, 1)], PLAIN, 8, 100)
        xi2 = generate_closure(s, None, [xi_form(s, 2)], PLAIN, 8, 100)
        lm = pc.ChebCoeffs(c1, c2).l_max
        for vals in capped_ball(list(range(1, lm + 1)), 4):
            x = LatticePoint.build(s, pc.zero_weight(c), vals, B_INFINITY)
            if not member(x, units):
                continue
            assert epsilon_star(x, 1, xi1) == x.get(1)
            got = epsilon_star(x, 2, xi2)
            assert got == pc.special.rank2_epsilon_star(c1, c2, x.values, 2)


def test_epsilon_star_rank2_affine_window():
    # truncated color-2 family: exact for points supported well inside the window
    c = pc.rank2(2, 2)
    s = pc.standard_iota(c)
    xi2 = generate_closure(s, None, [xi_form(s, 2)], PLAIN, 8, 200)
    assert xi2.truncated
    for vals in capped_ball([1, 2, 3, 4], 3):
        x = LatticePoint.build(s, pc.zero_weight(c), vals, B_INFINITY)
        assert epsilon_star(x, 2, xi2) == pc.special.rank2_epsilon_star(2, 2, x.values, 2)


def test_epsilon_star_rejects_violating_set(skewed_a3):
    c, s = skewed_a3
    bad = generate_closure(s, None, [LinForm.unit(k) for k in range(1, 9)], PLAIN, 8, 5000)
    x = LatticePoint.build(s, pc.zero_weight(c), {1: 1}, B_INFINITY)
    with pytest.raises(StrictPositivityViolatedError):
        epsilon_star(x, 1, bad)


def test_weight_multiplicity_examples(a2):
    c, s = a2
    lam = pc.weight(c, "1,1")
    fs = pc.rank2_system(1, 1, lam)
    result = enumerate_blambda(s, lam, fs)
    assert weight_multiplicity(result, (0, 0)) == 1
    assert weight_multiplicity(result, (1, 1)) == 2
    lam1 = pc.weight(c, "1,0")
    r1 = enumerate_blambda(s, lam1, pc.rank2_system(1, 1, lam1))
    assert weight_multiplicity(r1, (1, 0)) == 1
    assert weight_multiplicity(r1, {1: 1, 2: 1}) == 1


def test_weight_multiplicity_depth_guard():
    c = pc.rank2(2, 2)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "1,0")
    fs = pc.rank2_system(2, 2, lam, l_window=9)
    result = enumerate_blambda(s, lam, fs, depth_cap=4)
    assert not result.complete
    assert weight_multiplicity(result, (1, 0)) >= 0
    with pytest.raises(IncompleteEnumerationError):
        weight_multiplicity(result, (2, 2))


def test_lr_examples(a2):
    c, s = a2
    w = lambda t: pc.weight(c, t)
    assert lr_coefficient(s, w("1,0"), w("0,1"), w("1,1")) == 1
    assert lr_coefficient(s, w("1,0"), w("0,1"), w("0,0")) == 1
    assert lr_coefficient(s, w("1,0"), w("1,0"), w("2,0")) == 1
    assert lr_coefficient(s, w("1,0"), w("1,0"), w("0,1")) == 1
    assert lr_coefficient(s, w("1,0"), w("1,0"), w("1,1")) == 0
    for lam_text in ["1,0", "2,1", "0,0"]:
        assert lr_coefficient(s, w(lam_text), w("0,0"), w(lam_text)) == 1
        other = w("1,1")
        if pc.weight(c, lam_text) != other:
            assert lr_coefficient(s, w(lam_text), w("0,0"), other) == 0


def test_lr_rejects_affine():
    c = pc.affine_a(3)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "1,0,0")
    with pytest.raises(CartanNotInvertibleError):
        lr_coefficient(s, lam, lam, lam)


def test_tensor_multiplicities_needs_a_complete_walk(a2):
    c, s = a2
    lam = pc.weight(c, "1,1")
    mu = pc.weight(c, "1,0")
    fs = pc.rank2_system(1, 1, mu)
    full = enumerate_blambda(s, mu, fs)
    # (1,1) (x) (1,0) = (2,1) + (0,2) + (1,0) in A2.
    table = tensor_multiplicities(lam, full)
    assert table == {(2, 1): 1, (0, 2): 1, (1, 0): 1}
    for nu in ((2, 1), (0, 2), (1, 0), (1, 1)):
        assert lr_coefficient(s, lam, mu, pc.Weight(c, nu), fs=fs) == table.get(nu, 0)
    capped = enumerate_blambda(s, mu, fs, depth_cap=1)
    with pytest.raises(IncompleteEnumerationError):
        tensor_multiplicities(lam, capped)
    with pytest.raises(ValueError):
        tensor_multiplicities(pc.Weight(c, (-1, 0)), full)


B3 = pc.custom([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1])
D4 = pc.custom([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], [1, 1, 1, 1])


def fraction_root_offset(target, cartan):
    """Reference solve: Gauss-Jordan over Fractions."""
    n = cartan.rank
    rows = [[Fraction(v) for v in cartan.matrix[r]] + [Fraction(target[r])] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    sol = [row[n] for row in rows]
    if any(v.denominator != 1 or v < 0 for v in sol):
        return None
    return tuple(int(v) for v in sol)


def test_solve_root_offset():
    c = pc.rank2(1, 1)
    assert solve_root_offset([1, 1], c) == (1, 1)
    assert solve_root_offset([1, 0], c) is None  # non-integral
    assert solve_root_offset([-2, 1], c) is None  # negative
    with pytest.raises(CartanNotInvertibleError):
        solve_root_offset([0, 0, 0], pc.affine_a(3))
    # B3: the highest root a1 + 2a2 + 2a3 is omega_2, the highest short root a1 + a2 + a3 is
    # omega_1, and the spin weight omega_3 lies outside the root lattice.
    assert solve_root_offset([0, 1, 0], B3) == (1, 2, 2)
    assert solve_root_offset([1, 0, 0], B3) == (1, 1, 1)
    assert solve_root_offset([0, 0, 1], B3) is None
    # G2 as rank2(1, 3): the highest root 2a1 + 3a2 is omega_1, the highest short root a1 + 2a2 is omega_2.
    g2 = pc.rank2(1, 3)
    assert solve_root_offset([1, 0], g2) == (2, 3)
    assert solve_root_offset([0, 1], g2) == (1, 2)
    assert solve_root_offset([0, -1], g2) is None
    # A5: the highest root is omega_1 + omega_5, and 2 omega_3 = a1 + 2a2 + 3a3 + 2a4 + a5.
    a5 = pc.type_a(5)
    assert solve_root_offset([1, 0, 0, 0, 1], a5) == (1, 1, 1, 1, 1)
    assert solve_root_offset([0, 0, 2, 0, 0], a5) == (1, 2, 3, 2, 1)
    assert solve_root_offset([1, 0, 0, 0, 0], a5) is None  # omega_1 lies outside the root lattice


ROOT_DATA = {
    **{f"A{n}": pc.type_a(n) for n in range(1, 6)},
    **{f"rank2({a},{b})": pc.rank2(a, b) for a, b in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))},
    "B3": B3,
    "D4": D4,
}


@pytest.mark.parametrize("name", ROOT_DATA)
def test_solve_root_offset_matches_fraction_reference(name):
    cartan = ROOT_DATA[name]
    rng = random.Random(name)
    for _ in range(300):
        target = [rng.randint(-6, 8) for _ in cartan.indices]
        assert solve_root_offset(target, cartan) == fraction_root_offset(target, cartan), target


def test_affine_windows_cut_exactly_the_enumerated_sets():
    # Truncated affine systems are complete for points supported well inside
    # their windows: the ball cut equals the capped enumeration.
    c = pc.rank2(2, 2)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "1,1")
    fs = pc.rank2_system(2, 2, lam, l_window=10)
    r = enumerate_blambda(s, lam, fs, depth_cap=5)
    bfs = {p.entries for p in r.elements}
    cut = {
        LatticePoint.build(s, lam, vals).entries
        for vals in capped_ball(list(range(1, 7)), 5)
        if member(LatticePoint.build(s, lam, vals), fs)
    }
    assert bfs == cut

    c3 = pc.affine_a(3)
    s3 = pc.standard_iota(c3)
    lam3 = pc.weight(c3, "0,1,0")
    fs3 = pc.affine_a_system(3, lam3, row_bound=5, k_bound=12)
    r3 = enumerate_blambda(s3, lam3, fs3, depth_cap=4)
    bfs3 = {p.entries for p in r3.elements}
    cut3 = {
        LatticePoint.build(s3, lam3, vals).entries
        for vals in capped_ball(list(range(1, 11)), 4)
        if member(LatticePoint.build(s3, lam3, vals), fs3)
    }
    assert bfs3 == cut3



def test_validation_catches_violations():
    c = pc.type_a(3)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "2,0,0")
    fs = pc.an_system(3, lam)
    walk = enumerate_blambda(s, lam, fs, validate=False)
    # holds at the origin and on every point of depth 1, fails at depth 2
    extra = LinForm.build(1, {1: -1, 2: -1})
    bad_form = dataclasses.replace(fs, forms=fs.forms | {extra})
    assert all(member(p, bad_form) for p in walk.elements if p.total < 2)
    assert not all(member(p, bad_form) for p in walk.elements if p.total == 2)
    # the walk reaches position 3, past this cutoff
    bad_cutoff = dataclasses.replace(fs, zero_beyond=2)
    assert max(p.max_support for p in walk.elements) == 3
    for bad in (bad_form, bad_cutoff):
        with pytest.raises(AssertionError, match="violates the inequality system"):
            enumerate_blambda(s, lam, bad, validate=True)
        unchecked = enumerate_blambda(s, lam, bad, validate=False)
        assert unchecked.elements == walk.elements and unchecked.by_weight == walk.by_weight
