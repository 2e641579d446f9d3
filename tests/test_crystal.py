import random

import pytest

import polycrystal as pc
from polycrystal.crystal import (
    B_INFINITY,
    HIGHEST_WEIGHT,
    MINUS_INFINITY,
    ZERO,
    Elementary,
    LatticeElem,
    LatticePoint,
    ModeError,
    RElem,
    WeightExpr,
    ZeroElementError,
    e_tilde,
    epsilon,
    f_tilde,
    lattice_graph_dot,
    phi,
    sigma,
    sigma0,
    sigma_max,
    sigma_sweep,
    tensor,
    weight,
)


def point(c, s, lam, values, mode=HIGHEST_WEIGHT):
    return LatticePoint.build(s, lam, values, mode)


@pytest.fixture
def r22():
    c = pc.rank2(2, 2)
    return c, pc.standard_iota(c)


def test_sigma_examples(r22):
    c, s = r22
    lam = pc.weight(c, "1,1")
    zero = point(c, s, lam, {})
    assert all(sigma(zero, k) == 0 for k in range(1, 8))
    x = point(c, s, lam, {1: 2, 2: 1})
    assert sigma(x, 5) == 0  # beyond the support
    assert sigma(x, 1) == 2 - 2 * 1  # pairing <h_1, alpha_2> = -2


def test_sigma0_examples(r22):
    c, s = r22
    lam = pc.weight(c, "3,5")
    zero = point(c, s, lam, {})
    assert sigma0(zero, 1) == -3 and sigma0(zero, 2) == -5
    assert sigma0(point(c, s, pc.zero_weight(c), {}), 1) == 0
    x = point(c, s, pc.weight(c, "1,0"), {1: 1})
    assert sigma0(x, 1) == -1 + 2 == 1
    b = point(c, s, pc.zero_weight(c), {1: 1}, B_INFINITY)
    with pytest.raises(ModeError):
        sigma0(b, 1)


def test_sigma_max_nonnegative_randomized(r22):
    c, s = r22
    rng = random.Random(3)
    lam = pc.weight(c, "1,2")
    for _ in range(200):
        x = point(c, s, lam, {k: rng.randrange(-2, 4) for k in range(1, 6)})
        for i in c.indices:
            assert sigma_max(x, i) >= 0


def _scan(x, i):
    """(max sigma, leftmost argmax, rightmost argmax or None, sigma0 or None)
    for color i, straight from the definitions over the window."""
    s = x.iota
    window = x.max_support + s.period_len
    vals = [(sigma(x, k), k) for k in range(1, window + 1) if s.index(k) == i]
    top = max(v for v, _ in vals)
    args = [k for v, k in vals if v == top]
    s0 = None
    if x.mode == HIGHEST_WEIGHT:
        s0 = -x.lam.pairing(i) + sum(s.cartan.pairing(i, s.index(j)) * v for j, v in x.entries)
    return top, args[0], (args[-1] if top > 0 else None), s0


@pytest.mark.parametrize(
    "c, display",
    [
        (pc.rank2(2, 2), None),
        (pc.rank2(1, 3), None),
        (pc.type_a(3), None),
        (pc.type_a(3), "2,3,2,1"),
        (pc.affine_a(3), None),
    ],
)
def test_sigma_sweep_matches_definition(c, display):
    s = pc.IotaSequence.from_display(c, display) if display else pc.standard_iota(c)
    columns = tuple(zip(*c.matrix))
    rng = random.Random(17)
    for n in range(150):
        mode = HIGHEST_WEIGHT if n % 2 else B_INFINITY
        lam = pc.weight(c, [rng.randrange(0, 4) for _ in c.indices]) if mode == HIGHEST_WEIGHT else pc.zero_weight(c)
        span = rng.randrange(0, 3 * s.period_len + 2)
        x = point(c, s, lam, {k: rng.randrange(-2, 4) for k in range(1, span + 1)}, mode)
        sweep = sigma_sweep(x.entries, s.period, columns, lam.coeffs if mode == HIGHEST_WEIGHT else None)
        for i in c.indices:
            top, kmin, kmax, s0 = _scan(x, i)
            assert (sweep[0][i - 1], sweep[1][i - 1], sweep[2][i - 1]) == (top, kmin, kmax)
            assert (None if sweep[3] is None else sweep[3][i - 1]) == s0
            assert sigma_max(x, i) == top
            values = x.values
            down = f_tilde(LatticeElem(x), i)
            if s0 is not None and not top > s0:
                assert down is ZERO
            else:
                values[kmin] = values.get(kmin, 0) + 1
                assert down.point == point(c, s, lam, values, mode)
                values[kmin] -= 1
            up = e_tilde(LatticeElem(x), i)
            if top <= 0 or (s0 is not None and top < s0):
                assert up is ZERO
            else:
                values[kmax] = values.get(kmax, 0) - 1
                assert up.point == point(c, s, lam, values, mode)


def test_f_tilde_lattice_example(r22):
    c, s = r22
    lam = pc.weight(c, "1,1")
    zero = point(c, s, lam, {})
    out = f_tilde(LatticeElem(zero), 1)
    assert out.point.entries == ((1, 1),)
    # the one-point crystal is killed by both operators
    r = RElem(lam)
    assert f_tilde(r, 1) is ZERO and e_tilde(r, 2) is ZERO


def test_e_tilde_basics(r22):
    c, s = r22
    lam = pc.weight(c, "1,1")
    zero = point(c, s, lam, {})
    assert e_tilde(LatticeElem(zero), 1) is ZERO
    down = f_tilde(LatticeElem(zero), 2)
    assert e_tilde(down, 2).point == zero


def test_weight_values(r22):
    c, s = r22
    lam = pc.weight(c, "1,1")
    zero = point(c, s, lam, {})
    w = weight(LatticeElem(zero))
    assert w.fund == lam and w.alpha == (0, 0)
    assert weight(RElem(lam)).fund == lam
    e = Elementary(c, 1, 3)
    assert weight(e).alpha == (3, 0)
    with pytest.raises(ZeroElementError):
        weight(ZERO)


def test_epsilon_phi_values(r22):
    c, s = r22
    lam = pc.weight(c, "2,1")
    r = RElem(lam)
    assert epsilon(r, 1) == -2 and epsilon(r, 2) == -1
    assert phi(r, 1) == 0
    e = Elementary(c, 1, -3)
    assert epsilon(e, 1) == 3 and phi(e, 1) == -3
    assert epsilon(e, 2) == MINUS_INFINITY and phi(e, 2) == MINUS_INFINITY
    zero = point(c, s, lam, {})
    assert epsilon(LatticeElem(zero), 1) == max(0, -2) == 0
    with pytest.raises(ZeroElementError):
        epsilon(ZERO, 1)


def test_binfinity_mode_always_lowers(r22):
    c, s = r22
    x = point(c, s, pc.zero_weight(c), {}, B_INFINITY)
    cur = LatticeElem(x)
    for _ in range(6):
        cur = f_tilde(cur, 1)
        assert cur is not ZERO
    assert epsilon(cur, 1) == sigma_max(cur.point, 1)
    back = cur
    for _ in range(6):
        back = e_tilde(back, 1)
    assert back.point == x
    assert e_tilde(back, 1) is ZERO


def test_tensor_zero_absorbing(r22):
    c, _ = r22
    b = Elementary(c, 1, 0)
    assert tensor(b, ZERO) is ZERO
    assert tensor(ZERO, b) is ZERO


def test_tensor_string_rule_random_elementary_pairs(r22):
    c, _ = r22
    rng = random.Random(5)
    for _ in range(300):
        b1 = Elementary(c, rng.choice((1, 2)), rng.randrange(-4, 5))
        b2 = Elementary(c, rng.choice((1, 2)), rng.randrange(-4, 5))
        t = tensor(b1, b2)
        for i in c.indices:
            assert epsilon(t, i) == max(epsilon(b1, i), epsilon(b2, i) - weight(b1).pairing(i))
            assert phi(t, i) == max(phi(b2, i), phi(b1, i) + weight(b2).pairing(i))


def _flatten(b):
    if isinstance(b, pc.TensorElem):
        return _flatten(b.left) + _flatten(b.right)
    return [b]


def test_tensor_associativity_witness(r22):
    c, s = r22
    lam = pc.weight(c, "1,1")
    rng = random.Random(9)
    for _ in range(200):
        parts = [
            Elementary(c, rng.choice((1, 2)), rng.randrange(-3, 3)),
            RElem(lam),
            LatticeElem(point(c, s, lam, {k: rng.randrange(3) for k in (1, 2, 3)})),
        ]
        rng.shuffle(parts)
        left = tensor(tensor(parts[0], parts[1]), parts[2])
        right = tensor(parts[0], tensor(parts[1], parts[2]))
        for i in c.indices:
            assert epsilon(left, i) == epsilon(right, i)
            assert phi(left, i) == phi(right, i)
            assert weight(left) == weight(right)
            for op in (e_tilde, f_tilde):
                a, b = op(left, i), op(right, i)
                if a is ZERO or b is ZERO:
                    assert a is ZERO and b is ZERO
                else:
                    assert _flatten(a) == _flatten(b)


def test_tensor_with_weight_crystal_matches_direct_action():
    # The highest-weight lattice structure is exactly the weight-free
    # structure tensored with the one-point crystal.
    rng = random.Random(1)
    c = pc.rank2(1, 2)
    s = pc.standard_iota(c)
    for _ in range(300):
        lam = pc.Weight(c, (rng.randrange(3), rng.randrange(3)))
        vals = {k: rng.randrange(3) for k in range(1, 6)}
        hw = LatticeElem(point(c, s, lam, vals))
        binf = tensor(
            LatticeElem(point(c, s, pc.zero_weight(c), vals, B_INFINITY)), RElem(lam)
        )
        for i in c.indices:
            assert epsilon(hw, i) == epsilon(binf, i)
            assert phi(hw, i) == phi(binf, i)
            for op in (e_tilde, f_tilde):
                a, b = op(hw, i), op(binf, i)
                if a is ZERO:
                    assert b is ZERO
                else:
                    assert b is not ZERO and a.point.entries == b.left.point.entries


def test_lowering_from_origin_stays_nonnegative(r22):
    c, s = r22
    lam = pc.weight(c, "1,1")
    rng = random.Random(13)
    for _ in range(100):
        cur = LatticeElem(point(c, s, lam, {}))
        for _ in range(8):
            nxt = f_tilde(cur, rng.choice((1, 2)))
            if nxt is ZERO:
                break
            cur = nxt
            assert all(v >= 0 for _, v in cur.point.entries)


def test_graph_dot_export(a2):
    c, s = a2
    lam = pc.weight(c, "1,0")
    fs = pc.rank2_system(1, 1, lam)
    result = pc.enumerate_blambda(s, lam, fs)
    dot = lattice_graph_dot(result.elements)
    assert dot.startswith("digraph crystal {")
    assert '[label="(1)"]' in dot
    assert '-> n' in dot and '[label="2"]' in dot


def test_render_convention(r22):
    c, s = r22
    lam = pc.weight(c, "1,1")
    x = point(c, s, lam, {1: 2, 3: 1})
    assert x.render() == "(1,0,2)"
    assert point(c, s, lam, {}).render() == "(0)"


def test_weight_expr_pairing_and_shift(r22):
    c, _ = r22
    lam = pc.weight(c, "1,1")
    w = WeightExpr(lam, (0, 0)).shifted(1, -2)
    assert w.alpha == (-2, 0)
    assert w.pairing(1) == 1 - 2 * 2
    assert w.pairing(2) == 1 - 2 * (-2)
