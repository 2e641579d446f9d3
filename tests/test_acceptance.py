"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria:
1. exact golden values for the worked operator chains, rank-2 coefficient
   machinery, staircase closures, and the affine admissible-matrix family;
2. enumeration, weight multiplicities, and tensor multiplicities agree with
   the classical oracles over all small dominant weights on six finite types;
3. the breadth-first enumeration equals the inequality-cut lattice set on
   exhaustive balls (both inclusions);
4. crystal axiom suite over >= 10^4 randomized (element, color) cases;
5. affine sanity: capped enumerations satisfy the truncated systems, are
   operator-stable, have a unique highest-weight element, and per-depth
   counts grow with the weight;
6. rewriting-operator idempotence and plain/highest-weight agreement over
   10^4 randomized forms.
"""

import random
from collections import Counter

import pytest

import polycrystal as pc
from polycrystal import oracle
from polycrystal.crystal import (
    B_INFINITY,
    MINUS_INFINITY,
    ZERO,
    Elementary,
    LatticeElem,
    LatticePoint,
    RElem,
    TensorElem,
    e_tilde,
    epsilon,
    f_tilde,
    phi,
    tensor,
    weight,
)
from polycrystal.linforms import (
    PLAIN,
    LinForm,
    check_ample,
    check_positivity,
    generate_closure,
    s_hat,
    s_plain,
    xi_form,
)
from polycrystal.realization import enumerate_blambda, epsilon_star, lr_coefficient, member, tensor_multiplicities
from polycrystal.special import (
    ChebCoeffs,
    an_epsilon_star,
    an_pos,
    an_system,
    base_admissible,
    cheb_a,
    enumerate_admissible,
    rank2_system,
)

from conftest import capped_ball, dominant_weights


def _report(n, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL")
        raise
    print(f"[acceptance] criterion {n}: PASS")


def lf(const=0, **kw):
    return LinForm.build(const=const, coeffs={int(k.lstrip("x")): v for k, v in kw.items()})


# -- criterion 1: exact golden values for the worked examples ----------------


def _golden_skewed_chain():
    c = pc.type_a(3)
    s = pc.IotaSequence.from_display(c, "2,3,2,1")
    assert [s.index(k) for k in range(1, 7)] == [1, 2, 3, 2, 1, 2]
    assert pc.beta_plus(s, 1) == lf(x1=1, x2=-1, x4=-1, x5=1)
    assert pc.beta_plus(s, 2) == lf(x2=1, x3=-1, x4=1)
    x1 = LinForm.unit(1)
    f1 = s_plain(s, x1, 1)
    assert f1 == lf(x2=1, x4=1, x5=-1)
    f2 = s_plain(s, f1, 2)
    assert f2 == lf(x3=1, x5=-1)
    f3 = s_plain(s, f2, 5)
    assert f3 == lf(x1=1, x2=-1, x3=1, x4=-1)
    for coeffs in [(0, 1, 0), (2, 3, 1)]:
        lam = pc.Weight(c, coeffs)
        g = x1
        for k in (1, 2, 5, 2):
            g = s_hat(s, lam, g, k)
        assert g == LinForm.build(const=-coeffs[1], coeffs={3: 1, 4: -1})
        rep = check_ample(s, lam, 8, 6000)
        assert not rep.ample and rep.conclusive
    units = generate_closure(s, None, [LinForm.unit(k) for k in range(1, 9)], PLAIN, 8, 6000)
    rep = check_positivity(units, s)
    assert not rep.passed
    assert (f3, 2) in rep.violations


def _golden_rank2():
    for c1, c2 in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]:
        s = pc.standard_iota(pc.rank2(c1, c2))
        assert xi_form(s, 1) == lf(x1=-1)
        assert xi_form(s, 2) == lf(x1=c2, x2=-1)
    for product, expected in [(0, 2), (1, 3), (2, 4), (3, 6)]:
        pairs = [(a, product // a) for a in range(1, product + 1) if a * (product // a) == product]
        for c1, c2 in pairs or [(0, 0)]:
            assert ChebCoeffs(c1, c2).l_max == expected
    for c1, c2 in [(1, 1), (1, 2), (2, 1), (1, 3)]:
        cheb = ChebCoeffs(c1, c2)
        s = pc.standard_iota(pc.rank2(c1, c2))
        fs = generate_closure(s, None, [xi_form(s, 2)], PLAIN, cheb.l_max + 3, 500)
        eta = {
            LinForm.build(coeffs={l: cheb.a_prime(l + 1), l + 1: -cheb.a_prime(l)})
            for l in range(1, cheb.l_max)
        }
        assert fs.forms == frozenset(eta) and not fs.truncated
    assert [cheb_a(2, 2, l) for l in range(21)] == list(range(21))
    lam = pc.weight(pc.rank2(2, 2), "1,1")
    fs = rank2_system(2, 2, lam, l_window=9)
    for l in range(1, 9):
        assert LinForm.build(coeffs={l: l, l + 1: -(l - 1)}) in fs.forms
        assert LinForm.build(const=1, coeffs={l: l + 1, l + 1: -l}) in fs.forms
    assert LinForm.build(const=1, coeffs={1: -1}) in fs.forms


def _golden_staircase():
    n = 3
    c = pc.type_a(n)
    s = pc.standard_iota(c)
    xi_closures = {}
    for i in c.indices:
        fs = generate_closure(s, None, [xi_form(s, i)], PLAIN, n * n + n, 500)
        expected = set()
        for j in range(1, i + 1):
            coeffs = {an_pos(n, j, i - j + 1): -1}
            if i - j >= 1:
                coeffs[an_pos(n, j, i - j)] = 1
            expected.add(LinForm.build(coeffs=coeffs))
        assert fs.forms == frozenset(expected) and not fs.truncated
        xi_closures[i] = fs

    # dual-string values on the weight-free realization, exhaustive ball
    triangle = [an_pos(n, j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i + j <= n + 1]

    def in_binf_realization(vals):
        for i in range(1, n + 1):
            chain = [vals.get(an_pos(n, j, i - j + 1), 0) for j in range(1, i + 1)]
            if any(a < b for a, b in zip(chain, chain[1:])) or chain[-1] < 0:
                return False
        return True

    checked = 0
    for vals in capped_ball(triangle, 4):
        if not in_binf_realization(vals):
            continue
        x = LatticePoint.build(s, pc.zero_weight(c), vals, B_INFINITY)
        for i in c.indices:
            assert epsilon_star(x, i, xi_closures[i]) == an_epsilon_star(n, x.values, i)
            checked += 1
    assert checked > 100


def _golden_affine():
    n = 3
    c = pc.affine_a(n)
    s = pc.standard_iota(c)
    fs1 = generate_closure(s, None, [xi_form(s, 1)], PLAIN, 8, 100)
    assert fs1.forms == frozenset({lf(x1=-1)})
    fs2 = generate_closure(s, None, [xi_form(s, 2)], PLAIN, 4 * (n - 1), 100)
    family = {
        LinForm.build(coeffs={(j - 1) * (n - 1) + 2: -1, (j - 1) * (n - 1) + 1: 1})
        for j in range(1, 5)
    }
    assert fs2.forms == frozenset(family) and fs2.truncated
    assert xi_form(s, n) == lf(x1=1, x2=1, x3=-1)

    mats = enumerate_admissible(n, 5)
    base = base_admissible(n)
    with_positive_corner = [m for m in mats if m.s(1, 1) > 0]
    assert [m.entries for m in with_positive_corner] == [base.entries]
    negative = [m for m in mats if m.entry(2, 2) < 0]
    assert len(negative) == 1
    assert dict(negative[0].entries) == {(1, 2): 1, (2, 1): 1, (2, 2): -1}


def test_criterion_1_golden_values():
    def body():
        _golden_skewed_chain()
        _golden_rank2()
        _golden_staircase()
        _golden_affine()

    _report(1, body)


# -- criteria 2 and 3: oracle equivalence and the dual characterization -----

CONFIGS = [
    ("rank2(1,1)", pc.rank2(1, 1), 3),
    ("an(2)", pc.type_a(2), 3),
    ("rank2(1,2)", pc.rank2(1, 2), 3),
    ("rank2(2,1)", pc.rank2(2, 1), 3),
    ("rank2(1,3)", pc.rank2(1, 3), 2),
    ("an(3)", pc.type_a(3), 3),
]


def closed_system(c, lam):
    if c.family[0] == "rank2":
        return rank2_system(*c.family[1], lam)
    return an_system(c.rank, lam)


@pytest.fixture(scope="module")
def finite_enumerations():
    out = {}
    for name, c, bound in CONFIGS:
        s = pc.standard_iota(c)
        for lam in dominant_weights(c, bound):
            fs = closed_system(c, lam)
            result = enumerate_blambda(s, lam, fs, validate=True)
            out[(name, lam.coeffs)] = (c, s, lam, fs, result)
    return out


def test_criterion_2_oracle_equivalence(finite_enumerations):
    def body():
        for name, c, bound in CONFIGS:
            s = pc.standard_iota(c)
            weights = dominant_weights(c, bound)
            for lam in weights:
                _, _, _, _, result = finite_enumerations[(name, lam.coeffs)]
                assert result.complete
                assert len(result) == oracle.weyl_dim(c, lam), (name, lam.coeffs)
                assert result.by_weight == oracle.weight_system(c, lam.coeffs), (name, lam.coeffs)
                for m in list(result.by_weight)[:3]:
                    assert pc.weight_multiplicity(result, m) == oracle.freudenthal(c, lam, m)
            for lam in weights:
                for mu in weights:
                    _, _, _, fs, mu_res = finite_enumerations[(name, mu.coeffs)]
                    decomp = oracle.tensor_decomposition(c, lam.coeffs, mu.coeffs)
                    assert tensor_multiplicities(lam, mu_res) == decomp, (name, lam.coeffs, mu.coeffs)
                    absent = [
                        w for w in dominant_weights(c, sum(lam.coeffs) + sum(mu.coeffs))
                        if w.coeffs not in decomp
                    ][:3]
                    for nu_coeffs, expected in sorted(decomp.items())[:3]:
                        got = lr_coefficient(s, lam, mu, pc.Weight(c, nu_coeffs), fs=fs)
                        assert got == expected, (name, lam.coeffs, mu.coeffs, nu_coeffs)
                    for nu in absent:
                        got = lr_coefficient(s, lam, mu, nu, fs=fs)
                        assert got == 0, (name, lam.coeffs, mu.coeffs, nu.coeffs)

    _report(2, body)


def _ball_positions(c):
    if c.family[0] == "rank2":
        return list(range(1, ChebCoeffs(*c.family[1]).l_max + 1))
    n = c.rank
    return [an_pos(n, j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i + j <= n + 1]


def _compositions(slots, cap):
    if slots == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in _compositions(slots - 1, cap - head):
            yield (head,) + rest


def test_criterion_3_dual_characterization(finite_enumerations):
    def body():
        for (name, lam_coeffs), (c, s, lam, fs, result) in finite_enumerations.items():
            positions = _ball_positions(c)
            depth = max((p.total for p in result.elements), default=0)
            slot = {k: idx for idx, k in enumerate(positions)}
            compiled = sorted(
                (
                    (phi_.const, tuple((slot[k], v) for k, v in phi_.coeffs))
                    for phi_ in fs.forms
                    if any(v < 0 for _, v in phi_.coeffs)
                    and all(k in slot for k, _ in phi_.coeffs)
                ),
                key=lambda t: len(t[1]),
            )
            cut = set()
            for vals in _compositions(len(positions), depth):
                if all(const + sum(v * vals[idx] for idx, v in items) >= 0 for const, items in compiled):
                    cut.add(tuple(sorted((k, vals[slot[k]]) for k in positions if vals[slot[k]])))
            enumerated = {p.entries for p in result.elements}
            assert enumerated == cut, (name, lam_coeffs)
            # support beyond the window is excluded by both representations
            outside = LatticePoint.build(s, lam, {max(positions) + 1: 1})
            assert not member(outside, fs)
            assert outside.entries not in enumerated

    _report(3, body)


# -- criterion 4: crystal axiom suite ----------------------------------------


def _random_element(rng, c, s, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.45:
        return tensor(
            _random_element(rng, c, s, depth - 1), _random_element(rng, c, s, depth - 1)
        )
    if roll < 0.65:
        return Elementary(c, rng.choice(list(c.indices)), rng.randrange(-4, 5))
    if roll < 0.8:
        return RElem(pc.Weight(c, tuple(rng.randrange(4) for _ in c.indices)))
    lam = pc.Weight(c, tuple(rng.randrange(4) for _ in c.indices))
    span = rng.randrange(1, 6)
    low = -2 if rng.random() < 0.3 else 0
    vals = {k: rng.randrange(low, 4) for k in rng.sample(range(1, 8), span)}
    return LatticeElem(LatticePoint.build(s, lam, vals))


def _check_axioms(b, i):
    eps = epsilon(b, i)
    ph = phi(b, i)
    w = weight(b)
    if eps == MINUS_INFINITY or ph == MINUS_INFINITY:
        assert eps == MINUS_INFINITY and ph == MINUS_INFINITY
        assert e_tilde(b, i) is ZERO and f_tilde(b, i) is ZERO
    else:
        assert ph == eps + w.pairing(i)
    up = e_tilde(b, i)
    if up is not ZERO:
        assert weight(up) == w.shifted(i, 1)
        assert f_tilde(up, i) == b
    down = f_tilde(b, i)
    if down is not ZERO:
        assert weight(down) == w.shifted(i, -1)
        assert e_tilde(down, i) == b


def _flatten(b):
    if isinstance(b, TensorElem):
        return _flatten(b.left) + _flatten(b.right)
    return [b]


def test_criterion_4_axiom_suite():
    def body():
        rng = random.Random(20240817)
        cartans = [pc.rank2(1, 1), pc.rank2(1, 2), pc.rank2(2, 2), pc.type_a(3)]
        cases = 0
        assert e_tilde(ZERO, 1) is ZERO and f_tilde(ZERO, 1) is ZERO
        while cases < 9600:
            c = rng.choice(cartans)
            s = pc.standard_iota(c)
            b = _random_element(rng, c, s, depth=2)
            for i in c.indices:
                _check_axioms(b, i)
                cases += 1
        # associativity witness
        for _ in range(300):
            c = rng.choice(cartans)
            s = pc.standard_iota(c)
            parts = [_random_element(rng, c, s, 0) for _ in range(3)]
            left = tensor(tensor(parts[0], parts[1]), parts[2])
            right = tensor(parts[0], tensor(parts[1], parts[2]))
            for i in c.indices:
                assert epsilon(left, i) == epsilon(right, i)
                assert phi(left, i) == phi(right, i)
                for op in (e_tilde, f_tilde):
                    a, b2 = op(left, i), op(right, i)
                    assert (a is ZERO) == (b2 is ZERO)
                    if a is not ZERO:
                        assert _flatten(a) == _flatten(b2)
                cases += 1
        # lowering cutoff on the rank-one elementary-times-weight model
        c1 = pc.type_a(1)
        for m in range(11):
            r = RElem(pc.Weight(c1, (m,)))
            for n in range(m + 3):
                out = f_tilde(tensor(Elementary(c1, 1, -n), r), 1)
                if n < m:
                    assert out.left.n == -n - 1 and out.right == r
                else:
                    assert out is ZERO
                cases += 1
        assert cases >= 10000

    _report(4, body)


# -- criterion 5: affine sanity ----------------------------------------------


def _affine_case(c, s, system_builder, weights, cap=6):
    results = {}
    for coeffs in weights:
        lam = pc.Weight(c, coeffs)
        fs = system_builder(lam)
        result = enumerate_blambda(s, lam, fs, depth_cap=cap, validate=True)
        entries = {p.entries for p in result.elements}
        highest = []
        for p in result.elements:
            elem = LatticeElem(p)
            dead = 0
            for i in c.indices:
                assert member(p, fs)
                up = e_tilde(elem, i)
                assert up is ZERO or up.point.entries in entries
                dead += up is ZERO
                if p.total < cap:
                    down = f_tilde(elem, i)
                    assert down is ZERO or down.point.entries in entries
            if dead == c.rank:
                highest.append(p)
        assert [p.entries for p in highest] == [()]
        results[coeffs] = Counter(p.total for p in result.elements)
    return results


def test_criterion_5_affine_sanity():
    def body():
        c = pc.rank2(2, 2)
        s = pc.standard_iota(c)
        counts = _affine_case(
            c, s, lambda lam: rank2_system(2, 2, lam, l_window=10),
            [(1, 0), (1, 1), (2, 0)],
        )
        c3 = pc.affine_a(3)
        s3 = pc.standard_iota(c3)
        counts3 = _affine_case(
            c3, s3, lambda lam: pc.affine_a_system(3, lam, row_bound=4, k_bound=10),
            [(1, 0, 0), (1, 1, 0), (1, 1, 1)],
        )
        for table, below, above in [
            (counts, (1, 0), (1, 1)),
            (counts, (1, 0), (2, 0)),
            (counts3, (1, 0, 0), (1, 1, 0)),
            (counts3, (1, 1, 0), (1, 1, 1)),
        ]:
            for d in range(7):
                assert table[below][d] <= table[above][d], (below, above, d)

    _report(5, body)


# -- criterion 6: idempotence and operator agreement --------------------------


def test_criterion_6_idempotence_and_agreement():
    def body():
        rng = random.Random(97)
        setups = []
        for c in (pc.rank2(1, 1), pc.rank2(2, 2), pc.rank2(1, 3), pc.type_a(3), pc.affine_a(3)):
            setups.append((c, pc.standard_iota(c)))
        c_skew = pc.type_a(3)
        setups.append((c_skew, pc.IotaSequence.from_display(c_skew, "2,3,2,1")))
        cases = 0
        while cases < 10000:
            c, s = rng.choice(setups)
            lam = pc.Weight(c, tuple(rng.randrange(4) for _ in c.indices))
            phi_ = LinForm.build(
                const=rng.randrange(-3, 4),
                coeffs={k: rng.randrange(-4, 5) for k in rng.sample(range(1, 11), rng.randrange(1, 6))},
            )
            k = rng.randrange(1, 11)
            once = s_hat(s, lam, phi_, k)
            assert s_hat(s, lam, once, k) == once
            if s.k_minus(k) > 0 or phi_.coeff(k) >= 0:
                assert once == s_plain(s, phi_, k)
            cases += 1

    _report(6, body)
