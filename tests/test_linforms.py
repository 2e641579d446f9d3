import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polycrystal as pc
from polycrystal.linforms import (
    HAT,
    PLAIN,
    FormSet,
    LinForm,
    beta_minus,
    beta_plus,
    check_ample,
    check_positivity,
    form_from_json,
    forms_to_json,
    generate_closure,
    hat_system,
    lambda_form,
    s_hat,
    s_plain,
    xi_form,
)

X = LinForm.unit


def lf(const=0, **kw):
    return LinForm.build(const=const, coeffs={int(k.lstrip("x")): v for k, v in kw.items()})


def test_canonical_representation():
    assert LinForm.build(coeffs={3: 1, 1: 2, 2: 0}) == LinForm(0, ((1, 2), (3, 1)))
    assert LinForm.build(coeffs=[(1, 1), (1, -1)]).is_zero
    assert LinForm.build(const=2).coeffs == ()
    a = LinForm.build(const=1, coeffs={4: -2}, label="lambda_1")
    b = LinForm.build(const=1, coeffs={4: -2})
    assert a == b and hash(a) == hash(b)  # labels are rendering hints only
    with pytest.raises(ValueError):
        LinForm.build(coeffs={0: 1})


def test_evaluate_and_arith():
    phi = lf(const=3, x1=2, x4=-1)
    assert phi.evaluate({1: 1, 4: 5}) == 0
    assert phi.evaluate({}) == 3
    assert phi.plus(lf(x1=-2, x2=7)).coeffs == ((2, 7), (4, -1))
    assert phi.scaled(-2) == lf(const=-6, x1=-4, x4=2)
    zero = phi.scaled(0)
    assert zero == LinForm() and zero.is_zero and zero.coeffs == () and zero.render() == "0"
    assert phi.coeff(4) == -1 and phi.coeff(9) == 0
    assert phi.max_index == 4


def test_beta_plus_examples(skewed_a3):
    _, s = skewed_a3
    assert beta_plus(s, 1) == lf(x1=1, x2=-1, x4=-1, x5=1)
    assert beta_plus(s, 2) == lf(x2=1, x3=-1, x4=1)


def test_beta_plus_rank2_generic():
    for c1, c2 in [(1, 1), (2, 3), (2, 2)]:
        s = pc.standard_iota(pc.rank2(c1, c2))
        assert beta_plus(s, 1) == lf(x1=1, x2=-c1, x3=1)
        assert beta_plus(s, 2) == lf(x2=1, x3=-c2, x4=1)


def test_beta_minus_examples(skewed_a3):
    c, s = skewed_a3
    lam = pc.weight(c, "0,1,0")
    assert beta_minus(s, lam, 2) == lf(const=-1, x1=-1, x2=1)
    s2 = pc.standard_iota(pc.rank2(1, 1))
    lam2 = pc.weight(pc.rank2(1, 1), "4,7")
    assert beta_minus(s2, lam2, 3) == beta_plus(s2, 1)
    assert beta_minus(s2, lam2, 1) == lf(const=-4, x1=1)


def test_plain_operator_chain(skewed_a3):
    _, s = skewed_a3
    f1 = s_plain(s, X(1), 1)
    assert f1 == lf(x2=1, x4=1, x5=-1)
    f2 = s_plain(s, f1, 2)
    assert f2 == lf(x3=1, x5=-1)
    f3 = s_plain(s, f2, 5)
    assert f3 == lf(x1=1, x2=-1, x3=1, x4=-1)
    # zero coefficient: no-op
    assert s_plain(s, X(3), 1) == X(3)
    # negative coefficient at a first occurrence: no-op for the plain operator
    assert s_plain(s, lf(x2=-1), 2) == lf(x2=-1)


def test_hat_operator_chain(skewed_a3):
    c, s = skewed_a3
    for coeffs in [(0, 1, 0), (5, 7, 11)]:
        lam = pc.Weight(c, coeffs)
        g = X(1)
        for k in (1, 2, 5, 2):
            g = s_hat(s, lam, g, k)
        assert g == LinForm.build(const=-coeffs[1], coeffs={3: 1, 4: -1})
    lam = pc.weight(c, "0,1,0")
    assert s_hat(s, lam, X(1), 1) == s_plain(s, X(1), 1)
    assert s_hat(s, lam, lf(x3=0), 3) == lf(x3=0)


def test_hat_idempotence_randomized(skewed_a3):
    c, s = skewed_a3
    lam = pc.weight(c, "2,1,3")
    rng = random.Random(7)
    for _ in range(300):
        phi = LinForm.build(
            const=rng.randrange(-3, 4),
            coeffs={k: rng.randrange(-4, 5) for k in rng.sample(range(1, 9), 4)},
        )
        k = rng.randrange(1, 9)
        once = s_hat(s, lam, phi, k)
        assert s_hat(s, lam, once, k) == once


def test_xi_examples():
    for c1, c2 in [(1, 1), (2, 3), (2, 2)]:
        s = pc.standard_iota(pc.rank2(c1, c2))
        assert xi_form(s, 1) == lf(x1=-1)
        assert xi_form(s, 2) == lf(x1=c2, x2=-1)
    s = pc.standard_iota(pc.type_a(4))
    for i in range(2, 5):
        assert xi_form(s, i) == LinForm.build(coeffs={i: -1, i - 1: 1})
    s = pc.standard_iota(pc.affine_a(4))
    assert xi_form(s, 4) == lf(x1=1, x3=1, x4=-1)


def test_lambda_form_examples():
    c = pc.rank2(2, 2)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "3,5")
    assert lambda_form(s, lam, 1) == lf(const=3, x1=-1)
    assert lambda_form(s, lam, 2) == lf(const=5, x1=2, x2=-1)
    # zero weight collapses onto the xi seed
    assert lambda_form(s, pc.zero_weight(c), 1) == xi_form(s, 1)
    ca = pc.type_a(3)
    sa = pc.standard_iota(ca)
    lama = pc.weight(ca, "1,2,0")
    for i in ca.indices:
        expected = xi_form(sa, i).plus(LinForm(lama.pairing(i)))
        assert lambda_form(sa, lama, i) == expected


def test_generate_closure_rank2_xi2():
    c1, c2 = 1, 2
    s = pc.standard_iota(pc.rank2(c1, c2))
    cheb = pc.ChebCoeffs(c1, c2)
    fs = generate_closure(s, None, [xi_form(s, 2)], PLAIN, support_bound=8, max_forms=100)
    expected = {
        LinForm.build(coeffs={l: cheb.a_prime(l + 1), l + 1: -cheb.a_prime(l)})
        for l in range(1, cheb.l_max)
    }
    assert fs.forms == frozenset(expected)
    assert not fs.truncated


def test_generate_closure_xi1_is_singleton():
    s = pc.standard_iota(pc.rank2(2, 3))
    fs = generate_closure(s, None, [xi_form(s, 1)], PLAIN, support_bound=10, max_forms=10)
    assert fs.forms == frozenset({lf(x1=-1)})


def test_generate_closure_type_a_staircase():
    n = 4
    s = pc.standard_iota(pc.type_a(n))
    for i in s.cartan.indices:
        fs = generate_closure(s, None, [xi_form(s, i)], PLAIN, n * n + n, 500)
        expected = set()
        for j in range(1, i + 1):
            coeffs = {(j - 1) * n + (i - j + 1): -1}
            if i - j >= 1:
                coeffs[(j - 1) * n + (i - j)] = 1
            expected.add(LinForm.build(coeffs=coeffs))
        assert fs.forms == frozenset(expected)
        assert not fs.truncated


def test_generate_closure_budget():
    s = pc.standard_iota(pc.rank2(2, 2))
    seeds = [X(k) for k in range(1, 9)]
    partial = generate_closure(s, None, seeds, PLAIN, support_bound=8, max_forms=10)
    assert len(partial.forms) == 10
    assert partial.truncated and partial.budget_hit
    with pytest.raises(ValueError):
        generate_closure(s, None, [X(9)], PLAIN, support_bound=8)
    with pytest.raises(ValueError):
        generate_closure(s, None, seeds, PLAIN, support_bound=8, max_forms=3)


def reference_closure(s, lam, seeds, operator, support_bound, max_forms):
    """The closure as defined: the operator at every window position of every
    popped form.  Returns (forms, truncated, budget_hit, first escaped form)."""
    seen, queue = set(), deque()
    for seed in seeds:
        if not seed.is_zero and seed not in seen:
            seen.add(seed)
            queue.append(seed)
    escaped = None
    while queue:
        phi = queue.popleft()
        for k in range(1, support_bound + 1):
            psi = s_plain(s, phi, k) if operator == PLAIN else s_hat(s, lam, phi, k)
            if psi == phi or psi.is_zero or psi in seen:
                continue
            if psi.max_index > support_bound:
                escaped = escaped or psi
                continue
            if len(seen) == max_forms:
                return frozenset(seen), True, True, escaped
            seen.add(psi)
            queue.append(psi)
    return frozenset(seen), escaped is not None, False, escaped


def _closure_case(family, display, lam, operator, support, max_forms=10000):
    """Unit seeds, plus the weight seeds when a weight is given."""
    c = pc.build_cartan(family)
    s = pc.IotaSequence.from_display(c, display) if display else pc.standard_iota(c)
    seeds = [X(k) for k in range(1, support + 1)]
    if lam is not None:
        lam = pc.Weight(c, lam)
        seeds += [lambda_form(s, lam, i) for i in c.indices]
    return s, lam, seeds, operator, support, max_forms


@pytest.mark.parametrize(
    "case",
    [
        ("affine-a:3", None, (1, 0, 0), HAT, 10),
        ("an:4", "4,2,3,1", (1, 1, 0, 0), HAT, 16),
        ("an:3", "2,3,2,1", None, PLAIN, 16),
        ("rank2:1,3", None, None, PLAIN, 12),
        ("rank2:2,2", None, None, PLAIN, 12),
        ("affine-a:3", None, (1, 0, 0), HAT, 10, 40),
    ],
    ids=lambda case: "-".join(str(v) for v in case if v is not None),
)
def test_closure_matches_full_window_reference(case):
    args = _closure_case(*case)
    forms, truncated, budget_hit, escaped = reference_closure(*args)
    fs = generate_closure(*args)
    assert fs.forms == forms
    assert fs.truncated == truncated
    assert fs.budget_hit == budget_hit
    assert fs.escaped == escaped


PROPERTY_FAMILIES = ["rank2:1,1", "rank2:1,2", "rank2:1,3", "rank2:2,2", "an:2", "an:3", "an:4", "affine-a:3"]


@st.composite
def closure_cases(draw):
    """A family, a valid period (a permutation of the indices with up to two
    insertions that keep cyclic neighbours distinct), a small dominant weight,
    a window, the unit and weight seeds, an operator, and sometimes a budget
    near the seed count."""
    c = pc.build_cartan(draw(st.sampled_from(PROPERTY_FAMILIES)))
    indices = list(c.indices)
    period = draw(st.permutations(indices))
    for i, at in draw(st.lists(st.tuples(st.sampled_from(indices), st.integers(0, 6)), max_size=2)):
        candidate = period[:at] + [i] + period[at:]
        if all(candidate[t] != candidate[t - 1] for t in range(len(candidate))):
            period = candidate
    s = pc.IotaSequence(c, tuple(period))
    lam = pc.Weight(c, tuple(draw(st.integers(0, 2)) for _ in indices))
    support = draw(st.integers(1, 14))
    seeds = [X(k) for k in range(1, support + 1)]
    weight_seeds = [phi for phi in (lambda_form(s, lam, i) for i in indices) if phi.max_index <= support]
    # Unlabelled duplicates come last: the labelled first copies must be kept.
    seeds += weight_seeds + [LinForm(phi.const, phi.coeffs) for phi in weight_seeds]
    operator = draw(st.sampled_from([HAT, PLAIN]))
    max_forms = draw(st.one_of(st.just(2000), st.integers(len(seeds), len(seeds) + 40)))
    return s, lam, seeds, operator, support, max_forms


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(closure_cases())
def test_closure_matches_reference_on_drawn_cases(case):
    s, lam, seeds, operator, support, max_forms = case
    forms, truncated, budget_hit, escaped = reference_closure(*case)
    fs = generate_closure(s, lam if operator == HAT else None, seeds, operator, support, max_forms)
    assert (fs.forms, fs.truncated, fs.budget_hit, fs.escaped) == (forms, truncated, budget_hit, escaped)
    kept = {phi: phi for phi in fs.forms}
    for seed in seeds:
        if seed.label is not None:
            assert kept[seed].label == seed.label


@pytest.mark.parametrize("family", ["an:4", "rank2:1,2"])
def test_closure_matches_reference_without_truncation(family):
    s = pc.standard_iota(pc.build_cartan(family))
    for i in s.cartan.indices:
        args = (s, None, [xi_form(s, i)], PLAIN, 20, 500)
        forms, truncated, _, _ = reference_closure(*args)
        fs = generate_closure(*args)
        assert fs.forms == forms and not fs.truncated and not truncated and fs.escaped is None


def test_check_positivity_rank2_passes():
    for c1, c2 in [(0, 0), (1, 1), (2, 1), (1, 3), (2, 2)]:
        s = pc.standard_iota(pc.rank2(c1, c2))
        fs = generate_closure(s, None, [X(k) for k in range(1, 9)], PLAIN, 8, 4000)
        rep = check_positivity(fs, s)
        assert rep.passed
        assert bool(rep)


def test_check_positivity_skewed_fails_at_two(skewed_a3):
    _, s = skewed_a3
    fs = generate_closure(s, None, [X(k) for k in range(1, 9)], PLAIN, 8, 4000)
    rep = check_positivity(fs, s)
    assert not rep.passed and rep.conclusive
    assert (lf(x1=1, x2=-1, x3=1, x4=-1), 2) in rep.violations


def test_check_positivity_empty_and_inconclusive(skewed_a3):
    _, s = skewed_a3
    empty = FormSet(frozenset(), False, 5)
    assert check_positivity(empty, s).passed
    truncated_clean = FormSet(frozenset({X(1)}), True, 5)
    rep = check_positivity(truncated_clean, s)
    assert rep.passed and not rep.conclusive


def test_check_positivity_strict_excludes_seeds():
    s = pc.standard_iota(pc.rank2(1, 1))
    fs = generate_closure(s, None, [xi_form(s, 2)], PLAIN, 8, 100)
    assert not check_positivity(fs, s).passed  # the seed itself has -1 at position 2
    assert check_positivity(fs, s, strict=True).passed


def test_check_ample():
    for c1, c2 in [(1, 1), (1, 3), (2, 2)]:
        c = pc.rank2(c1, c2)
        s = pc.standard_iota(c)
        for lam in (pc.weight(c, "0,0"), pc.weight(c, "2,1")):
            assert check_ample(s, lam, 8, 5000).ample
    with pytest.raises(ValueError):
        check_ample(pc.standard_iota(pc.rank2(1, 1)), pc.weight(pc.rank2(1, 1), "-1,0"))


def test_check_ample_skewed_failure(skewed_a3):
    c, s = skewed_a3
    rep = check_ample(s, pc.weight(c, "0,1,0"), 8, 5000)
    assert not rep.ample and rep.conclusive
    assert rep.witness.const < 0
    # zero weight: every constant vanishes
    assert check_ample(s, pc.zero_weight(c), 8, 5000).ample


def test_check_ample_inconclusive_on_truncated_window():
    c = pc.rank2(2, 2)
    s = pc.standard_iota(c)
    rep = check_ample(s, pc.weight(c, "1,0"), 8, 5000)
    assert rep.ample and not rep.conclusive
    assert rep.system == hat_system(s, pc.weight(c, "1,0"), 8, 5000)
    assert rep.system.truncated and not rep.system.budget_hit and rep.system.escaped is not None


def test_hat_system_separates_budget_hits_from_window_escapes():
    c = pc.type_a(3)
    s = pc.standard_iota(c)
    lam = pc.weight(c, "1,1,0")
    seeds = [X(k) for k in range(1, 13)] + [lambda_form(s, lam, i) for i in c.indices]
    partial = hat_system(s, lam, 12, 16)
    assert partial == generate_closure(s, lam, seeds, HAT, 12, 16)
    assert partial.truncated and partial.budget_hit and len(partial) == 16
    rep = check_ample(s, lam, 12, 16)
    assert not rep.conclusive and rep.system.budget_hit
    full = hat_system(s, lam, 12, 10000)
    assert full.forms == generate_closure(s, lam, seeds, HAT, 12, 10000).forms
    assert full.truncated and not full.budget_hit
    c3 = pc.affine_a(3)
    window_only = hat_system(pc.standard_iota(c3), pc.weight(c3, "1,0,0"), 10, 10000)
    assert window_only.truncated and not window_only.budget_hit


def test_hat_words_on_weight_seed_shift_plain_words_on_xi():
    # On sequences passing strict positivity, hat-words started at the weight
    # seed equal the pairing constant plus the plain word on the xi seed,
    # whenever the result is nonzero.
    rng = random.Random(11)
    for c, s in [
        (pc.rank2(1, 2), pc.standard_iota(pc.rank2(1, 2))),
        (pc.type_a(3), pc.standard_iota(pc.type_a(3))),
    ]:
        lam = pc.Weight(c, tuple(rng.randrange(4) for _ in c.indices))
        for _ in range(200):
            i = rng.choice(list(c.indices))
            word = [rng.randrange(1, 9) for _ in range(rng.randrange(9))]
            hat = lambda_form(s, lam, i)
            plain = xi_form(s, i)
            for k in word:
                hat = s_hat(s, lam, hat, k)
                plain = s_plain(s, plain, k)
            if not hat.is_zero:
                assert hat == plain.plus(LinForm(lam.pairing(i)))
            # words on unit seeds never see the weight at all
            j0 = rng.randrange(1, 6)
            hat_u, plain_u = X(j0), X(j0)
            for k in word:
                hat_u = s_hat(s, lam, hat_u, k)
                plain_u = s_plain(s, plain_u, k)
            assert hat_u == plain_u


def test_json_roundtrip():
    s = pc.standard_iota(pc.rank2(1, 1))
    fs = generate_closure(s, None, [X(k) for k in range(1, 5)], PLAIN, 4, 100)
    encoded = forms_to_json(fs)
    assert frozenset(form_from_json(d) for d in encoded) == fs.forms
