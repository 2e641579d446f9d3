import itertools
import warnings

import pytest

import polycrystal as pc
from polycrystal.iota import IotaSequence
from polycrystal.linforms import LinForm, beta_minus, beta_plus, xi_form


def disp(c, text):
    return IotaSequence.from_display(c, text)


def test_display_order_reverses():
    c = pc.rank2(1, 1)
    s = disp(c, "2,1")
    assert [s.index(k) for k in range(1, 5)] == [1, 2, 1, 2]
    t = pc.standard_iota(c)
    assert t.period == s.period


def test_k_plus_examples():
    c2 = pc.rank2(1, 1)
    assert disp(c2, "2,1").k_plus(1) == 3
    c3 = pc.type_a(3)
    assert disp(c3, "3,2,1").k_plus(2) == 5


def test_k_minus_examples():
    c2 = pc.rank2(1, 1)
    s = disp(c2, "2,1")
    assert s.k_minus(3) == 1
    assert s.k_minus(2) == 0


def test_first_examples():
    c2 = pc.rank2(1, 1)
    s = disp(c2, "2,1")
    assert s.first(1) == 1 and s.first(2) == 2
    assert disp(pc.type_a(3), "3,2,1").first(3) == 3


def test_skewed_sequence_prefix(skewed_a3):
    _, s = skewed_a3
    assert [s.index(k) for k in range(1, 7)] == [1, 2, 3, 2, 1, 2]
    assert s.k_plus(1) == 5
    assert s.k_minus(5) == 1


@pytest.mark.parametrize(
    "s",
    [
        pc.standard_iota(pc.rank2(2, 2)),
        pc.standard_iota(pc.type_a(4)),
        pc.IotaSequence.from_display(pc.type_a(3), "2,3,2,1"),
    ],
)
def test_occurrence_accessors_are_mutually_inverse(s):
    for k in range(1, 60):
        assert s.k_minus(s.k_plus(k)) == k
        km = s.k_minus(k)
        if km > 0:
            assert s.k_plus(km) == k
        else:
            assert s.first(s.index(k)) == k
    firsts = {s.first(i) for i in s.cartan.indices}
    zeros = {k for k in range(1, 60) if s.k_minus(k) == 0}
    assert zeros == firsts


def test_validation_errors():
    c = pc.type_a(3)
    with pytest.raises(ValueError):
        IotaSequence(c, (1, 2))  # index 3 missing
    with pytest.raises(ValueError):
        IotaSequence(c, (1, 2, 2, 3))
    with pytest.raises(ValueError):
        IotaSequence(c, (1, 2, 3, 1))  # wraparound repeat
    with pytest.raises(ValueError):
        IotaSequence(c, (1, 2, 4))
    with pytest.raises(ValueError):
        IotaSequence(c, ())


def test_rank_one_period_warns_but_works():
    c = pc.type_a(1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = IotaSequence(c, (1,))
    assert caught
    assert s.k_plus(1) == 2 and s.k_minus(1) == 0 and s.k_minus(4) == 3


def _a3_periods(max_len):
    """Every A3 period of length <= max_len using all indices, no cyclic repeat."""
    for m in range(3, max_len + 1):
        for p in itertools.product((1, 2, 3), repeat=m):
            if set(p) == {1, 2, 3} and all(p[t] != p[(t + 1) % m] for t in range(m)):
                yield p


def _rank_one():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return IotaSequence(pc.type_a(1), (1,))


@pytest.mark.parametrize(
    "s",
    [IotaSequence(pc.type_a(3), p) for p in _a3_periods(5)]
    + [pc.standard_iota(pc.rank2(2, 2)), pc.standard_iota(pc.build_cartan("affine-a:3")), _rank_one()],
    ids=lambda s: f"{s.cartan.family[0]}{s.cartan.rank}-{''.join(map(str, s.period))}",
)
def test_sequence_tables_match_period_scan(s):
    """Every table-driven accessor against a literal scan of the period."""
    m = s.period_len

    def at(k):
        return s.period[(k - 1) % m]

    pair = s.cartan.pairing
    lam = pc.Weight(s.cartan, tuple(range(1, s.cartan.rank + 1)))
    for k in range(1, 3 * m + 1):
        i = at(k)
        assert s.index(k) == i
        kp = next(l for l in range(k + 1, k + m + 1) if at(l) == i)
        km = next((l for l in range(k - 1, 0, -1) if at(l) == i), 0)
        assert s.k_plus(k) == kp and s.k_minus(k) == km
        expected = {k: 1, kp: 1}
        expected.update({j: pair(i, at(j)) for j in range(k + 1, kp) if pair(i, at(j))})
        assert beta_plus(s, k) == LinForm.build(coeffs=expected)
        if km:
            assert beta_minus(s, lam, k) == beta_plus(s, km)
        else:
            prefix = {j: pair(i, at(j)) for j in range(1, k) if pair(i, at(j))}
            assert beta_minus(s, lam, k) == LinForm.build(-lam.pairing(i), {**prefix, k: 1})
    for i in s.cartan.indices:
        fi = min(k for k in range(1, m + 1) if at(k) == i)
        assert s.first(i) == fi
        prefix = {j: -pair(i, at(j)) for j in range(1, fi) if pair(i, at(j))}
        assert xi_form(s, i) == LinForm.build(coeffs={**prefix, fi: -1})


def test_sequence_tables_keep_public_checks():
    s = pc.standard_iota(pc.type_a(3))
    for k in (0, -1):
        with pytest.raises(ValueError):
            s.index(k)
    with pytest.raises(ValueError):
        s.first(4)
