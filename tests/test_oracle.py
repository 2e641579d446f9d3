import pytest

import polycrystal as pc
from polycrystal import oracle
from polycrystal.oracle import (
    NotFiniteTypeError,
    char_product_lr,
    freudenthal,
    root_system,
    tensor_decomposition,
    weight_system,
    weyl_dim,
)

from conftest import dominant_weights


@pytest.mark.parametrize(
    "c,count",
    [
        (pc.rank2(0, 0), 2),
        (pc.rank2(1, 1), 3),
        (pc.rank2(1, 2), 4),
        (pc.rank2(2, 1), 4),
        (pc.rank2(1, 3), 6),
        (pc.type_a(3), 6),
        (pc.type_a(4), 10),
    ],
)
def test_positive_root_counts(c, count):
    assert len(root_system(c).positive_roots) == count


def test_infinite_types_rejected():
    with pytest.raises(NotFiniteTypeError):
        root_system(pc.affine_a(3))
    with pytest.raises(NotFiniteTypeError):
        weyl_dim(pc.rank2(2, 2), pc.weight(pc.rank2(2, 2), "1,0"))


def test_weyl_dim_examples():
    a2 = pc.rank2(1, 1)
    assert weyl_dim(a2, pc.weight(a2, "1,0")) == 3
    assert weyl_dim(a2, pc.weight(a2, "1,1")) == 8
    for c in (pc.rank2(0, 0), pc.rank2(1, 2), pc.type_a(3)):
        assert weyl_dim(c, pc.zero_weight(c)) == 1
    g2_short_first = pc.rank2(3, 1)
    assert weyl_dim(g2_short_first, pc.weight(g2_short_first, "1,0")) == 7
    g2 = pc.rank2(1, 3)
    assert weyl_dim(g2, pc.weight(g2, "0,1")) == 7
    assert weyl_dim(g2, pc.weight(g2, "1,0")) == 14


def test_freudenthal_examples():
    a2 = pc.rank2(1, 1)
    lam = pc.weight(a2, "1,1")
    assert freudenthal(a2, lam, (0, 0)) == 1
    assert freudenthal(a2, lam, (1, 1)) == 2
    assert freudenthal(a2, lam, (5, 0)) == 0
    g2 = pc.rank2(3, 1)
    total = sum(weight_system(g2, (1, 0)).values())
    assert total == weyl_dim(g2, pc.weight(g2, "1,0")) == 7


@pytest.mark.parametrize("c", [pc.rank2(0, 0), pc.rank2(1, 1), pc.rank2(2, 1), pc.type_a(3)])
def test_multiplicities_sum_to_dimension(c):
    for lam in dominant_weights(c, 2):
        assert sum(weight_system(c, lam.coeffs).values()) == weyl_dim(c, lam)


def test_char_product_examples():
    a2 = pc.rank2(1, 1)
    w = lambda t: pc.weight(a2, t)
    assert char_product_lr(a2, w("2,1"), w("0,0"), w("2,1")) == 1
    assert char_product_lr(a2, w("1,0"), w("0,1"), w("1,1")) == 1
    assert char_product_lr(a2, w("1,0"), w("0,1"), w("0,0")) == 1
    assert char_product_lr(a2, w("1,0"), w("0,1"), w("1,0")) == 0


@pytest.mark.parametrize("c", [pc.rank2(1, 2), pc.rank2(1, 1), pc.type_a(3)])
def test_tensor_decomposition_conserves_dimension(c):
    for lam in dominant_weights(c, 2):
        for mu in dominant_weights(c, 1):
            decomp = tensor_decomposition(c, lam.coeffs, mu.coeffs)
            total = sum(count * weyl_dim(c, pc.Weight(c, nu)) for nu, count in decomp.items())
            assert total == weyl_dim(c, lam) * weyl_dim(c, mu)


def test_char_product_requires_dominant():
    a2 = pc.rank2(1, 1)
    with pytest.raises(ValueError):
        char_product_lr(a2, pc.weight(a2, "-1,0"), pc.weight(a2, "0,0"), pc.weight(a2, "0,0"))


def test_oracle_caches_are_bounded():
    caches = [f for f in vars(oracle).values() if callable(getattr(f, "cache_parameters", None))]
    assert caches
    for f in caches:
        assert f.cache_parameters()["maxsize"] is not None, f.__name__
