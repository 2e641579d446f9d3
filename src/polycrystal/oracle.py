"""Independent finite-type ground truth: positive roots by reflection
closure, the Weyl dimension formula, the Freudenthal multiplicity recursion,
and tensor-product multiplicities by formal character products.

Used by tests and the verify command only; the main algorithms never call
into this module.  All arithmetic is exact (integers and Fractions).  The
memo caches are bounded LRU caches, sized above the working set of a verify
sweep at max weight 2 over the rank-2 and small type-A families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cartan import CartanData, Weight

_ROOT_LIMIT = 2000


class NotFiniteTypeError(ValueError):
    """Reflection closure did not terminate: the root system is infinite."""


def _coroot_pairing(cartan: CartanData, coords: tuple[int, ...], i: int) -> int:
    """<h_i, beta> for beta given by simple-root coordinates."""
    row = cartan.matrix[i - 1]
    return sum(c * row[j] for j, c in enumerate(coords))


@dataclass(frozen=True)
class RootSystem:
    cartan: CartanData
    positive_roots: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=32)
def root_system(cartan: CartanData) -> RootSystem:
    """Close the simple roots under all simple reflections; positives only."""
    n = cartan.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    positives = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in cartan.indices:
            p = _coroot_pairing(cartan, beta, i)
            refl = list(beta)
            refl[i - 1] -= p
            refl = tuple(refl)
            if all(c >= 0 for c in refl) and refl not in positives:
                positives.add(refl)
                frontier.append(refl)
                if len(positives) > _ROOT_LIMIT:
                    raise NotFiniteTypeError("reflection closure exceeded the finite-type bound")
    return RootSystem(cartan, tuple(sorted(positives)))


def weyl_dim(cartan: CartanData, lam: Weight) -> int:
    """Exact dimension: product over positive roots of shifted-pairing ratios."""
    if not lam.dominant:
        raise ValueError("the dimension formula needs a dominant weight")
    rs = root_system(cartan)
    d = cartan.symmetrizer
    dim = Fraction(1)
    for beta in rs.positive_roots:
        # (w, beta) = sum_i beta_i d_i <h_i, w>; the rho pairings are all 1.
        num = sum(c * d[i] * (lam.pairing(i + 1) + 1) for i, c in enumerate(beta))
        den = sum(c * d[i] for i, c in enumerate(beta))
        dim *= Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


@lru_cache(maxsize=4096)
def _dominant_multiplicity(cartan: CartanData, lam_coeffs: tuple[int, ...], m: tuple[int, ...]) -> int:
    """Freudenthal recursion at a dominant weight given by its root offset m."""
    if all(v == 0 for v in m):
        return 1
    rs = root_system(cartan)
    d = cartan.symmetrizer
    n = cartan.rank
    lam = Weight(cartan, lam_coeffs)
    nu_pair = [lam.pairing(i) - _coroot_pairing(cartan, m, i) for i in cartan.indices]

    # Denominator (lam + nu + 2 rho, lam - nu) with lam - nu = sum m_i alpha_i.
    denom = sum(
        m[i] * d[i] * (lam.pairing(i + 1) + nu_pair[i] + 2) for i in range(n)
    )
    if denom <= 0:
        raise AssertionError("Freudenthal denominator must be positive below the top weight")

    total = 0
    for beta in rs.positive_roots:
        k = 1
        while True:
            shifted = tuple(m[i] - k * beta[i] for i in range(n))
            if any(v < 0 for v in shifted):
                break
            mult = multiplicity(cartan, Weight(cartan, lam_coeffs), shifted)
            if mult:
                # (nu + k beta, beta) = sum_i beta_i d_i <h_i, nu + k beta>
                val = sum(
                    beta[i] * d[i] * (nu_pair[i] + k * _coroot_pairing(cartan, beta, i + 1))
                    for i in range(n)
                )
                total += val * mult
            k += 1
    q, r = divmod(2 * total, denom)
    assert r == 0
    return q


def multiplicity(cartan: CartanData, lam: Weight, m) -> int:
    """Weight multiplicity of lam - sum m_i alpha_i in the module with top lam.

    Non-dominant weights are reflected into the dominant chamber first
    (multiplicities are reflection-invariant); an offset leaving the cone
    means the weight does not occur.
    """
    mv = list(int(v) for v in m)
    if any(v < 0 for v in mv):
        return 0
    while True:
        neg = None
        for i in cartan.indices:
            p = lam.pairing(i) - _coroot_pairing(cartan, tuple(mv), i)
            if p < 0:
                neg = (i, p)
                break
        if neg is None:
            break
        i, p = neg
        mv[i - 1] += p
        if mv[i - 1] < 0:
            return 0
    return _dominant_multiplicity(cartan, lam.coeffs, tuple(mv))


def freudenthal(cartan: CartanData, lam: Weight, m) -> int:
    """Public alias for the recursion; m is the simple-root offset from lam."""
    if not lam.dominant:
        raise ValueError("multiplicities are computed below a dominant weight")
    root_system(cartan)  # raises NotFiniteTypeError early
    return multiplicity(cartan, lam, tuple(int(v) for v in m))


@lru_cache(maxsize=512)
def weight_system(cartan: CartanData, lam_coeffs: tuple[int, ...]) -> dict:
    """All offsets m with positive multiplicity, found top-down.

    Every weight below the top is reachable by adding one simple root, so the
    level-by-level search is exhaustive.
    """
    lam = Weight(cartan, lam_coeffs)
    n = cartan.rank
    zero = (0,) * n
    known = {zero: 1}
    level = [zero]
    while level:
        nxt = set()
        for m in level:
            for i in range(n):
                cand = tuple(v + (1 if j == i else 0) for j, v in enumerate(m))
                if cand not in known:
                    nxt.add(cand)
        level = []
        for cand in nxt:
            mult = multiplicity(cartan, lam, cand)
            if mult:
                known[cand] = mult
                level.append(cand)
    return known


@lru_cache(maxsize=512)
def tensor_decomposition(cartan: CartanData, lam_coeffs: tuple[int, ...], mu_coeffs: tuple[int, ...]) -> dict:
    """Decompose the character product into highest-weight characters.

    Works with offsets from the product top lam + mu; the minimal-height
    remaining offset is always a dominant extremal weight, so repeated
    extraction terminates with the full decomposition.
    """
    lam = Weight(cartan, lam_coeffs)
    mu = Weight(cartan, mu_coeffs)
    chi_lam = weight_system(cartan, lam_coeffs)
    chi_mu = weight_system(cartan, mu_coeffs)
    n = cartan.rank
    product: dict[tuple[int, ...], int] = {}
    for m1, c1 in chi_lam.items():
        for m2, c2 in chi_mu.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            product[key] = product.get(key, 0) + c1 * c2
    top = lam + mu
    out: dict[tuple[int, ...], int] = {}
    while product:
        o = min(product, key=lambda m: (sum(m), m))
        coeff = product[o]
        kappa = tuple(top.pairing(i) - _coroot_pairing(cartan, o, i) for i in cartan.indices)
        assert coeff > 0 and all(v >= 0 for v in kappa)
        out[kappa] = out.get(kappa, 0) + coeff
        for m, c in weight_system(cartan, kappa).items():
            key = tuple(a + b for a, b in zip(o, m))
            newval = product.get(key, 0) - coeff * c
            if newval:
                product[key] = newval
            else:
                product.pop(key, None)
    return out


def char_product_lr(cartan: CartanData, lam: Weight, mu: Weight, nu: Weight) -> int:
    """Multiplicity of the nu component in lam (x) mu, by brute character algebra."""
    for w in (lam, mu, nu):
        if not w.dominant:
            raise ValueError("all three weights must be dominant")
    return tensor_decomposition(cartan, lam.coeffs, mu.coeffs).get(nu.coeffs, 0)
