"""Crystals: the explicit structure on the infinite lattice, elementary
one-row crystals, single-element weight crystals, and tensor products.

The lattice structure comes in two modes.  In highest-weight mode the
string functions compare against the weight-dependent threshold
``sigma0``; in b-infinity mode that threshold is treated as minus
infinity, so the lowering operator always acts.  Minus infinity is
represented by ``float("-inf")`` purely as an order sentinel; all finite
values stay exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanData, Weight, zero_weight
from .iota import IotaSequence

HIGHEST_WEIGHT = "highest-weight"
B_INFINITY = "b-infinity"

MINUS_INFINITY = float("-inf")


class ModeError(ValueError):
    """Operation unavailable in this lattice mode."""


class ZeroElementError(ValueError):
    """The annihilator element supports no crystal maps."""


@dataclass(frozen=True)
class WeightExpr:
    """A weight in hybrid form: a fundamental-basis part plus an exact
    multiset of simple roots (signed integer coefficients).

    Equality is componentwise on both parts, which stays faithful in affine
    rank where pairings alone cannot separate weights.
    """

    fund: Weight
    alpha: tuple[int, ...]

    def pairing(self, i: int) -> int:
        a = self.fund.cartan.matrix[i - 1]
        return self.fund.pairing(i) + sum(c * a[j] for j, c in enumerate(self.alpha))

    def __add__(self, other: "WeightExpr") -> "WeightExpr":
        return WeightExpr(self.fund + other.fund, tuple(a + b for a, b in zip(self.alpha, other.alpha)))

    def shifted(self, i: int, delta: int) -> "WeightExpr":
        alpha = list(self.alpha)
        alpha[i - 1] += delta
        return WeightExpr(self.fund, tuple(alpha))


@dataclass(frozen=True)
class LatticePoint:
    """A finitely supported integer vector with its governing sequence, weight,
    and mode.  Entries are sorted (position, value) pairs with zeros dropped."""

    entries: tuple[tuple[int, int], ...]
    iota: IotaSequence
    lam: Weight
    mode: str = HIGHEST_WEIGHT

    def __post_init__(self):
        if self.mode not in (HIGHEST_WEIGHT, B_INFINITY):
            raise ModeError(f"unknown mode {self.mode!r}")
        if self.mode == HIGHEST_WEIGHT and not self.lam.dominant:
            raise ValueError("highest-weight mode needs a dominant weight")
        if any(k < 1 for k, _ in self.entries):
            raise ValueError("positions are 1-based")

    @staticmethod
    def build(s: IotaSequence, lam: Weight, values=None, mode: str = HIGHEST_WEIGHT) -> "LatticePoint":
        items = {}
        if values:
            pairs = values.items() if hasattr(values, "items") else enumerate_values(values)
            for k, v in pairs:
                if v:
                    items[int(k)] = items.get(int(k), 0) + int(v)
        cleaned = tuple(sorted((k, v) for k, v in items.items() if v != 0))
        return LatticePoint(cleaned, s, lam, mode)

    def get(self, k: int) -> int:
        for pos, v in self.entries:
            if pos == k:
                return v
        return 0

    @property
    def values(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def max_support(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    @property
    def total(self) -> int:
        return sum(v for _, v in self.entries)

    def replaced(self, k: int, v: int) -> "LatticePoint":
        items = self.values
        items[k] = v
        cleaned = tuple(sorted((p, x) for p, x in items.items() if x != 0))
        return LatticePoint(cleaned, self.iota, self.lam, self.mode)

    def color_sums(self) -> tuple[int, ...]:
        """Per-index coordinate sums m_i = sum of x_k over positions of color i."""
        period = self.iota.period
        sums = [0] * self.iota.cartan.rank
        for k, v in self.entries:
            sums[period[(k - 1) % len(period)] - 1] += v
        return tuple(sums)

    def render(self) -> str:
        top = max(1, self.max_support)
        vals = self.values
        return "(" + ",".join(str(vals.get(k, 0)) for k in range(top, 0, -1)) + ")"


def enumerate_values(seq):
    return ((k + 1, v) for k, v in enumerate(seq))


def sigma(x: LatticePoint, k: int) -> int:
    """x_k plus the pairing-weighted tail sum over positions beyond k."""
    s = x.iota
    i = s.index(k)
    total = x.get(k)
    for j, v in x.entries:
        if j > k:
            total += s.cartan.pairing(i, s.index(j)) * v
    return total


def sigma0(x: LatticePoint, i: int) -> int:
    """The weight-dependent threshold; undefined in b-infinity mode."""
    if x.mode != HIGHEST_WEIGHT:
        raise ModeError("sigma0 is only defined in highest-weight mode")
    return _profile(x)[3][i - 1]


def sigma_sweep(entries, period, columns, lam_coeffs):
    """All string-form data of a point in one right-to-left pass.

    ``entries`` are sorted (position, value) pairs, ``period`` is the iota
    period, ``columns[c]`` lists <h_r, alpha_{c+1}> over r (the Cartan
    matrix's columns) and ``lam_coeffs`` holds <h_i, lam>, or is None in
    b-infinity mode.  Returns per color (list index i - 1):

    - the max of sigma_k over positions k of that color;
    - its leftmost argmax kmin;
    - its rightmost argmax kmax, or None unless the max is positive;
    - sigma0, or None in b-infinity mode.

    The pass runs over k = window .. 1 with window = max support + period
    length, keeping the suffix sums S[c] = sum over j > k of
    <h_c, alpha_{i_j}> x_j for every color c, so sigma_k = x_k + S[i_k] and,
    at the end, sigma0 = S[i] - <h_i, lam>.  Every color occurs in the
    period past the support, where sigma vanishes, so the max is >= 0; that
    stretch covers the maximum and, when it is positive, the whole argmax set.
    """
    m = len(period)
    top = entries[-1][0] if entries else 0
    tail = [0] * len(columns)
    best = [0] * len(columns)
    kmin = [0] * len(columns)
    kmax = [0] * len(columns)
    for k in range(top + m, top, -1):
        kmin[period[(k - 1) % m] - 1] = k
    pos = len(entries) - 1
    for k in range(top, 0, -1):
        c = period[(k - 1) % m] - 1
        val = tail[c]
        if pos >= 0 and entries[pos][0] == k:
            v = entries[pos][1]
            pos -= 1
            val += v
            tail = [t + a * v for t, a in zip(tail, columns[c])]
        if val > best[c]:
            best[c] = val
            kmin[c] = kmax[c] = k
        elif val == best[c]:
            kmin[c] = k
    s0 = None if lam_coeffs is None else [t - l for t, l in zip(tail, lam_coeffs)]
    return best, kmin, [k if b > 0 else None for k, b in zip(kmax, best)], s0


def _profile(x: LatticePoint):
    cartan = x.iota.cartan
    lam = x.lam.coeffs if x.mode == HIGHEST_WEIGHT else None
    return sigma_sweep(x.entries, x.iota.period, tuple(zip(*cartan.matrix)), lam)


def sigma_max(x: LatticePoint, i: int) -> int:
    """The supremum of sigma over positions of color i; always >= 0."""
    return _profile(x)[0][i - 1]


def lattice_epsilons(x: LatticePoint) -> list:
    """epsilon_i of a lattice point for every color i, from one sweep."""
    best, _, _, s0 = _profile(x)
    return best if s0 is None else [max(b, z) for b, z in zip(best, s0)]


class Zero:
    """The annihilator element shared by every crystal."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "0"


ZERO = Zero()


@dataclass(frozen=True)
class LatticeElem:
    point: LatticePoint


@dataclass(frozen=True)
class Elementary:
    """The one-row crystal element (n)_i."""

    cartan: CartanData
    i: int
    n: int


@dataclass(frozen=True)
class RElem:
    """The single element of the one-point crystal attached to a weight."""

    lam: Weight


@dataclass(frozen=True)
class TensorElem:
    left: object
    right: object


def tensor(b1, b2):
    """Tensor product of elements; absorbing on the annihilator."""
    if b1 is ZERO or b2 is ZERO:
        return ZERO
    return TensorElem(b1, b2)


def weight(b) -> WeightExpr:
    if b is ZERO:
        raise ZeroElementError("the annihilator has no weight")
    if isinstance(b, LatticeElem):
        x = b.point
        n = x.iota.cartan.rank
        fund = x.lam if x.mode == HIGHEST_WEIGHT else zero_weight(x.iota.cartan)
        return WeightExpr(fund, tuple(-m for m in x.color_sums()))
    if isinstance(b, Elementary):
        alpha = tuple(b.n if j == b.i else 0 for j in b.cartan.indices)
        return WeightExpr(zero_weight(b.cartan), alpha)
    if isinstance(b, RElem):
        return WeightExpr(b.lam, (0,) * b.lam.cartan.rank)
    if isinstance(b, TensorElem):
        return weight(b.left) + weight(b.right)
    raise TypeError(f"not a crystal element: {b!r}")


def epsilon(b, i: int):
    if b is ZERO:
        raise ZeroElementError("the annihilator has no string functions")
    if isinstance(b, LatticeElem):
        return lattice_epsilons(b.point)[i - 1]
    if isinstance(b, Elementary):
        return -b.n if i == b.i else MINUS_INFINITY
    if isinstance(b, RElem):
        return -b.lam.pairing(i)
    if isinstance(b, TensorElem):
        e1 = epsilon(b.left, i)
        e2 = epsilon(b.right, i)
        return max(e1, e2 - weight(b.left).pairing(i))
    raise TypeError(f"not a crystal element: {b!r}")


def phi(b, i: int):
    if b is ZERO:
        raise ZeroElementError("the annihilator has no string functions")
    if isinstance(b, Elementary):
        return b.n if i == b.i else MINUS_INFINITY
    if isinstance(b, RElem):
        return 0
    if isinstance(b, TensorElem):
        p1 = phi(b.left, i)
        p2 = phi(b.right, i)
        return max(p2, p1 + weight(b.right).pairing(i))
    return epsilon(b, i) + weight(b).pairing(i)


def f_tilde(b, i: int):
    """Lowering operator; returns ZERO when undefined."""
    if b is ZERO:
        return ZERO
    if isinstance(b, LatticeElem):
        x = b.point
        top, kmin, _, s0 = _profile(x)
        if s0 is not None and not top[i - 1] > s0[i - 1]:
            return ZERO
        k = kmin[i - 1]
        return LatticeElem(x.replaced(k, x.get(k) + 1))
    if isinstance(b, Elementary):
        return Elementary(b.cartan, b.i, b.n - 1) if i == b.i else ZERO
    if isinstance(b, RElem):
        return ZERO
    if isinstance(b, TensorElem):
        if phi(b.left, i) > epsilon(b.right, i):
            return tensor(f_tilde(b.left, i), b.right)
        return tensor(b.left, f_tilde(b.right, i))
    raise TypeError(f"not a crystal element: {b!r}")


def e_tilde(b, i: int):
    """Raising operator; returns ZERO when undefined."""
    if b is ZERO:
        return ZERO
    if isinstance(b, LatticeElem):
        x = b.point
        top, _, kmax, s0 = _profile(x)
        if top[i - 1] <= 0:
            return ZERO
        if s0 is not None and not top[i - 1] >= s0[i - 1]:
            return ZERO
        k = kmax[i - 1]
        return LatticeElem(x.replaced(k, x.get(k) - 1))
    if isinstance(b, Elementary):
        return Elementary(b.cartan, b.i, b.n + 1) if i == b.i else ZERO
    if isinstance(b, RElem):
        return ZERO
    if isinstance(b, TensorElem):
        if phi(b.left, i) >= epsilon(b.right, i):
            return tensor(e_tilde(b.left, i), b.right)
        return tensor(b.left, e_tilde(b.right, i))
    raise TypeError(f"not a crystal element: {b!r}")


def lattice_graph_dot(points) -> str:
    """Colored-graph DOT export: nodes are sparse coordinate tuples printed
    right-to-left, edges are lowering-operator moves inside the given set."""
    points = list(points)
    index = {p.entries: n for n, p in enumerate(points)}
    lines = ["digraph crystal {"]
    for n, p in enumerate(points):
        lines.append(f'  n{n} [label="{p.render()}"];')
    for n, p in enumerate(points):
        for i in p.iota.cartan.indices:
            child = f_tilde(LatticeElem(p), i)
            if child is ZERO:
                continue
            m = index.get(child.point.entries)
            if m is not None:
                lines.append(f'  n{n} -> n{m} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)
