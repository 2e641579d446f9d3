"""Root data: generalized Cartan matrices, symmetrizers, and integral weights.

Everything downstream (index sequences, linear forms, crystal operators)
reads pairings ``<h_i, alpha_j>`` off a :class:`CartanData`.  Weights are kept
in the fundamental-weight coefficient basis, so ``<h_i, lam>`` is a lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd


class InvalidCartanError(ValueError):
    """A matrix violates the generalized-Cartan-matrix or symmetrizer axioms."""


@dataclass(frozen=True)
class CartanData:
    """An n x n generalized Cartan matrix plus a positive symmetrizer.

    Indices run 1..rank.  ``matrix[i-1][j-1]`` is ``<h_i, alpha_j>`` and the
    symmetrizer entries satisfy d_i * a_ij == d_j * a_ji.
    """

    rank: int
    matrix: tuple[tuple[int, ...], ...]
    family: tuple
    symmetrizer: tuple[int, ...]

    def __post_init__(self):
        n = self.rank
        if n < 1:
            raise InvalidCartanError("rank must be a positive integer")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise InvalidCartanError(f"matrix must be {n}x{n}")
        a = self.matrix
        for i in range(n):
            if a[i][i] != 2:
                raise InvalidCartanError(f"diagonal entry a[{i + 1}][{i + 1}] = {a[i][i]}, expected 2")
            for j in range(n):
                if i == j:
                    continue
                if a[i][j] > 0:
                    raise InvalidCartanError(f"off-diagonal entry a[{i + 1}][{j + 1}] = {a[i][j]} > 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise InvalidCartanError(
                        f"zero pattern broken at ({i + 1},{j + 1}): {a[i][j]} vs {a[j][i]}"
                    )
        d = self.symmetrizer
        if len(d) != n or any(di < 1 for di in d):
            raise InvalidCartanError("symmetrizer must be rank many positive integers")
        for i in range(n):
            for j in range(n):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise InvalidCartanError(
                        f"symmetrizer fails at ({i + 1},{j + 1}): "
                        f"{d[i]}*{a[i][j]} != {d[j]}*{a[j][i]}"
                    )

    @property
    def indices(self) -> range:
        return range(1, self.rank + 1)

    def pairing(self, i: int, j: int) -> int:
        """<h_i, alpha_j> for 1-based indices i, j."""
        if not (1 <= i <= self.rank and 1 <= j <= self.rank):
            raise IndexError(f"index pair ({i},{j}) outside 1..{self.rank}")
        return self.matrix[i - 1][j - 1]


def rank2(c1: int, c2: int) -> CartanData:
    """Rank-2 data with <h_1,alpha_2> = -c1 and <h_2,alpha_1> = -c2.

    Either c1 = c2 = 0 or both must be positive.
    """
    if not ((c1 == 0 and c2 == 0) or (c1 > 0 and c2 > 0)):
        raise InvalidCartanError(f"rank2 parameters must be both zero or both positive, got ({c1},{c2})")
    if c1 == 0:
        d = (1, 1)
    else:
        g = gcd(c1, c2)
        d = (c2 // g, c1 // g)
    return CartanData(2, ((2, -c1), (-c2, 2)), ("rank2", (c1, c2)), d)


def type_a(n: int) -> CartanData:
    """Finite type A_n: off-diagonal -1 exactly when |i-j| = 1."""
    if n < 1:
        raise InvalidCartanError("type A needs n >= 1")
    rows = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )
    return CartanData(n, rows, ("an", (n,)), (1,) * n)


def affine_a(n: int) -> CartanData:
    """Affine data on n nodes arranged in a cycle: -1 when |i-j| is 1 or n-1."""
    if n < 3:
        raise InvalidCartanError("affine type A needs n >= 3")
    rows = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) in (1, n - 1) else 0) for j in range(n))
        for i in range(n)
    )
    return CartanData(n, rows, ("affine-a", (n,)), (1,) * n)


def custom(matrix, symmetrizer) -> CartanData:
    """Validate a user-supplied matrix; the symmetrizer is checked, not searched."""
    rows = tuple(tuple(int(v) for v in row) for row in matrix)
    return CartanData(len(rows), rows, ("custom", ()), tuple(int(d) for d in symmetrizer))


def custom_from_json(text: str) -> CartanData:
    """Parse {"rank": n, "matrix": [[...]], "symmetrizer": [...]}."""
    data = json.loads(text)
    c = custom(data["matrix"], data["symmetrizer"])
    if c.rank != int(data["rank"]):
        raise InvalidCartanError(f"declared rank {data['rank']} but matrix is {c.rank}x{c.rank}")
    return c


def build_cartan(spec: str) -> CartanData:
    """Build from a family string: rank2:c1,c2 | an:n | affine-a:n | custom:file.json."""
    name, _, arg = spec.partition(":")
    if name == "rank2":
        c1, c2 = (int(v) for v in arg.split(","))
        return rank2(c1, c2)
    if name == "an":
        return type_a(int(arg))
    if name == "affine-a":
        return affine_a(int(arg))
    if name == "custom":
        with open(arg, "r", encoding="utf-8") as fh:
            return custom_from_json(fh.read())
    raise InvalidCartanError(f"unknown family {name!r}")


@dataclass(frozen=True)
class Weight:
    """An integral weight stored by its fundamental-weight coefficients."""

    cartan: CartanData
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.cartan.rank:
            raise ValueError(f"expected {self.cartan.rank} coefficients, got {len(self.coeffs)}")

    def pairing(self, i: int) -> int:
        """<h_i, lam> = the i-th fundamental coefficient."""
        return self.coeffs[i - 1]

    @property
    def dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other: "Weight") -> "Weight":
        if other.cartan != self.cartan:
            raise ValueError("weights live over different Cartan data")
        return Weight(self.cartan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        if other.cartan != self.cartan:
            raise ValueError("weights live over different Cartan data")
        return Weight(self.cartan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


def weight(cartan: CartanData, coeffs) -> Weight:
    if isinstance(coeffs, str):
        coeffs = [int(v) for v in coeffs.split(",")]
    return Weight(cartan, tuple(int(v) for v in coeffs))


def zero_weight(cartan: CartanData) -> Weight:
    return Weight(cartan, (0,) * cartan.rank)


def fundamental(cartan: CartanData, i: int) -> Weight:
    return Weight(cartan, tuple(1 if j == i else 0 for j in cartan.indices))
