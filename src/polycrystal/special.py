"""Closed-form inequality systems: rank 2 via Chebyshev-recursion
coefficients, the type-A staircase, and the affine type-A family indexed by
admissible matrices.  These serve both as fast paths and as independent
cross-checks of the generic operator closures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import Weight
from .linforms import BudgetExceededError, FormSet, LinForm

CLOSED = "closed-form"


def cheb_p(x: int, k: int) -> int:
    """Degree-k value of the recurrence P_0 = 1, P_1 = X, P_k = X*P_{k-1} - P_{k-2}."""
    if k < 0:
        return 0
    prev, cur = 0, 1
    for _ in range(k):
        prev, cur = cur, x * cur - prev
    return cur


def cheb_a(c1: int, c2: int, l: int) -> int:
    """The rank-2 coefficient sequence: a_0 = 0, a_1 = 1, even terms
    c1*P_{k-1}, odd terms P_k + P_{k-1} in X = c1*c2 - 2."""
    if l < 0:
        raise ValueError("coefficient index must be nonnegative")
    if l == 0:
        return 0
    if l == 1:
        return 1
    x = c1 * c2 - 2
    k, odd = divmod(l, 2)
    if odd:
        return cheb_p(x, k) + cheb_p(x, k - 1)
    return c1 * cheb_p(x, k - 1)


@dataclass(frozen=True)
class ChebCoeffs:
    """Coefficient bookkeeping for one rank-2 datum.

    ``l_max`` is the first l with a_{l+1} < 0, or None when the sequence
    stays positive (product of the off-diagonal parameters >= 4).
    """

    c1: int
    c2: int

    @property
    def x(self) -> int:
        return self.c1 * self.c2 - 2

    def a(self, l: int) -> int:
        return cheb_a(self.c1, self.c2, l)

    def a_prime(self, l: int) -> int:
        return cheb_a(self.c2, self.c1, l)

    @property
    def l_max(self) -> int | None:
        if self.c1 * self.c2 >= 4:
            return None
        for l in range(0, 8):
            if self.a(l + 1) < 0:
                return l
        raise AssertionError("unreachable: small products go negative by l = 6")


def rank2_system(c1: int, c2: int, lam: Weight, l_window: int | None = None) -> FormSet:
    """The closed rank-2 system: lam_1 >= x_1, the a/a' difference families
    for l below the cutoff, and x_k = 0 past the cutoff (emitted as +/- pairs
    inside the window and enforced beyond it via ``zero_beyond``).

    When the coefficient sequence never turns negative the family is
    infinite and ``l_window`` is required.
    """
    coeffs = ChebCoeffs(c1, c2)
    lmax = coeffs.l_max
    if lmax is None:
        if l_window is None:
            raise ValueError("infinite family: an explicit l_window is required")
        limit = l_window
        support = l_window + 1
        zero_beyond = None
        truncated = True
    else:
        limit = lmax if l_window is None else min(lmax, l_window)
        support = lmax + 1
        zero_beyond = lmax
        truncated = False
    forms = set()
    for k in range(1, support + 1):
        forms.add(LinForm.unit(k))
        if zero_beyond is not None and k > zero_beyond:
            forms.add(LinForm.build(coeffs={k: -1}))
    forms.add(LinForm.build(const=lam.pairing(1), coeffs={1: -1}, label="lambda_1"))
    for l in range(1, limit):
        forms.add(LinForm.build(coeffs={l: coeffs.a(l), l + 1: -coeffs.a(l - 1)}))
        forms.add(
            LinForm.build(
                const=lam.pairing(2),
                coeffs={l: coeffs.a_prime(l + 1), l + 1: -coeffs.a_prime(l)},
                label="lambda_2",
            )
        )
    return FormSet(frozenset(forms), truncated, support, (), CLOSED, zero_beyond)


def rank2_epsilon_star(c1: int, c2: int, x_values: dict[int, int], i: int) -> int:
    """Closed dual-string value on the weight-free rank-2 realization."""
    if i == 1:
        return x_values.get(1, 0)
    if i != 2:
        raise IndexError("rank-2 colors are 1 and 2")
    coeffs = ChebCoeffs(c1, c2)
    top = max(x_values) if x_values else 0
    limit = top + 1 if coeffs.l_max is None else min(coeffs.l_max, top + 1)
    best = 0 if coeffs.l_max is None else None
    for l in range(1, limit + 1):
        val = coeffs.a_prime(l) * x_values.get(l + 1, 0) - coeffs.a_prime(l + 1) * x_values.get(l, 0)
        best = val if best is None else max(best, val)
    return best


# Type A staircase: positions (j;i) <-> (j-1)*n + i, with out-of-range double
# indices reading as zero.


def an_pos(n: int, j: int, i: int) -> int:
    return (j - 1) * n + i


def an_system(n: int, lam: Weight) -> FormSet:
    """The staircase system: descending chains per color, zeros outside the
    triangle i + j <= n + 1, and the weight bounds on consecutive differences."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if lam.cartan.rank != n:
        raise ValueError("weight rank mismatch")
    forms = set()
    zero_beyond = an_pos(n, n, 1)
    for i in range(1, n + 1):
        for j in range(1, i):
            forms.add(LinForm.build(coeffs={an_pos(n, j, i - j + 1): 1, an_pos(n, j + 1, i - j): -1}))
        forms.add(LinForm.unit(an_pos(n, i, 1)))
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i + j > n + 1 and an_pos(n, j, i) <= zero_beyond:
                forms.add(LinForm.unit(an_pos(n, j, i)))
                forms.add(LinForm.build(coeffs={an_pos(n, j, i): -1}))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            coeffs = {an_pos(n, j, i - j + 1): -1}
            if i - j >= 1:
                coeffs[an_pos(n, j, i - j)] = 1
            forms.add(LinForm.build(const=lam.pairing(i), coeffs=coeffs, label=f"lambda_{i}"))
    return FormSet(frozenset(forms), False, zero_beyond, (), CLOSED, zero_beyond)


def an_epsilon_star(n: int, x_values: dict[int, int], i: int) -> int:
    """Closed dual-string value on the weight-free type-A realization."""
    return max(
        x_values.get(an_pos(n, j, i - j + 1), 0) - (x_values.get(an_pos(n, j, i - j), 0) if i - j >= 1 else 0)
        for j in range(1, i + 1)
    )


# Affine type A: double indices (j;i) over columns 1..n-1 with the shifted
# position map j;i[k] = k - 1 + (j-1)(n-1) + i.


def affine_pos(n: int, j: int, i: int, k: int = 1) -> int:
    return k - 1 + (j - 1) * (n - 1) + i


@dataclass(frozen=True)
class AdmissibleMatrix:
    """A finitely supported integer matrix over rows x columns 1..n-1 whose
    column partial sums satisfy the nonnegativity, stabilization, cumulative
    bound, and propagation conditions (checked within the stabilized window)."""

    n: int
    entries: tuple[tuple[tuple[int, int], int], ...]
    row_bound: int

    @staticmethod
    def build(n: int, entries, row_bound: int) -> "AdmissibleMatrix":
        pairs = entries.items() if hasattr(entries, "items") else entries
        cleaned = tuple(sorted(((int(j), int(i)), int(c)) for (j, i), c in pairs if c != 0))
        m = AdmissibleMatrix(n, cleaned, int(row_bound))
        m.validate()
        return m

    def entry(self, j: int, i: int) -> int:
        return dict(self.entries).get((j, i), 0)

    def s(self, j: int, i: int) -> int:
        """Column partial sum through row j."""
        return sum(c for (r, col), c in self.entries if col == i and r <= j)

    def s_rows(self, rows: int) -> list[list[int]]:
        return [[self.s(j, i) for i in range(1, self.n)] for j in range(1, rows + 1)]

    def validate(self) -> None:
        n, top = self.n, self.row_bound
        if n < 3:
            raise ValueError("affine double indexing needs n >= 3")
        if any(not (1 <= i <= n - 1) or j < 1 for (j, i), _ in self.entries):
            raise ValueError("entries must sit in rows >= 1 and columns 1..n-1")
        if any(j > top for (j, _), _ in self.entries):
            raise ValueError("entries beyond the declared row bound")
        rows = self.s_rows(top + 1)
        total = 0
        for j in range(1, top + 2):
            for i in range(1, n):
                s = rows[j - 1][i - 1]
                if s < 0:
                    raise ValueError(f"partial sum negative at ({j};{i})")
                if j >= top and s != (1 if i == 1 else 0):
                    raise ValueError(f"tail not stabilized at ({j};{i})")
                total += s
                if total > j:
                    raise ValueError(f"cumulative bound broken at ({j};{i})")
                if j >= top and i == n - 1 and total != j:
                    raise ValueError(f"cumulative equality fails at row {j}")
                if s > 0 and j <= top:
                    window = [rows[j - 1][t - 1] for t in range(i + 1, n)]
                    window += [rows[j][t - 1] for t in range(1, i + 1)]
                    if not any(v > 0 for v in window):
                        raise ValueError(f"propagation fails after ({j};{i})")

    def form(self, k: int = 1, label: str | None = None) -> LinForm:
        """The associated linear form over shift-k positions."""
        return LinForm.build(
            coeffs={affine_pos(self.n, j, i, k): c for (j, i), c in self.entries},
            label=label,
        )

    def to_json(self) -> dict:
        return {
            "entries": {f"{j};{i}": c for (j, i), c in self.entries},
            "row_bound": self.row_bound,
        }


def base_admissible(n: int) -> AdmissibleMatrix:
    """The matrix with a single 1 in the top-left cell; its forms are the units."""
    return AdmissibleMatrix.build(n, {(1, 1): 1}, 1)


def enumerate_admissible(n: int, row_bound: int, count_bound: int = 100000) -> list[AdmissibleMatrix]:
    """All admissible matrices whose partial-sum array stabilizes by the given
    row, found by backtracking over partial-sum rows.

    Free rows run 1..row_bound-1 subject to: entries nonnegative, running
    cumulative total <= row index, positivity propagation into the next row,
    and cumulative total row_bound - 1 after the last free row (so the fixed
    tail reaches equality).
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if row_bound < 1:
        raise ValueError("row_bound >= 1 required")
    width = n - 1
    tail = [1] + [0] * (width - 1)
    out: list[AdmissibleMatrix] = []

    def extend(rows: list[list[int]], total: int):
        j = len(rows) + 1
        if j == row_bound:
            if total != row_bound - 1:
                return
            emit(rows)
            return

        def fill(row: list[int], acc: int, col: int):
            if col > width:
                if propagation_ok(rows, row):
                    extend(rows + [row], acc)
                return
            for v in range(0, (j - acc) + 1):
                fill(row + [v], acc + v, col + 1)

        fill([], total, 1)

    def propagation_ok(rows: list[list[int]], new_row: list[int]) -> bool:
        if not rows:
            return True
        prev = rows[-1]
        for i in range(1, width + 1):
            if prev[i - 1] > 0:
                window = prev[i:] + new_row[:i]
                if not any(v > 0 for v in window):
                    return False
        return True

    def emit(rows: list[list[int]]):
        # Tail propagation out of the last free row holds because the fixed
        # tail starts with a 1 in column 1.
        full = rows + [tail]
        entries = {}
        prev = [0] * width
        for j, row in enumerate(full, start=1):
            for i in range(1, width + 1):
                c = row[i - 1] - prev[i - 1]
                if c:
                    entries[(j, i)] = c
            prev = row
        if len(out) >= count_bound:
            raise BudgetExceededError(tuple(out))
        # Admissible by construction, so validate() is not repeated here.
        out.append(AdmissibleMatrix(n, tuple(sorted(entries.items())), row_bound))

    extend([], 0)
    out.sort(key=lambda m: (len(m.entries), m.entries))
    return out


def affine_a_system(n: int, lam: Weight, row_bound: int = 4, k_bound: int = 8) -> FormSet:
    """Truncated affine system: shifted admissible forms, the per-color
    bounds (one corner form for color 1, column differences for colors
    2..n-1), and the shift-0 family carrying the last weight coefficient.
    Always truncated (the matrix family is infinite).  Raises
    :class:`BudgetExceededError` when :func:`enumerate_admissible` hits its
    count bound."""
    if lam.cartan.rank != n:
        raise ValueError("weight rank mismatch")
    matrices = enumerate_admissible(n, row_bound)
    support = k_bound + row_bound * (n - 1)
    forms = set()
    for mat in matrices:
        for k in range(1, k_bound + 1):
            forms.add(mat.form(k))
    base = base_admissible(n)
    for mat in matrices:
        if mat.entries == base.entries:
            continue
        shifted = mat.form(0)
        forms.add(LinForm(lam.pairing(n), shifted.coeffs, label=f"lambda_{n}"))
    # Per-color weight bounds: color 1 contributes the single corner form,
    # colors 2..n-1 the column-difference family over all rows in the window.
    forms.add(LinForm.build(const=lam.pairing(1), coeffs={affine_pos(n, 1, 1): -1}, label="lambda_1"))
    max_j = support // (n - 1) + 1
    for i in range(2, n):
        for j in range(1, max_j + 1):
            if affine_pos(n, j, i) > support:
                continue
            coeffs = {affine_pos(n, j, i): -1, affine_pos(n, j, i - 1): 1}
            forms.add(LinForm.build(const=lam.pairing(i), coeffs=coeffs, label=f"lambda_{i}"))
    return FormSet(frozenset(forms), True, support, (), CLOSED)
