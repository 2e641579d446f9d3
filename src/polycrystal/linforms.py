"""Affine-linear forms on the infinite lattice and the piecewise-linear
rewriting operators whose closures generate the defining inequality systems.

A form is ``const + sum_k coeff_k * x_k`` with finitely many nonzero integer
coefficients.  Two rewriting operators act on forms at a position k:

* the plain operator subtracts ``coeff_k`` times the next-occurrence
  difference form ``beta_k`` when ``coeff_k > 0`` and adds it back from the
  previous occurrence (nothing at a first occurrence) when ``coeff_k < 0``;
* the highest-weight operator does the same but, at a first occurrence with
  ``coeff_k < 0``, uses the variant carrying the weight pairing as a
  constant term.

At ``coeff_k = 0`` both operators are the identity.  The beta forms are
shifts of the rows that :class:`IotaSequence` tabulates per period offset.

Worklist closures of seed forms under these operators, restricted to a
support window 1..W, produce the inequality systems.  While it runs, a
closure holds each form as the dense integer tuple (const, c_1, ..., c_W).
It rewrites a form only on its support, since a zero-coefficient rewrite is
the identity; a rewrite at k subtracts c_k times a sparse beta row.  The
:class:`LinForm` objects are built once, at the end.  Truncation is reported
honestly whenever a generated form escapes the window, and the first such
form is kept as the reason.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress

from .cartan import Weight
from .iota import IotaSequence

PLAIN = "plain"
HAT = "hat"


class BudgetExceededError(RuntimeError):
    """A list-producing generator hit its count bound; carries the partial list.

    Closures do not raise it: they return their partial :class:`FormSet`
    flagged ``budget_hit``.
    """

    def __init__(self, partial):
        super().__init__(f"budget exceeded ({len(partial)} items kept)")
        self.partial = partial


@dataclass(frozen=True)
class LinForm:
    """Canonical affine-linear form: sorted (position, coefficient) pairs, no zeros.

    ``label`` is a rendering hint for constants that arise from a named weight
    coefficient; it never takes part in equality or hashing.
    """

    const: int = 0
    coeffs: tuple[tuple[int, int], ...] = ()
    label: str | None = field(default=None, compare=False)

    @staticmethod
    def build(const: int = 0, coeffs=None, label: str | None = None) -> "LinForm":
        items = {}
        if coeffs:
            pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for k, c in pairs:
                if k < 1:
                    raise ValueError("positions are 1-based")
                items[k] = items.get(k, 0) + c
        cleaned = tuple(sorted((k, c) for k, c in items.items() if c != 0))
        return LinForm(const, cleaned, label)

    @staticmethod
    def unit(k: int) -> "LinForm":
        return LinForm.build(coeffs={k: 1})

    def coeff(self, k: int) -> int:
        for pos, c in self.coeffs:
            if pos == k:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return self.const == 0 and not self.coeffs

    @property
    def max_index(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    def evaluate(self, values) -> int:
        """Exact value at a point given as a mapping position -> entry."""
        get = values.get
        return self.const + sum(c * get(k, 0) for k, c in self.coeffs)

    def plus(self, other: "LinForm", scale: int = 1) -> "LinForm":
        items = dict(self.coeffs)
        for k, c in other.coeffs:
            items[k] = items.get(k, 0) + scale * c
        cleaned = tuple(sorted((k, c) for k, c in items.items() if c != 0))
        return LinForm(self.const + scale * other.const, cleaned)

    def scaled(self, scale: int) -> "LinForm":
        if scale == 0:
            return LinForm()
        return LinForm(self.const * scale, tuple((k, c * scale) for k, c in self.coeffs))

    def sort_key(self):
        return (self.max_index, self.coeffs, self.const)

    def __repr__(self):
        return f"LinForm({self.render()})"

    def render(self, positions: str = "x") -> str:
        parts = []
        if self.label is not None:
            parts.append(self.label)
        elif self.const != 0 or not self.coeffs:
            parts.append(str(self.const))
        for k, c in self.coeffs:
            term = f"{positions}_{k}" if abs(c) == 1 else f"{abs(c)}{positions}_{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def beta_plus(s: IotaSequence, k: int) -> LinForm:
    """x_k + sum of pairings strictly between k and its next occurrence + x_{k^(+)}."""
    if k < 1:
        raise ValueError("positions are 1-based")
    return LinForm(0, tuple((k + d, c) for d, c in s.plus_rows[(k - 1) % s.period_len]))


def beta_minus(s: IotaSequence, lam: Weight, k: int) -> LinForm:
    """Previous-occurrence variant; at a first occurrence it carries -<h_{i_k}, lam>."""
    km = s.k_minus(k)
    if km > 0:
        return beta_plus(s, km)
    i = s.index(k)
    return LinForm(-lam.pairing(i), s.first_rows[i - 1])


def s_plain(s: IotaSequence, phi: LinForm, k: int) -> LinForm:
    """Weight-free rewriting at position k (first-occurrence negative case is a no-op)."""
    c = phi.coeff(k)
    if c > 0:
        return phi.plus(beta_plus(s, k), -c)
    if c < 0:
        km = s.k_minus(k)
        if km == 0:
            return phi
        return phi.plus(beta_plus(s, km), -c)
    return phi


def s_hat(s: IotaSequence, lam: Weight, phi: LinForm, k: int) -> LinForm:
    """Highest-weight rewriting at position k; idempotent."""
    c = phi.coeff(k)
    if c > 0:
        return phi.plus(beta_plus(s, k), -c)
    if c < 0:
        return phi.plus(beta_minus(s, lam, k), -c)
    return phi


def xi_form(s: IotaSequence, i: int) -> LinForm:
    """The seed form with coefficient -1 at the first occurrence of i."""
    s.first(i)  # raises for an index that does not occur
    return LinForm(0, tuple((j, -c) for j, c in s.first_rows[i - 1]))


def lambda_form(s: IotaSequence, lam: Weight, i: int) -> LinForm:
    """<h_i, lam> plus the xi seed; equals minus the first-occurrence beta variant."""
    base = xi_form(s, i)
    return LinForm(lam.pairing(i), base.coeffs, label=f"lambda_{i}")


@dataclass(frozen=True)
class FormSet:
    """A deduplicated set of forms, with closure bookkeeping.

    ``truncated`` means some generated form escaped the support window or a
    budget was hit, so membership tests against this set are necessary
    conditions only.  ``budget_hit`` marks the second cause: the set is the
    partial set a closure had reached when its form budget ran out.
    ``escaped`` is the first form a closure dropped for leaving the window,
    the reason for the first cause; it takes no part in equality.
    ``zero_beyond`` asserts that the full system pins x_k = 0 for every k
    past that cutoff; closed-form builders set it so that membership stays
    exact for points of arbitrary support.
    """

    forms: frozenset
    truncated: bool
    support_bound: int
    generators: tuple[LinForm, ...] = ()
    operator: str = PLAIN
    zero_beyond: int | None = None
    budget_hit: bool = False
    escaped: LinForm | None = field(default=None, compare=False)

    @property
    def sorted_forms(self) -> list[LinForm]:
        return sorted(self.forms, key=LinForm.sort_key)

    def __len__(self):
        return len(self.forms)


def generate_closure(
    s: IotaSequence,
    lam: Weight | None,
    seeds,
    operator: str = HAT,
    support_bound: int = 20,
    max_forms: int = 10000,
) -> FormSet:
    """Worklist closure of the seeds under the chosen operator at positions <= support_bound.

    While it runs, a form is the dense tuple ``(const, c_1, ..., c_W)`` over
    the window W = ``support_bound``, rewritten only at the positions of its
    support, in ascending order (a zero-coefficient rewrite is the identity),
    by sparse beta rows built once per call; forms are built once, at the end.
    Forms whose support escapes the window are dropped and flagged via
    ``truncated``, the first of them kept as ``escaped``; the zero form is
    discarded (it encodes 0 >= 0).  When more than ``max_forms`` distinct
    forms would appear, it stops and returns the partial set reached so far
    with ``budget_hit`` (and so ``truncated``) set.
    """
    if operator not in (PLAIN, HAT):
        raise ValueError(f"unknown operator {operator!r}")
    if operator == HAT and lam is None:
        raise ValueError("the highest-weight operator needs a weight")
    seeds = tuple(seeds)
    if max_forms < len(seeds):
        raise ValueError("max_forms is smaller than the seed set")
    for seed in seeds:
        if seed.max_index > support_bound:
            raise ValueError(f"seed {seed!r} exceeds the support bound {support_bound}")

    # The beta that the rewrite at position k subtracts c_k times, by the sign
    # of c_k, as (position, coefficient) pairs with the constant at position 0.
    # None is the identity: at position 0 and, for the plain operator, at a
    # first occurrence (k_minus = 0).  A beta reaching past the window stays a
    # LinForm: phi is zero there and beta is not, so every rewrite escapes.
    def row(beta):
        if beta is None or beta.max_index > support_bound:
            return beta
        return ((0, beta.const),) + beta.coeffs if beta.const else beta.coeffs

    window = range(1, support_bound + 1)
    rows_pos = [None] + [row(beta_plus(s, k)) for k in window]
    if operator == HAT:
        rows_neg = [None] + [row(beta_minus(s, lam, k)) for k in window]
    else:
        rows_neg = [None] + [rows_pos[s.k_minus(k)] for k in window]

    def form(v):
        return LinForm(v[0], tuple(zip(compress(window, v[1:]), filter(None, v[1:]))))

    seen: dict[tuple, LinForm | None] = {}  # dense tuple -> its seed, None if generated
    for seed in seeds:
        v = [seed.const] + [0] * support_bound
        for k, c in seed.coeffs:
            v[k] = c
        if not seed.is_zero:
            seen.setdefault(tuple(v), seed)
    queue = deque(seen)
    escaped = None

    def result(budget_hit=False):
        forms = frozenset(form(v) if seed is None else seed for v, seed in seen.items())
        truncated = budget_hit or escaped is not None
        return FormSet(forms, truncated, support_bound, seeds, operator, budget_hit=budget_hit, escaped=escaped)

    positions = range(support_bound + 1)
    while queue:
        phi = queue.popleft()
        # Ascending support order keeps the insertion order, and so a budget
        # hit's partial set, that of a scan over the whole window.  At c != 0
        # beta has coefficient 1 at k, so psi never equals phi.
        for k in compress(positions, phi):
            c = phi[k]
            beta = rows_pos[k] if c > 0 else rows_neg[k]
            if beta is None:
                continue
            if beta.__class__ is LinForm:
                if escaped is None:
                    escaped = form(phi).plus(beta, -c)
                continue
            v = list(phi)
            for j, b in beta:
                v[j] -= c * b
            psi = tuple(v)
            if psi in seen or not any(psi):
                continue
            if len(seen) >= max_forms:
                return result(budget_hit=True)
            seen[psi] = None
            queue.append(psi)
    return result()


def hat_system(s: IotaSequence, lam: Weight, support_bound: int, max_forms: int = 10000) -> FormSet:
    """The highest-weight closure of the unit seeds x_1..x_{support_bound}
    and the weight seeds, by :func:`generate_closure`; on a budget hit, the
    partial set it stopped at, flagged ``budget_hit``."""
    seeds = [LinForm.unit(k) for k in range(1, support_bound + 1)]
    seeds += [lambda_form(s, lam, i) for i in s.cartan.indices]
    return generate_closure(s, lam, seeds, HAT, support_bound, max_forms)


@dataclass(frozen=True)
class PositivityReport:
    """Verdict of the first-occurrence nonnegativity scan.

    A found violation is conclusive; a clean verdict on a truncated set is not.
    """

    passed: bool
    violations: tuple[tuple[LinForm, int], ...]
    conclusive: bool

    def __bool__(self):
        return self.passed


def check_positivity(fs: FormSet, s: IotaSequence, strict: bool = False) -> PositivityReport:
    """Scan every form for a negative coefficient at a first-occurrence position.

    ``strict`` excludes the set's recorded seed forms, which legitimately
    carry a -1 there.  A violation is conclusive; a clean scan is conclusive
    only when ``fs`` is not truncated, and ``fs`` says why it is.
    """
    first_positions = sorted(s.first(i) for i in s.cartan.indices)
    excluded = set(fs.generators) if strict else set()
    violations = []
    for phi in fs.sorted_forms:
        if phi in excluded:
            continue
        for k in first_positions:
            if phi.coeff(k) < 0:
                violations.append((phi, k))
    passed = not violations
    return PositivityReport(passed, tuple(violations), not passed or not fs.truncated)


@dataclass(frozen=True)
class AmpleReport:
    """Whether every generated form keeps a nonnegative constant term.

    ``system`` is the closure that was scanned; on an inconclusive verdict
    its ``budget_hit`` and ``escaped`` say why.
    """

    ample: bool
    conclusive: bool
    witness: LinForm | None
    system: FormSet = field(compare=False)

    def __bool__(self):
        return self.ample


def check_ample(
    s: IotaSequence,
    lam: Weight,
    support_bound: int = 20,
    max_forms: int = 10000,
) -> AmpleReport:
    """Test whether the zero vector satisfies the generated system.

    Runs :func:`hat_system`; a negative constant term is a conclusive
    failure, while an all-clear on a truncated closure (window escape or
    budget hit) is reported with ``conclusive=False``.
    """
    if not lam.dominant:
        raise ValueError("ampleness is defined for dominant weights")
    fs = hat_system(s, lam, support_bound, max_forms)
    witness = next((phi for phi in fs.sorted_forms if phi.const < 0), None)
    ample = witness is None
    return AmpleReport(ample, not ample or not fs.truncated, witness, fs)


def forms_to_json(fs: FormSet) -> list[dict]:
    return [
        {"const": phi.const, "coeffs": {str(k): c for k, c in phi.coeffs}}
        for phi in fs.sorted_forms
    ]


def form_from_json(data: dict) -> LinForm:
    return LinForm.build(
        const=int(data.get("const", 0)),
        coeffs={int(k): int(c) for k, c in data.get("coeffs", {}).items()},
    )
