"""The realization proper: membership in the inequality-cut lattice set,
breadth-first enumeration of the realized highest-weight crystal,
dual-string values, weight multiplicities, and tensor-product
(Littlewood-Richardson) multiplicities.

Enumeration and the inequality description define the same set; the
enumerator can assert that agreement point by point as it runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cartan import Weight
from .crystal import HIGHEST_WEIGHT, LatticePoint, lattice_epsilons, sigma_sweep
from .iota import IotaSequence
from .linforms import FormSet, LinForm, check_positivity, hat_system


class NotAmpleError(ValueError):
    """The zero vector fails the supplied system; enumeration has no seed."""


class IncompleteEnumerationError(ValueError):
    """The enumeration depth cannot certify the requested count."""


class StrictPositivityViolatedError(ValueError):
    """The dual-string formula was invoked on a set violating its hypothesis."""


class CartanNotInvertibleError(ValueError):
    """Root offsets cannot be recovered from pairings (singular Cartan matrix)."""


@dataclass
class RealizationResult:
    elements: tuple[LatticePoint, ...]
    complete: bool
    by_weight: dict[tuple[int, ...], int]
    depth_used: int

    def __len__(self):
        return len(self.elements)


def member(x: LatticePoint, fs: FormSet) -> bool:
    """True iff every form of the system is nonnegative at x.

    When the system is truncated this is a necessary condition only; callers
    can read ``fs.truncated``.  A ``zero_beyond`` cutoff is enforced exactly.
    """
    if fs.zero_beyond is not None and any(k > fs.zero_beyond for k, _ in x.entries):
        return False
    values = x.values
    return all(phi.evaluate(values) >= 0 for phi in fs.forms)


def enumerate_blambda(
    s: IotaSequence,
    lam: Weight,
    fs: FormSet,
    depth_cap: int | None = None,
    validate: bool | None = None,
) -> RealizationResult:
    """Breadth-first closure of the zero vector under all lowering operators.

    Depth is the coordinate sum, which every lowering step increases by one,
    so levels fill completely in order.  Points are held as bare entry
    tuples; one :func:`sigma_sweep` per point gives every color's f_i: it
    acts iff max sigma > sigma0 and raises the entry at the leftmost argmax.

    With ``validate`` (default: on under __debug__) every reached point is
    also checked against the inequality system, cross-validating enumeration
    against the cut-out set.  The check is incremental and exact: the origin
    gets the full :func:`member` test, and a child x + e_k of a point that
    passed is re-checked only against ``zero_beyond`` at k and the forms with
    a negative coefficient at k.  Every other form has a coefficient >= 0 at
    k, so its value at the child is at least its value at the parent; by
    induction over the levels, the verdict is that of :func:`member` on every
    point.
    """
    if validate is None:
        validate = __debug__
    origin = LatticePoint.build(s, lam, {}, HIGHEST_WEIGHT)
    if not member(origin, fs):
        raise NotAmpleError("the zero vector violates the supplied system")

    period = s.period
    columns = tuple(zip(*s.cartan.matrix))
    negative: dict[int, list[LinForm]] = {}
    if validate:
        for phi in fs.forms:
            for k, c in phi.coeffs:
                if c < 0:
                    negative.setdefault(k, []).append(phi)
    cutoff = fs.zero_beyond

    def violates(entries, k: int) -> bool:
        if cutoff is not None and k > cutoff:
            return True
        forms = negative.get(k)
        if not forms:
            return False
        values = dict(entries)
        return any(phi.evaluate(values) < 0 for phi in forms)

    seen = {origin.entries}
    levels = [[origin.entries]]
    complete = True
    while True:
        if depth_cap is not None and len(levels) - 1 >= depth_cap:
            complete = False
            break
        nxt = []
        for entries in levels[-1]:
            top, kmin, _, s0 = sigma_sweep(entries, period, columns, lam.coeffs)
            for c, k in enumerate(kmin):
                if top[c] <= s0[c]:
                    continue
                child = _raised(entries, k)
                if child in seen:
                    continue
                if validate and violates(child, k):
                    point = LatticePoint(child, s, lam, HIGHEST_WEIGHT)
                    raise AssertionError(f"enumerated point {point.render()} violates the inequality system")
                seen.add(child)
                nxt.append(child)
        if not nxt:
            break
        levels.append(nxt)

    elements = tuple(LatticePoint(e, s, lam, HIGHEST_WEIGHT) for level in levels for e in sorted(level))
    by_weight = dict(Counter(p.color_sums() for p in elements))
    depth_used = depth_cap if not complete else len(levels) - 1
    return RealizationResult(elements, complete, by_weight, depth_used)


def _raised(entries, k: int):
    """Sorted (position, value) pairs with the entry at k raised by one; the
    entries of a walked point are positive, so none drops to zero."""
    for n, (pos, v) in enumerate(entries):
        if pos == k:
            return entries[:n] + ((k, v + 1),) + entries[n + 1:]
        if pos > k:
            return entries[:n] + ((k, 1),) + entries[n:]
    return entries + ((k, 1),)


def epsilon_star(x: LatticePoint, i: int, xi_set: FormSet) -> int:
    """max of -phi(x) over the color-i generated forms.

    Valid on the weight-free realization under strict positivity; the
    strict :func:`check_positivity` scan here covers the supplied set (its
    own seed excluded), and assembling the full cross-color union is the
    caller's job.
    """
    rep = check_positivity(xi_set, x.iota, strict=True)
    if not rep:
        phi, k = rep.violations[0]
        raise StrictPositivityViolatedError(f"form {phi!r} has a negative coefficient at first occurrence {k}")
    values = x.values
    return max(-phi.evaluate(values) for phi in xi_set.forms)


def weight_multiplicity(result: RealizationResult, m) -> int:
    """Count enumerated elements whose per-color coordinate sums equal m."""
    key = tuple(int(v) for v in (m.values() if hasattr(m, "values") else m))
    depth = sum(key)
    if not result.complete and depth >= result.depth_used:
        raise IncompleteEnumerationError(
            f"depth {depth} is not strictly below the enumerated cap {result.depth_used}"
        )
    return result.by_weight.get(key, 0)


def solve_root_offset(lam_coeffs, cartan) -> tuple[int, ...] | None:
    """Solve sum_i m_i alpha_i = target (given by fundamental coefficients).

    Fraction-free (Bareiss) Gauss-Jordan on the integer augmented matrix:
    every division is exact, and every diagonal entry ends as d = +-det.
    Returns None when no nonnegative integer solution exists; raises when the
    Cartan matrix is singular (offsets are not pairing-determined then).
    """
    n = cartan.rank
    rows = [list(row) + [t] for row, t in zip(cartan.matrix, lam_coeffs)]
    d = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise CartanNotInvertibleError("Cartan matrix is singular; finite type required")
        rows[col], rows[piv] = rows[piv], rows[col]
        top, p = rows[col], rows[col][col]
        rows = [row if row is top else [(p * v - row[col] * w) // d for v, w in zip(row, top)] for row in rows]
        d = p
    if any(row[n] % d or row[n] // d < 0 for row in rows):
        return None
    return tuple(row[n] // d for row in rows)


def _passes_tensor_rule(p: LatticePoint, lam: Weight) -> bool:
    return all(e <= l for e, l in zip(lattice_epsilons(p), lam.coeffs))


def tensor_multiplicities(lam: Weight, mu_result: RealizationResult) -> dict[tuple[int, ...], int]:
    """Every c^nu_{lam, mu}, keyed by nu's coefficients, from one scan of the
    complete walk ``mu_result`` of B(mu).

    Kashiwara's tensor rule: u_lam (x) b is a highest-weight element of
    B(lam) (x) B(mu) iff epsilon_i(b) <= <h_i, lam> for every i.  Its weight
    is nu = lam + mu - A m(b), m(b) being b's color sums.
    """
    if not lam.dominant:
        raise ValueError("tensor multiplicities are defined for dominant weights")
    if not mu_result.complete:
        raise IncompleteEnumerationError(f"the walk of B(mu) is cut at depth {mu_result.depth_used}")
    top = lam + mu_result.elements[0].lam
    out: dict[tuple[int, ...], int] = {}
    for p in mu_result.elements:
        if _passes_tensor_rule(p, lam):
            m = p.color_sums()
            nu = tuple(t - sum(a * v for a, v in zip(row, m)) for t, row in zip(top.coeffs, lam.cartan.matrix))
            out[nu] = out.get(nu, 0) + 1
    return out


def lr_coefficient(
    s: IotaSequence,
    lam: Weight,
    mu: Weight,
    nu: Weight,
    fs: FormSet | None = None,
    validate: bool | None = None,
) -> int:
    """Multiplicity of the nu component in the lam (x) mu tensor product.

    Enumerates the realized mu-crystal to the depth of nu's root offset and
    counts the elements of weight nu - lam that pass the tensor rule of
    :func:`tensor_multiplicities`.  The walk is checked against ``fs``, mu's
    inequality system, by default the :func:`hat_system` over period length
    times (depth + 2) positions.
    """
    if not all(w.dominant for w in (lam, mu, nu)):
        raise ValueError("tensor multiplicities are defined for dominant weights")
    target = [lam.pairing(i) + mu.pairing(i) - nu.pairing(i) for i in s.cartan.indices]
    offset = solve_root_offset(target, s.cartan)
    if offset is None:
        return 0
    depth = sum(offset)
    if fs is None:
        fs = hat_system(s, mu, s.period_len * (depth + 2))
    mu_result = enumerate_blambda(s, mu, fs, depth_cap=depth + 1, validate=validate)
    return sum(1 for p in mu_result.elements if p.color_sums() == offset and _passes_tensor_rule(p, lam))
