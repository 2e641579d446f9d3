"""Periodic index sequences and their occurrence accessors.

The infinite sequence iota = (i_1, i_2, ...) is stored by one period;
``period[0]`` is i_1.  The conventional display prints sequences
right-to-left ("..., i_2, i_1"), which is what
:meth:`IotaSequence.from_display` and the CLI --iota flag accept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .cartan import CartanData


@dataclass(frozen=True)
class IotaSequence:
    """One period of iota plus occurrence tables built once at construction.

    ``plus_rows[t]`` is the beta-plus row of the positions k = t + 1 mod the
    period length: the sorted (offset from k, coefficient) pairs of x_k, the
    pairings <h_{i_k}, alpha_{i_j}> for k < j < k^(+), and x_{k^(+)}; its last
    offset is the gap to the next occurrence.  ``prev_gap[t]`` is the gap to
    the previous one.  ``first_rows[i - 1]`` holds the (position,
    coefficient) pairs of the pairings before the first occurrence of i and
    then (first position, 1).
    """

    cartan: CartanData
    period: tuple[int, ...]
    plus_rows: tuple = field(init=False, repr=False, compare=False)
    prev_gap: tuple[int, ...] = field(init=False, repr=False, compare=False)
    first_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.period
        m = len(p)
        if m == 0:
            raise ValueError("period must be nonempty")
        present = set(p)
        valid = set(self.cartan.indices)
        if not present <= valid:
            raise ValueError(f"period uses indices {sorted(present - valid)} outside 1..{self.cartan.rank}")
        if present != valid:
            raise ValueError(f"every index must occur in the period; missing {sorted(valid - present)}")
        if m == 1:
            # Only possible at rank 1; the no-immediate-repeat condition cannot hold.
            warnings.warn("period of length 1 repeats its index consecutively", stacklevel=3)
        else:
            for t in range(m):
                if p[t] == p[(t + 1) % m]:
                    raise ValueError(f"indices repeat consecutively at period offset {t + 1}")
        twice = p + p
        plus_rows, prev_gap, first_rows = [], [0] * m, {}
        for t, i in enumerate(p):
            pair = self.cartan.matrix[i - 1]  # pair[j - 1] = <h_i, alpha_j>
            gap = twice.index(i, t + 1) - t
            prev_gap[(t + gap) % m] = gap
            row = [(0, 1)]
            for d in range(1, gap):
                if pair[twice[t + d] - 1]:
                    row.append((d, pair[twice[t + d] - 1]))
            row.append((gap, 1))
            plus_rows.append(tuple(row))
            if i not in first_rows:
                row = [(j + 1, pair[p[j] - 1]) for j in range(t) if pair[p[j] - 1]]
                row.append((t + 1, 1))
                first_rows[i] = tuple(row)
        object.__setattr__(self, "plus_rows", tuple(plus_rows))
        object.__setattr__(self, "prev_gap", tuple(prev_gap))
        object.__setattr__(self, "first_rows", tuple(first_rows[i] for i in self.cartan.indices))

    @classmethod
    def from_display(cls, cartan: CartanData, period) -> "IotaSequence":
        """Build from right-to-left display order (leftmost entry applied last)."""
        if isinstance(period, str):
            period = [int(v) for v in period.split(",")]
        return cls(cartan, tuple(reversed([int(v) for v in period])))

    @property
    def period_len(self) -> int:
        return len(self.period)

    def index(self, k: int) -> int:
        """The index i_k, k >= 1."""
        if k < 1:
            raise ValueError("positions are 1-based")
        return self.period[(k - 1) % len(self.period)]

    def k_plus(self, k: int) -> int:
        """Least l > k with i_l = i_k; exists by periodicity."""
        if k < 1:
            raise ValueError("positions are 1-based")
        return k + self.plus_rows[(k - 1) % len(self.period)][-1][0]

    def k_minus(self, k: int) -> int:
        """Greatest l < k with i_l = i_k, or 0 if k is the first occurrence."""
        if k < 1:
            raise ValueError("positions are 1-based")
        return max(0, k - self.prev_gap[(k - 1) % len(self.period)])

    def first(self, i: int) -> int:
        """The first position carrying index i; lies within the first period."""
        if i not in self.cartan.indices:
            raise ValueError(f"index {i} does not occur")
        return self.first_rows[i - 1][-1][0]


def standard_iota(cartan: CartanData) -> IotaSequence:
    """The cyclic sequence 1,2,...,n,1,2,... (display: ...,n,...,2,1)."""
    return IotaSequence(cartan, tuple(cartan.indices))
