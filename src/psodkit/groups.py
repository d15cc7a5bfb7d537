"""Finitely generated abelian groups, carried as invariant factors.

Direct sums and multiples merge invariant factors over a coprime base, so
a group needs no matrix: ``psod ktheory`` runs on this module alone, and the
lattice algebra of ``abelian`` serves graded gluing.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

from .errors import InputError
from .records import record


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers >= 2 such that every value is a product of
    their powers: factor refinement by gcd and exact division, no factoring
    (Bach, Driscoll and Shallit, J. Algorithms 1993).  Each split divides
    the product of the base and the pending values by a gcd > 1, so at most
    log2 of the values' product splits happen."""
    base: list[int] = []
    for x in values:
        pending = [x]
        while pending:
            y = pending.pop()
            if y == 1:
                continue
            for k, b in enumerate(base):
                g = math.gcd(b, y)
                if g > 1:
                    del base[k]
                    pending += (b // g, g, y // g)
                    break
            else:
                base.append(y)
    return base


def _invariant_chain(counts: Mapping[int, int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the direct sum of counts[d]
    copies of C_d (every d >= 2).  Over a coprime base each C_d splits into
    the C_{b^e} with e the exponent of b in d; the j-th largest invariant
    factor is the product of b ** (j-th largest exponent of b)."""
    base = _coprime_base(counts)
    # per base element: how many summands carry each exponent
    exponents: list[dict[int, int]] = [{} for _ in base]
    for d, m in counts.items():
        for b, seen in zip(base, exponents):
            e = 0
            while d % b == 0:
                d //= b
                e += 1
            if e:
                seen[e] = seen.get(e, 0) + m
    # each base element's exponents, largest first, as (end position, exponent)
    runs = []
    for seen in exponents:
        end = 0
        steps = []
        for e in sorted(seen, reverse=True):
            end += seen[e]
            steps.append((end, e))
        runs.append(steps)
    # the factor is constant between consecutive ends of any run
    chain: list[int] = []
    start = 0
    for end in sorted({end for steps in runs for end, _ in steps}):
        d = 1
        for b, steps in zip(base, runs):
            e = next((e for stop, e in steps if stop > start), 0)
            d *= b**e
        chain += [d] * (end - start)
        start = end
    chain.reverse()
    return tuple(chain)


@record
class FgAbGroup:
    """Z^rank plus cyclic torsion with d_1 | d_2 | ... and every d_i >= 2.

    Sums and multiples need no matrix: the torsion of a direct sum is
    counted once per distinct invariant and merged over a coprime base of
    those values, so its cost grows with the number of distinct invariants
    and with the base, not with their multiplicity; ``multiple(m)`` repeats
    each invariant m times in place.  Only the final ``torsion`` tuple is
    linear in the number of summands.

    >>> str(FgAbGroup.from_invariants([0, 2, 3]))
    'Z + C6'
    >>> str(FgAbGroup(1, (2,)).direct_sum(FgAbGroup(0, (4,))))
    'Z + C2 + C4'
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InputError("rank must be non-negative")
        for d in self.torsion:
            if d < 2:
                raise InputError("torsion invariants must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise InputError("torsion invariants must form a divisibility chain")

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def from_invariants(cls, invariants: Iterable[int]) -> "FgAbGroup":
        """Build from unsorted cyclic orders (0 = Z, 1 = trivial summand)."""
        orders = [abs(int(d)) for d in invariants]
        return cls(orders.count(0), _invariant_chain(Counter(d for d in orders if d > 1)))

    @property
    def ngens(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def orders(self) -> tuple[int, ...]:
        """The orders of the canonical generators, free ones first as 0: the
        group is Z^ngens modulo the diagonal relations orders[i] * e_i."""
        return (0,) * self.rank + self.torsion

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        groups = (self,) + others
        counts = Counter(d for g in groups for d in g.torsion)
        return FgAbGroup(sum(g.rank for g in groups), _invariant_chain(counts))

    def multiple(self, copies: int) -> "FgAbGroup":
        """G^copies: each invariant of G repeated in place keeps the chain."""
        if copies < 0:
            raise InputError("copies must be non-negative")
        return FgAbGroup(
            self.rank * copies, tuple(d for d in self.torsion for _ in range(copies))
        )

    def __str__(self) -> str:
        free = ["Z" if self.rank == 1 else f"Z^{self.rank}"] if self.rank else []
        parts = free + [f"C{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"
