"""Combinatorial models of a pair (X, D) with D normal crossing.

A stratification records closed strata with their codimensions, the closure
order between them, and labels for the connected components of each stratum's
normalization.  It can be supplied directly or reconstructed from a chart
atlas (``atlas``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import InputError, PreconditionError
from .preorders import _bits, _closure_masks
from .records import record


@record
class Stratum:
    """A closed stratum: its codimension and the labels of the connected
    components of its normalization."""

    id: str
    codim: int
    norm_components: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.codim < 0:
            raise InputError("codimension must be non-negative")
        if not self.norm_components:
            raise InputError(f"stratum {self.id!r} needs at least one normalization component")
        if len(set(self.norm_components)) != len(self.norm_components):
            raise InputError(f"stratum {self.id!r} has duplicate component labels")


@record
class Stratification:
    """Strata with a closure relation; ``closure`` pairs (S, S') mean S lies
    in the closure of S'.  The stored pairs generate; queries go through the
    reflexive-transitive closure."""

    strata: tuple[Stratum, ...]
    closure: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        ids = [s.id for s in self.strata]
        if len(set(ids)) != len(ids):
            raise InputError("stratum ids must be distinct")
        known = set(ids)
        for a, b in self.closure:
            if a not in known or b not in known:
                raise InputError(f"closure pair ({a!r}, {b!r}) mentions unknown strata")

    @cached_property
    def by_id(self) -> dict[str, Stratum]:
        return {s.id: s for s in self.strata}

    def ambient(self) -> Stratum:
        tops = [s for s in self.strata if s.codim == 0]
        if len(tops) != 1:
            raise PreconditionError("stratification must have exactly one codim-0 stratum")
        return tops[0]

    def all_components(self) -> tuple[str, ...]:
        return tuple(c for s in self.strata for c in s.norm_components)


def validate(strat: Stratification) -> list[str]:
    """Check every stratification invariant; violations are returned, not raised."""
    out: list[str] = []
    tops = [s for s in strat.strata if s.codim == 0]
    if len(tops) != 1:
        out.append(f"expected exactly one codim-0 stratum, found {len(tops)}")
    comps = [c for s in strat.strata for c in s.norm_components]
    if len(set(comps)) != len(comps):
        out.append("normalization component labels must be globally distinct")
    # bit j of row i: stratum i lies in the closure of stratum j; rows and
    # bits in stratum order, so violations are reported in a fixed order
    strata = strat.strata
    rows = _closure_masks([s.id for s in strata], strat.closure)
    for i, s in enumerate(strata):
        for j in _bits(rows[i] & ~(1 << i)):
            t = strata[j]
            if not s.codim > t.codim:
                out.append(
                    f"closure violates codimension monotonicity: "
                    f"{s.id} (codim {s.codim}) inside closure of {t.id} (codim {t.codim})"
                )
    for i, s in enumerate(strata):
        for j in _bits(rows[i] & ~(1 << i)):
            if rows[j] >> i & 1:
                out.append(f"closure is not antisymmetric on {s.id!r}, {strata[j].id!r}")
    if len(tops) == 1:
        top = 1 << strata.index(tops[0])
        for s, row in zip(strata, rows):
            if not row & top:
                out.append(f"codim-0 stratum must close over {s.id!r}")
    return out


def require_valid(strat: Stratification) -> None:
    problems = validate(strat)
    if problems:
        raise PreconditionError("invalid stratification: " + "; ".join(problems))


def deepest_first(strata: Iterable[tuple[str, int]]) -> list[tuple[str, int]]:
    """(stratum id, codim) pairs by decreasing codimension.  The sort is
    stable, so strata of equal codimension keep their input order."""
    return sorted(strata, key=lambda sk: -sk[1])


def skeleton(strat: Stratification, k: int) -> tuple[Stratum, ...]:
    """The strata of codimension exactly k, in input order.  The normalized
    skeleton is the disjoint union of their components."""
    if k < 0:
        raise InputError("codimension must be non-negative")
    return tuple(s for s in strat.strata if s.codim == k)
