"""Combinatorial models of a pair (X, D) with D normal crossing.

A stratification records closed strata with their codimensions, the closure
order between them, and labels for the connected components of each stratum's
normalization.  It can be supplied directly or reconstructed from a chart
atlas: simple-normal-crossing charts whose branches are glued by partial
bijections, including self-identifications (monodromy), which is exactly how
a non-simple divisor differs from a simple one.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Mapping

from .config import DEFAULT_CAPS, Caps
from .errors import InputError, PreconditionError
from .preorders import _classes, _closure_masks
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

    @cached_property
    def _closure_rows(self) -> dict[str, tuple[str, ...]]:
        # tuples in stratum order, so validation reports in a fixed order
        ids = [s.id for s in self.strata]
        return {
            i: tuple(t for j, t in enumerate(ids) if mask >> j & 1)
            for i, mask in zip(ids, _closure_masks(ids, self.closure))
        }

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
    rows = strat._closure_rows
    for s in strat.strata:
        for t_id in rows[s.id]:
            t = strat.by_id[t_id]
            if t_id != s.id and not s.codim > t.codim:
                out.append(
                    f"closure violates codimension monotonicity: "
                    f"{s.id} (codim {s.codim}) inside closure of {t.id} (codim {t.codim})"
                )
    for s in strat.strata:
        for t_id in rows[s.id]:
            if t_id != s.id and s.id in rows[t_id]:
                out.append(f"closure is not antisymmetric on {s.id!r}, {t_id!r}")
    if len(tops) == 1:
        top = tops[0].id
        for s in strat.strata:
            if top not in rows[s.id]:
                out.append(f"codim-0 stratum must close over {s.id!r}")
    return out


def require_valid(strat: Stratification) -> None:
    problems = validate(strat)
    if problems:
        raise PreconditionError("invalid stratification: " + "; ".join(problems))


def skeleton(strat: Stratification, k: int) -> tuple[Stratum, ...]:
    """The strata of codimension exactly k, in input order.  The normalized
    skeleton is the disjoint union of their components."""
    if k < 0:
        raise InputError("codimension must be non-negative")
    return tuple(s for s in strat.strata if s.codim == k)


# ---------------------------------------------------------------------------
# chart atlases


@record
class Chart(object):
    id: str
    branches: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.branches)) != len(self.branches):
            raise InputError(f"chart {self.id!r} has duplicate branch labels")


@record
class Overlap:
    """A partial bijection between the branch sets of two charts (the charts
    may coincide: that encodes monodromy identifying branches of one chart)."""

    chart_a: str
    chart_b: str
    mapping: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise InputError("overlap identification must be injective")


@record
class ChartAtlas:
    charts: tuple[Chart, ...]
    overlaps: tuple[Overlap, ...] = ()

    def __post_init__(self) -> None:
        ids = [c.id for c in self.charts]
        if len(set(ids)) != len(ids):
            raise InputError("chart ids must be distinct")
        by_id = {c.id: c for c in self.charts}
        for o in self.overlaps:
            if o.chart_a not in by_id or o.chart_b not in by_id:
                raise InputError("overlap mentions unknown chart")
            for a, b in o.mapping.items():
                if a not in by_id[o.chart_a].branches:
                    raise InputError(f"overlap maps unknown branch {a!r} of {o.chart_a!r}")
                if b not in by_id[o.chart_b].branches:
                    raise InputError(f"overlap targets unknown branch {b!r} of {o.chart_b!r}")


def strata_from_atlas(atlas: ChartAtlas, caps: Caps = DEFAULT_CAPS) -> Stratification:
    """Reconstruct the stratification from simple charts and identifications.

    Local strata are the nonempty branch subsets of each chart (codimension =
    subset size, capped by ``caps.nerve_depth``); an overlap identifies two local strata
    when it maps the whole subset.  Orbits of local strata are the global
    strata; each carries a single normalization component, since the
    identifications glue the local sheets into one connected cover.
    """
    nodes = [(c.id, b) for c in atlas.charts for b in c.branches]
    branch_classes = _classes(
        nodes,
        (((o.chart_a, a), (o.chart_b, b)) for o in atlas.overlaps for a, b in o.mapping.items()),
    )
    branch_class_name: dict[tuple[str, str], str] = {}
    for i, cls in enumerate(branch_classes):
        for node in cls:
            branch_class_name[node] = f"B{i + 1}"

    local: list[tuple[str, frozenset]] = []
    for c in atlas.charts:
        max_k = min(len(c.branches), caps.nerve_depth)
        for k in range(1, max_k + 1):
            for sub in itertools.combinations(c.branches, k):
                local.append((c.id, frozenset(sub)))
    caps.check_carrier(len(local), "local strata")

    known = set(local)
    same: list[tuple] = []
    for o in atlas.overlaps:
        dom = set(o.mapping)
        for cid, sub in local:
            if cid == o.chart_a and sub <= dom:
                image = frozenset(o.mapping[b] for b in sub)
                if len(image) == len(sub) and (o.chart_b, image) in known:
                    same.append(((cid, sub), (o.chart_b, image)))

    orbits = _classes(local, same)
    # name strata after the global branch classes they intersect (a multiset:
    # a self-crossing branch meets itself)
    names: list[str] = []
    seen: dict[str, int] = {}
    for orbit in orbits:
        cid, sub = orbit[0]
        classes = sorted(branch_class_name[(cid, b)] for b in sub)
        base = "&".join(classes)
        seen[base] = seen.get(base, 0) + 1
        names.append(base if seen[base] == 1 else f"{base}#{seen[base]}")

    orbit_of: dict[tuple[str, frozenset], int] = {
        loc: i for i, orbit in enumerate(orbits) for loc in orbit
    }
    ambient_id = "X"
    while ambient_id in names:
        ambient_id = ambient_id + "'"
    strata = [Stratum(ambient_id, 0, (ambient_id,))]
    for i, orbit in enumerate(orbits):
        codim = len(orbit[0][1])
        strata.append(Stratum(names[i], codim, (f"{names[i]}~",)))

    closure: set[tuple[str, str]] = set()
    for i, orbit in enumerate(orbits):
        closure.add((names[i], ambient_id))
        for cid, sub in orbit:
            for other, osub in local:
                if other == cid and osub < sub:
                    closure.add((names[i], names[orbit_of[(other, osub)]]))
    return Stratification(tuple(strata), tuple(sorted(closure)))


def simple_crossing(k: int) -> Stratification:
    """The k-fold coordinate crossing: one stratum per nonempty subset of the
    k branches, plus the ambient stratum X."""
    if k < 0:
        raise InputError("k must be non-negative")
    branches = [f"H{i + 1}" for i in range(k)]
    strata = [Stratum("X", 0, ("X",))]
    closure: list[tuple[str, str]] = []
    names: dict[frozenset, str] = {}
    for size in range(1, k + 1):
        for sub in itertools.combinations(branches, size):
            name = "&".join(sub)
            names[frozenset(sub)] = name
            strata.append(Stratum(name, size, (f"{name}~",)))
            closure.append((name, "X"))
    for sub, name in names.items():
        for other, oname in names.items():
            if other < sub:
                closure.append((name, oname))
    return Stratification(tuple(strata), tuple(closure))


def nodal_cubic() -> Stratification:
    """The plane X with an irreducible nodal curve D: three strata in a
    chain down to the node o, the divisor's normalization a single component."""
    return Stratification(
        (Stratum("X", 0, ("X",)), Stratum("D", 1, ("D~",)), Stratum("o", 2, ("o",))),
        (("o", "D"), ("D", "X")),
    )
