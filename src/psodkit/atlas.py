"""Chart atlases of a pair (X, D) with D normal crossing.

Simple-normal-crossing charts whose branches are glued by partial
bijections, including self-identifications (monodromy), which is exactly how
a non-simple divisor differs from a simple one.  ``strata_from_atlas``
reconstructs the stratification.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError, InputError
from .preorders import _classes
from .records import record
from .strata import Stratification, Stratum


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
    subset size); a chart with more branches than ``caps.nerve_depth`` raises
    ``CapExceededError``, and so do more local strata than ``caps.carrier``,
    counted before any is listed.  An overlap identifies two local strata
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

    for c in atlas.charts:
        if len(c.branches) > caps.nerve_depth:
            raise CapExceededError(
                f"chart {c.id!r} has {len(c.branches)} branches, nerve_depth cap is "
                f"{caps.nerve_depth}"
            )
    caps.check_carrier(sum((1 << len(c.branches)) - 1 for c in atlas.charts), "local strata")
    local = [
        (c.id, frozenset(sub))
        for c in atlas.charts
        for k in range(1, len(c.branches) + 1)
        for sub in itertools.combinations(c.branches, k)
    ]

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
