"""Gluing decomposition indices over a diagram.

``glue`` grades the glued index by the colimit of the index diagram, aggregates
the factor descriptors of each fiber, and reports whether the directedness
hypothesis behind the gluing theorem actually holds.  With graded data it
also takes the graded limit of the groups (``abelian``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .colimits import colimit
from .config import DEFAULT_CAPS, Caps
from .engine import FactorDescriptor, PsodIndex
from .errors import InputError
from .preorders import DirectednessReport, PreorderDiagram, directedness
from .records import record

if TYPE_CHECKING:
    from .abelian import GradedGroup, Rows


@record
class GluingScenario:
    """A diagram of indices with their factor data and optional graded data.

    ``diagram`` holds the index preorders and the per-arrow order-reflecting
    maps; ``psods`` the factor descriptors per vertex; ``graded`` optional
    graded groups per vertex; ``graded_homs`` optional blocks per arrow,
    ``(x, y)`` to integer rows (``graded_limit`` checks them, and gives an
    arrow without an entry identity blocks).
    """

    diagram: PreorderDiagram
    psods: Mapping[str, PsodIndex]
    graded: Mapping[str, GradedGroup] = {}
    graded_homs: Mapping[str, Mapping[tuple[str, str], Rows]] = {}

    def __post_init__(self) -> None:
        object.__setattr__(self, "psods", dict(self.psods))
        object.__setattr__(self, "graded", dict(self.graded))
        object.__setattr__(self, "graded_homs", dict(self.graded_homs))
        if set(self.psods) != set(self.diagram.vertices):
            raise InputError("exactly one factor table per vertex required")
        for v, psod in self.psods.items():
            if psod.index != self.diagram.preorders[v]:
                raise InputError(f"vertex {v!r}: factor table index differs from the diagram")


@record
class GlueResult:
    psod: PsodIndex
    verdict: DirectednessReport
    kind: str  # "psod" when the directedness hypothesis holds, else "pre-psod only"
    fibers: Mapping[str, tuple[tuple[str, str], ...]]  # glued element -> (vertex, element)
    graded: Optional[GradedGroup] = None


def _aggregate_descriptor(
    constituents: Sequence[FactorDescriptor],
) -> FactorDescriptor:
    first = constituents[0]
    if all(c == first for c in constituents[1:]):
        return first
    strata = sorted({c.stratum_id for c in constituents})
    targets = sorted({c.target_label for c in constituents})
    return FactorDescriptor(
        "|".join(strata),
        first.character,
        "lim[" + " | ".join(targets) + "]",
    )


def glue(scenario: GluingScenario, caps: Caps = DEFAULT_CAPS) -> GlueResult:
    """Glue the per-vertex indices over the diagram.

    The result is graded by the colimit of the index diagram; the factor at a
    glued element aggregates the fiber of descriptors above it.  The
    directedness of the colimit (the hypothesis under which gluing yields an
    actual decomposition rather than a semiorthogonal family) is reported as
    a verdict with a witness, never as a failure.  With graded data the piece
    at each element is the limit of its fiber sums.
    """
    from .abelian import graded_limit

    col = colimit(scenario.diagram)
    verdict = directedness(col.preorder)
    fibers: dict[str, list[tuple[str, str]]] = {w: [] for w in col.preorder.elements}
    for v in scenario.diagram.vertices:
        for x in scenario.diagram.preorders[v].elements:
            fibers[col.cocones[v][x]].append((v, x))
    factors = {
        w: _aggregate_descriptor([scenario.psods[v].factors[x] for v, x in up])
        for w, up in fibers.items()
    }
    notes = {"kind": "glued", "directed": "true" if verdict.ok else "false"}
    psod = PsodIndex(col.preorder, factors, notes)
    graded = None
    if scenario.graded:
        graded = graded_limit(scenario.diagram, scenario.graded, scenario.graded_homs, col)
    return GlueResult(
        psod,
        verdict,
        "psod" if verdict.ok else "pre-psod only",
        {w: tuple(up) for w, up in fibers.items()},
        graded,
    )

