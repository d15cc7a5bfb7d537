"""Gluing decomposition indices over a diagram.

``glue`` grades the glued index by the colimit of the index diagram, aggregates
the factor descriptors of each fiber, and reports whether the directedness
hypothesis behind the gluing theorem actually holds.  With graded data it
also takes the graded limit of the groups (``abelian``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .colimits import colimit
from .engine import FactorDescriptor, PsodIndex
from .errors import InputError
from .preorders import DirectednessReport, PreorderDiagram, directedness
from .records import record

if TYPE_CHECKING:
    from .abelian import GradedGroup, Rows


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


def glue(
    diagram: PreorderDiagram,
    psods: Mapping[str, PsodIndex],
    graded: Mapping[str, GradedGroup] = {},
    homs: Mapping[str, Mapping[tuple[str, str], Rows]] = {},
) -> GlueResult:
    """Glue the per-vertex indices ``psods`` over ``diagram``.

    The result is graded by the colimit of the index diagram; the factor at a
    glued element aggregates the fiber of descriptors above it.  The
    directedness of the colimit (the hypothesis under which gluing yields an
    actual decomposition rather than a semiorthogonal family) is reported as
    a verdict with a witness, never as a failure.  Given graded groups or
    ``homs`` (blocks by arrow name), ``graded_limit`` checks them, and the
    piece at each glued element is the limit of its fiber sums.
    """
    if set(psods) != set(diagram.vertices):
        raise InputError("exactly one factor table per vertex required")
    for v, psod in psods.items():
        if psod.index != diagram.preorders[v]:
            raise InputError(f"vertex {v!r}: factor table index differs from the diagram")
    col = colimit(diagram)
    verdict = directedness(col.preorder)
    fibers: dict[str, list[tuple[str, str]]] = {w: [] for w in col.preorder.elements}
    for v in diagram.vertices:
        for x in diagram.preorders[v].elements:
            fibers[col.cocones[v][x]].append((v, x))
    factors = {
        w: _aggregate_descriptor([psods[v].factors[x] for v, x in up])
        for w, up in fibers.items()
    }
    notes = {"kind": "glued", "directed": "true" if verdict.ok else "false"}
    psod = PsodIndex(col.preorder, factors, notes)
    limit = None
    if graded or homs:
        from .abelian import graded_limit

        limit = graded_limit(diagram, graded, homs, col)
    return GlueResult(
        psod,
        verdict,
        "psod" if verdict.ok else "pre-psod only",
        {w: tuple(up) for w, up in fibers.items()},
        limit,
    )

