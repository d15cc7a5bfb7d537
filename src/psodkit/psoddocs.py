"""Documents of ``psod glue``, ``psod filtrate`` and ``psod ktheory``.

Their requests (scenarios, filtration requests, K-data), the psod indices,
characters, groups and graded groups those read back, and their result
documents.  The writer and the shared helpers are in ``documents``, the
preorder and diagram readers in ``preorderdocs``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from .documents import (
    _each, _label_map, _need, _strings, group_to_doc, preorder_to_doc, psod_to_doc,
)
from .errors import ParseError

# Readers import the constructors and the readers they use, as in ``documents``,
# so ``psod ktheory`` loads no preorder reader.
if TYPE_CHECKING:
    from .abelian import GradedGroup
    from .engine import FactorDescriptor, FiltrationResult, PsodIndex
    from .gluing import GluingScenario, GlueResult
    from .groups import FgAbGroup
    from .kreport import KTheoryReport
    from .residues import CharTuple


# -- characters and groups ---------------------------------------------------


def char_tuple_from_doc(doc: Any) -> CharTuple:
    from .residues import CharTuple, Residue

    if isinstance(doc, str):
        return CharTuple.parse(doc)
    if _strings(doc):
        return CharTuple(tuple(Residue.parse(x) for x in doc))
    raise ParseError("character tuple must be a string or an array of residues")


def group_from_doc(doc: Mapping) -> FgAbGroup:
    from .groups import FgAbGroup

    rank = _need(doc, "rank", "group")
    torsion = doc.get("torsion", [])
    if type(rank) is not int:
        raise ParseError("group rank must be an integer")
    if not isinstance(torsion, list) or not all(type(t) is int for t in torsion):
        raise ParseError("group torsion must be a list of integers")
    return FgAbGroup(rank, tuple(torsion))


def kdata_from_doc(doc: Any) -> dict[str, FgAbGroup]:
    """Read a ``{component: group}`` document."""
    return _each(doc, group_from_doc, "kdata must be an object keyed by component")


def matrix_from_doc(doc: Any) -> list[list[int]]:
    """A list of integer rows; ``GradedHom`` checks a block's shape."""
    if not isinstance(doc, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in doc
    ):
        raise ParseError("matrix must be a nested integer array")
    return doc


def graded_group_to_doc(g: GradedGroup) -> dict:
    return {
        "index": preorder_to_doc(g.index),
        "pieces": {x: group_to_doc(g.pieces[x]) for x in g.index.elements},
    }


def graded_group_from_doc(doc: Mapping) -> GradedGroup:
    from .abelian import GradedGroup
    from .preorderdocs import preorder_from_doc

    index = preorder_from_doc(_need(doc, "index", "graded group"))
    pieces = _need(doc, "pieces", "graded group")
    message = "graded group pieces must be an object keyed by element"
    return GradedGroup(index, _each(pieces, group_from_doc, message))


# -- psod indices and requests -----------------------------------------------


def factor_from_doc(doc: Mapping) -> FactorDescriptor:
    from .engine import FactorDescriptor

    stratum = _need(doc, "stratum", "factor")
    character = char_tuple_from_doc(_need(doc, "character", "factor"))
    target = _need(doc, "target", "factor")
    if not isinstance(stratum, str):
        raise ParseError("factor stratum must be a string")
    if not isinstance(target, str):
        raise ParseError("factor target must be a string")
    kdata = doc.get("kdata")
    return FactorDescriptor(
        stratum, character, target, group_from_doc(kdata) if kdata is not None else None
    )


def psod_from_doc(doc: Mapping) -> PsodIndex:
    from .engine import PsodIndex
    from .preorderdocs import preorder_from_doc

    index = preorder_from_doc(_need(doc, "index", "psod"))
    factors = _each(
        _need(doc, "factors", "psod"), factor_from_doc,
        "psod factors must be an object keyed by element",
    )
    return PsodIndex(index, factors, _label_map(doc.get("annotations", {}), "psod annotations"))


def filtration_request_from_doc(doc: Mapping) -> tuple[PsodIndex, dict[str, tuple[int, ...]]]:
    """Read a ``{"psod", "object"}`` document, the object mapping grades to integer lists."""
    psod = psod_from_doc(_need(doc, "psod", "filtrate"))
    obj = _need(doc, "object", "filtrate")
    if not isinstance(obj, dict) or not all(
        isinstance(v, list) and all(type(c) is int for c in v) for v in obj.values()
    ):
        raise ParseError("filtrate object must map grades to lists of integers")
    return psod, {x: tuple(v) for x, v in obj.items()}


def scenario_from_doc(doc: Mapping) -> GluingScenario:
    from .abelian import GradedHom
    from .gluing import GluingScenario
    from .preorderdocs import diagram_from_doc
    from .preorders import OrderReflectingMap

    diagram = diagram_from_doc(_need(doc, "diagram", "scenario"))
    message = "scenario psods, graded and graded_homs must be objects"
    psods = _each(_need(doc, "psods", "scenario"), psod_from_doc, message)
    graded = _each(doc.get("graded", {}), graded_group_from_doc, message)
    hom_docs = doc.get("graded_homs", {})
    if not isinstance(hom_docs, dict):
        raise ParseError(message)
    homs = {}
    if hom_docs and not graded:
        raise ParseError("graded_homs given without graded vertex data")
    for name, h in hom_docs.items():
        arrow = next((a for a in diagram.arrows if a.name == name), None)
        if arrow is None:
            raise ParseError(f"graded hom for unknown arrow {name!r}")
        src_g, tgt_g = graded.get(arrow.src), graded.get(arrow.tgt)
        if src_g is None or tgt_g is None:
            raise ParseError(f"graded hom {name!r} needs graded data at both ends")
        block_docs = _need(h, "blocks", "graded hom")
        if not isinstance(block_docs, list):
            raise ParseError(f"graded hom {name!r}: blocks must be a list")
        blocks = {}
        for entry in block_docs:
            x = _need(entry, "source_grade", "graded hom block")
            y = _need(entry, "target_grade", "graded hom block")
            if x not in src_g.index.elements or y not in tgt_g.index.elements:
                raise ParseError(f"graded hom {name!r}: block grades must be index elements")
            if (x, y) in blocks:
                raise ParseError(f"graded hom {name!r}: two blocks from {x!r} to {y!r}")
            blocks[(x, y)] = matrix_from_doc(_need(entry, "matrix", "graded hom block"))
        reindex = OrderReflectingMap(
            tgt_g.index,
            src_g.index,
            _label_map(_need(h, "reindex", "graded hom"), f"graded hom {name!r} reindex"),
        )
        homs[name] = GradedHom(src_g, tgt_g, reindex, blocks)
    return GluingScenario(diagram, psods, graded, homs)


# -- result documents --------------------------------------------------------


def glue_result_to_doc(res: GlueResult) -> dict:
    out: dict[str, Any] = {
        "kind": res.kind,
        "directed": res.verdict.ok,
        "psod": psod_to_doc(res.psod),
        "fibers": {w: [list(p) for p in up] for w, up in res.fibers.items()},
    }
    if not res.verdict.ok:
        out["witness"] = res.verdict.witness()
    if res.graded is not None:
        out["graded"] = graded_group_to_doc(res.graded.graded)
        out["ungraded_total"] = group_to_doc(res.graded.ungraded)
    return out


def filtration_to_doc(res: FiltrationResult) -> dict:
    return {
        "steps": [
            {
                "grade": s.grade,
                "component": list(s.component),
                "residual_support": list(s.residual_support),
            }
            for s in res.steps
        ]
    }


def ktheory_to_doc(rep: KTheoryReport) -> dict:
    mode: dict[str, Any] = {"kind": rep.mode.kind}
    for key in ("r", "level", "p"):
        val = getattr(rep.mode, key)
        if val is not None:
            mode[key] = val
    return {
        "mode": mode,
        "ambient": group_to_doc(rep.ambient),
        "rows": [
            {
                "stratum": r.stratum_id,
                "codim": r.codim,
                "summand": group_to_doc(r.summand),
                "multiplicity": r.multiplicity,
                "symbolic_multiplicity": r.symbolic_multiplicity,
                "contribution": group_to_doc(r.contribution),
            }
            for r in rep.rows
        ],
        "total": group_to_doc(rep.total),
        "truncated": rep.truncated,
    }
