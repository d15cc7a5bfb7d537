"""Structured-text (JSON) encodings of every value the CLI reads or writes.

One document per object.  A preorder is {"elements": [...], "leq": [[...]]},
a map is {"source": ..., "target": ..., "map": {label: label}}, a diagram
lists vertices, arrows, and data.  Residues print as "-p/q" ("0" for zero),
tuples as arrays.  Parsing raises ParseError; semantic validation of the
decoded values raises the library's usual errors.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from .errors import InputError, ParseError
from .preorders import (
    CONTRAVARIANT,
    COVARIANT,
    DiagramArrow,
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    VerifyResult,
)

# Readers import the constructors they build, so preorder documents load
# neither factorial, strata, engine nor abelian.
if TYPE_CHECKING:
    from .abelian import FgAbGroup, GradedGroup, IntMatrix
    from .engine import (
        FactorDescriptor,
        FiltrationResult,
        GlueResult,
        GluingScenario,
        KTheoryReport,
        PsodIndex,
    )
    from .factorial import CharTuple, FactorialForm
    from .strata import Chart, ChartAtlas, Overlap, Stratification, Stratum


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer literal longer than Python reads
        raise ParseError(f"invalid JSON: {exc}") from exc


def dumps(doc: Any) -> str:
    return "".join(chunks(doc))


_BOOL_TEXT = ("false", "true")


def chunks(doc: Any, _indent: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2)``, piece by piece.

    With ``indent`` set, ``json`` encodes in pure Python, one step per value.
    Here a list of only booleans or only strings is one piece joined in C, so
    a ``leq`` row costs one step.  Keys must be strings; other scalars print
    as ``json.dumps`` prints them.
    """
    if isinstance(doc, str):
        yield _quote(doc)
    elif isinstance(doc, (dict, list, tuple)):
        if not doc:
            yield "{}" if isinstance(doc, dict) else "[]"
            return
        inner = _indent + "  "
        sep = "," + inner
        if isinstance(doc, dict):
            head = "{" + inner
            for key, value in doc.items():
                yield head + _quote(key) + ": "
                yield from chunks(value, inner)
                head = sep
            yield _indent + "}"
            return
        kinds = set(map(type, doc))
        if kinds == {bool} or kinds == {str}:
            text = _BOOL_TEXT.__getitem__ if kinds == {bool} else _quote
            yield "[" + inner + sep.join(map(text, doc)) + _indent + "]"
            return
        head = "[" + inner
        for item in doc:
            yield head
            yield from chunks(item, inner)
            head = sep
        yield _indent + "]"
    else:
        yield json.dumps(doc)


def _need(doc: Mapping, key: str, what: str) -> Any:
    if not isinstance(doc, Mapping) or key not in doc:
        raise ParseError(f"{what} document needs field {key!r}")
    return doc[key]


def _label_map(doc: Any, what: str) -> dict[str, str]:
    if not isinstance(doc, dict) or not all(isinstance(y, str) for y in doc.values()):
        raise ParseError(f"{what} must map labels to labels")
    return doc


def _strings(doc: Any) -> bool:
    return isinstance(doc, list) and all(isinstance(x, str) for x in doc)


def _each(doc: Any, read: Callable[[Any], Any], message: str) -> dict[str, Any]:
    """Read every value of a JSON object; anything but an object is a ParseError."""
    if not isinstance(doc, dict):
        raise ParseError(message)
    return {key: read(value) for key, value in doc.items()}


# -- preorders ---------------------------------------------------------------


# Row i of the dense ``leq`` matrix lists the bits of ``rows[i]`` lowest first,
# the row's binary digits reversed; bytes() of a boolean row gives 0/1 bytes.
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def preorder_to_doc(p: FinitePreorder) -> dict:
    bits = (format(r, f"0{len(p)}b")[::-1] for r in p.rows)
    return {"elements": list(p.elements), "leq": [[c == "1" for c in b] for b in bits]}


def preorder_from_doc(doc: Mapping) -> FinitePreorder:
    elements = _need(doc, "elements", "preorder")
    leq = _need(doc, "leq", "preorder")
    if not _strings(elements):
        raise ParseError("preorder elements must be strings")
    if not isinstance(leq, list) or not all(
        isinstance(row, list) and set(map(type, row)) <= {bool} for row in leq
    ):
        raise ParseError("preorder leq must be a matrix of booleans")
    n = len(elements)
    if len(leq) != n or any(len(row) != n for row in leq):
        raise InputError("relation matrix must be square over the elements")
    rows = tuple(int(bytes(row[::-1]).translate(_BIT_CHARS), 2) for row in leq)
    return FinitePreorder(tuple(elements), rows)


def map_to_doc(m: OrderReflectingMap) -> dict:
    return {
        "source": preorder_to_doc(m.source),
        "target": preorder_to_doc(m.target),
        "map": dict(m.mapping),
    }


def map_from_doc(doc: Mapping) -> OrderReflectingMap:
    return OrderReflectingMap(
        preorder_from_doc(_need(doc, "source", "map")),
        preorder_from_doc(_need(doc, "target", "map")),
        _label_map(_need(doc, "map", "map"), "map"),
    )


def diagram_to_doc(d: PreorderDiagram) -> dict:
    return {
        "vertices": list(d.vertices),
        "preorders": {v: preorder_to_doc(d.preorders[v]) for v in d.vertices},
        "arrows": [
            {
                "name": a.name,
                "src": a.src,
                "tgt": a.tgt,
                "orientation": a.orientation,
                "map": dict(a.map.mapping),
            }
            for a in d.arrows
        ],
    }


def diagram_from_doc(doc: Mapping) -> PreorderDiagram:
    vertices = _need(doc, "vertices", "diagram")
    preorders = _need(doc, "preorders", "diagram")
    arrow_docs = doc.get("arrows", [])
    if not _strings(vertices):
        raise ParseError("diagram vertices must be a list of strings")
    message = "diagram preorders must be an object keyed by vertex"
    pre = _each(preorders, preorder_from_doc, message)
    if not isinstance(arrow_docs, list):
        raise ParseError("diagram arrows must be a list")
    arrows = []
    for a in arrow_docs:
        name = _need(a, "name", "arrow")
        if not isinstance(name, str):
            raise ParseError("arrow names must be strings")
        src, tgt = _need(a, "src", "arrow"), _need(a, "tgt", "arrow")
        orientation = a.get("orientation", COVARIANT)
        if orientation not in (COVARIANT, CONTRAVARIANT):
            raise ParseError(f"unknown orientation {orientation!r}")
        s, t = (src, tgt) if orientation == COVARIANT else (tgt, src)
        if not all(isinstance(x, str) and x in pre for x in (s, t)):
            raise ParseError(f"arrow {name!r} mentions unknown vertices")
        arrows.append(
            DiagramArrow(
                name,
                src,
                tgt,
                OrderReflectingMap(
                    pre[s], pre[t], _label_map(_need(a, "map", "arrow"), f"arrow {name!r} map")
                ),
                orientation,
            )
        )
    return PreorderDiagram(tuple(vertices), pre, tuple(arrows))


def verify_request_from_doc(
    doc: Mapping,
) -> tuple[PreorderDiagram, FinitePreorder, dict[str, dict[str, str]]]:
    """Read a ``{"diagram", "candidate", "cocones"}`` document."""
    diagram = diagram_from_doc(_need(doc, "diagram", "verify"))
    candidate = preorder_from_doc(_need(doc, "candidate", "verify"))
    cocones = _need(doc, "cocones", "verify")
    if not isinstance(cocones, dict):
        raise ParseError("verify cocones must be an object keyed by vertex")
    for v in diagram.vertices:
        if v not in cocones:
            raise ParseError(f"verify cocones have no entry for vertex {v!r}")
        _label_map(cocones[v], f"cocone at vertex {v!r}")
    return diagram, candidate, cocones


def verify_to_doc(v: VerifyResult) -> dict:
    out: dict[str, Any] = {"ok": v.ok}
    if not v.ok:
        out["reason"] = v.reason
        out["witness"] = v.witness
    return out


# -- characters --------------------------------------------------------------


def char_tuple_to_doc(c: CharTuple) -> list[str]:
    return [str(x) for x in c.components]


def char_tuple_from_doc(doc: Any) -> CharTuple:
    from .factorial import CharTuple, Residue

    if isinstance(doc, str):
        return CharTuple.parse(doc)
    if _strings(doc):
        return CharTuple(tuple(Residue.parse(x) for x in doc))
    raise ParseError("character tuple must be a string or an array of residues")


def factorial_form_to_doc(f: FactorialForm) -> dict:
    return {"level": f.level, "numerators": list(f.numerators)}


# -- stratifications ---------------------------------------------------------


def stratification_to_doc(s: Stratification) -> dict:
    return {
        "strata": [
            {"id": t.id, "codim": t.codim, "norm_components": list(t.norm_components)}
            for t in s.strata
        ],
        "closure": [list(pair) for pair in s.closure],
    }


def _stratum_from_doc(doc: Mapping) -> Stratum:
    from .strata import Stratum

    sid = _need(doc, "id", "stratum")
    codim = _need(doc, "codim", "stratum")
    comps = _need(doc, "norm_components", "stratum")
    if not isinstance(sid, str):
        raise ParseError("stratum id must be a string")
    if type(codim) is not int:
        raise ParseError(f"stratum {sid!r}: codim must be an integer")
    if not _strings(comps):
        raise ParseError(f"stratum {sid!r}: norm_components must be a list of strings")
    return Stratum(sid, codim, tuple(comps))


def stratification_from_doc(doc: Mapping) -> Stratification:
    from .strata import Stratification

    strata = _need(doc, "strata", "stratification")
    closure = doc.get("closure", [])
    if not isinstance(strata, list):
        raise ParseError("stratification strata must be a list")
    if not isinstance(closure, list) or not all(
        _strings(pair) and len(pair) == 2 for pair in closure
    ):
        raise ParseError("stratification closure must be a list of pairs of stratum ids")
    return Stratification(
        tuple(_stratum_from_doc(t) for t in strata),
        tuple((a, b) for a, b in closure),
    )


def _chart_from_doc(doc: Mapping) -> Chart:
    from .strata import Chart

    cid = _need(doc, "id", "chart")
    branches = _need(doc, "branches", "chart")
    if not isinstance(cid, str):
        raise ParseError("chart id must be a string")
    if not _strings(branches):
        raise ParseError(f"chart {cid!r}: branches must be a list of strings")
    return Chart(cid, tuple(branches))


def _overlap_from_doc(doc: Mapping) -> Overlap:
    from .strata import Overlap

    charts = _need(doc, "charts", "overlap")
    if not _strings(charts) or len(charts) != 2:
        raise ParseError("overlap charts must be a list of two chart ids")
    mapping = _label_map(_need(doc, "map", "overlap"), "overlap map")
    return Overlap(charts[0], charts[1], mapping)


def atlas_from_doc(doc: Mapping) -> ChartAtlas:
    from .strata import ChartAtlas

    charts = _need(doc, "charts", "atlas")
    overlaps = doc.get("overlaps", [])
    if not isinstance(charts, list) or not isinstance(overlaps, list):
        raise ParseError("atlas charts and overlaps must be lists")
    return ChartAtlas(
        tuple(_chart_from_doc(c) for c in charts),
        tuple(_overlap_from_doc(o) for o in overlaps),
    )


# -- groups ------------------------------------------------------------------


def group_to_doc(g: FgAbGroup) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


def group_from_doc(doc: Mapping) -> FgAbGroup:
    from .abelian import FgAbGroup

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


def matrix_from_doc(doc: Any, rows: int | None = None, cols: int | None = None) -> IntMatrix:
    from .abelian import IntMatrix

    if not isinstance(doc, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in doc
    ):
        raise ParseError("matrix must be a nested integer array")
    r = len(doc)
    c = len(doc[0]) if doc else (cols or 0)
    return IntMatrix(r if rows is None else rows, c, tuple(tuple(row) for row in doc))


def graded_group_to_doc(g: GradedGroup) -> dict:
    return {
        "index": preorder_to_doc(g.index),
        "pieces": {x: group_to_doc(g.pieces[x]) for x in g.index.elements},
    }


def graded_group_from_doc(doc: Mapping) -> GradedGroup:
    from .abelian import GradedGroup

    index = preorder_from_doc(_need(doc, "index", "graded group"))
    pieces = _need(doc, "pieces", "graded group")
    message = "graded group pieces must be an object keyed by element"
    return GradedGroup(index, _each(pieces, group_from_doc, message))


# -- psod indices ------------------------------------------------------------


def factor_to_doc(f: FactorDescriptor) -> dict:
    out: dict[str, Any] = {
        "stratum": f.stratum_id,
        "character": char_tuple_to_doc(f.character),
        "target": f.target_label,
    }
    out["kdata"] = group_to_doc(f.kdata) if f.kdata is not None else None
    return out


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


def psod_to_doc(p: PsodIndex) -> dict:
    return {
        "index": preorder_to_doc(p.index),
        "factors": {x: factor_to_doc(p.factors[x]) for x in p.index.elements},
        "annotations": dict(p.annotations),
    }


def filtration_request_from_doc(doc: Mapping) -> tuple[PsodIndex, dict[str, tuple[int, ...]]]:
    """Read a ``{"psod", "object"}`` document, the object mapping grades to integer lists."""
    psod = psod_from_doc(_need(doc, "psod", "filtrate"))
    obj = _need(doc, "object", "filtrate")
    if not isinstance(obj, dict) or not all(
        isinstance(v, list) and all(type(c) is int for c in v) for v in obj.values()
    ):
        raise ParseError("filtrate object must map grades to lists of integers")
    return psod, {x: tuple(v) for x, v in obj.items()}


def psod_from_doc(doc: Mapping) -> PsodIndex:
    from .engine import PsodIndex

    index = preorder_from_doc(_need(doc, "index", "psod"))
    factors = _each(
        _need(doc, "factors", "psod"), factor_from_doc,
        "psod factors must be an object keyed by element",
    )
    return PsodIndex(index, factors, _label_map(doc.get("annotations", {}), "psod annotations"))


def scenario_from_doc(doc: Mapping) -> GluingScenario:
    from .abelian import GradedHom
    from .engine import GluingScenario

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
            blocks[(x, y)] = matrix_from_doc(
                _need(entry, "matrix", "graded hom block"),
                rows=tgt_g.pieces[y].ngens,
                cols=src_g.pieces[x].ngens,
            )
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
