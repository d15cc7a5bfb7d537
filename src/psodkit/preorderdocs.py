"""Documents of the ``preorder`` commands: the preorder, span and diagram
readers, and the request and result of ``preorder verify``.

A preorder's dense ``leq`` matrix is read into row bitmasks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from .documents import _each, _label_map, _need, _strings
from .errors import InputError, ParseError

# Readers import the constructors they build, as in ``documents``.
if TYPE_CHECKING:
    from .preorders import FinitePreorder, PreorderDiagram
    from .verify import VerifyResult


# Row i of the dense ``leq`` matrix lists the bits of ``rows[i]`` lowest first,
# the row's binary digits reversed; bytes() of a boolean row gives 0/1 bytes.
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def preorder_from_doc(doc: Mapping) -> FinitePreorder:
    from .preorders import FinitePreorder

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


def span_from_doc(
    doc: Any,
) -> tuple[FinitePreorder, FinitePreorder, FinitePreorder, dict[str, str], dict[str, str]]:
    """Read a ``{"left", "right"}`` span document, each leg a ``{"source",
    "target", "map"}`` document, as the arguments of ``pushout``, which checks
    the legs; the two source fields must be one preorder, the apex."""
    if not isinstance(doc, dict) or "left" not in doc or "right" not in doc:
        raise ParseError("pushout document needs 'left' and 'right' maps")
    (apex, p1, left), (other, p2, right) = (
        (
            preorder_from_doc(_need(leg, "source", "map")),
            preorder_from_doc(_need(leg, "target", "map")),
            _label_map(_need(leg, "map", "map"), "map"),
        )
        for leg in (doc["left"], doc["right"])
    )
    if apex != other:
        raise InputError("the two legs must share the same source preorder")
    return apex, p1, p2, left, right


def diagram_from_doc(doc: Mapping) -> PreorderDiagram:
    from .preorders import CONTRAVARIANT, COVARIANT, DiagramArrow, PreorderDiagram

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
        if not all(isinstance(x, str) and x in pre for x in (src, tgt)):
            raise ParseError(f"arrow {name!r} mentions unknown vertices")
        mapping = _label_map(_need(a, "map", "arrow"), f"arrow {name!r} map")
        arrows.append(DiagramArrow(name, src, tgt, mapping, orientation))
    return PreorderDiagram(tuple(vertices), pre, tuple(arrows))


# -- preorder verify ---------------------------------------------------------


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
