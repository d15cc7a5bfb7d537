"""Structured-text (JSON) encodings shared by the CLI commands.

One document per object.  A preorder is {"elements": [...], "leq": [[...]]},
its ``leq`` held as a ``LeqRows`` until it is written; a map is
{"source": ..., "target": ..., "map": {label: label}}; a diagram lists
vertices, arrows, and data.  Residues print as "-p/q" ("0" for zero),
tuples as arrays.  Parsing raises ParseError; semantic validation of the
decoded values raises the library's usual errors.

This module holds the writer, the helpers every reader shares, the
writers of preorders and characters, and what ``psod build`` reads and
writes.  The documents that the ``preorder`` commands read are in
``preorderdocs``; those of ``psod glue``, ``filtrate`` and ``ktheory`` in
``psoddocs``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from .errors import ParseError
from .records import record

# Readers import the constructors they build, so a document loads only the
# modules of the values it holds.
if TYPE_CHECKING:
    from .atlas import Chart, ChartAtlas, Overlap
    from .engine import FactorDescriptor, PsodIndex
    from .factorial import FactorialForm
    from .groups import FgAbGroup
    from .preorders import FinitePreorder
    from .residues import CharTuple
    from .strata import Stratification, Stratum


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal longer than Python reads
        raise ParseError(f"invalid JSON: {exc}") from exc


def dumps(doc: Any) -> str:
    return "".join(chunks(doc))


_BOOL_TEXT = ("false", "true")
# the text of a value of one of these exact types: a dict prints it after its
# key, and a list whose items all have one type is joined in C
_LEAF_TEXT = {bool: _BOOL_TEXT.__getitem__, str: _quote, int: int.__repr__,
              type(None): lambda _: "null"}


@record
class LeqRows:
    """A preorder document's dense ``leq`` matrix, held as the row bitmasks:
    ``chunks`` writes row i as the bits of ``rows[i]``, lowest first, and
    ``preorder_from_doc`` takes the rows as given."""

    rows: tuple[int, ...]


def chunks(doc: Any, _indent: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2)``, piece by piece.

    With ``indent`` set, ``json`` encodes in pure Python, one step per value.
    Here a string, integer, boolean or null value of a dict prints in its
    key's piece, a list of only one of those types is one piece joined in C,
    and a ``LeqRows`` prints as its boolean matrix, one piece per row read
    from a table of byte texts.  Keys must be strings; other scalars print
    as ``json.dumps`` prints them.
    """
    if isinstance(doc, str):
        yield _quote(doc)
    elif isinstance(doc, LeqRows):
        yield from _leq_chunks(doc.rows, _indent)
    elif isinstance(doc, (dict, list, tuple)):
        if not doc:
            yield "{}" if isinstance(doc, dict) else "[]"
            return
        inner = _indent + "  "
        sep = "," + inner
        if isinstance(doc, dict):
            head = "{" + inner
            for key, value in doc.items():
                text = _LEAF_TEXT.get(type(value))
                if text is None:
                    yield head + _quote(key) + ": "
                    yield from chunks(value, inner)
                else:
                    yield head + _quote(key) + ": " + text(value)
                head = sep
            yield _indent + "}"
            return
        kinds = set(map(type, doc))
        text = _LEAF_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
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


def _leq_chunks(rows: tuple[int, ...], indent: str) -> Iterator[str]:
    n = len(rows)
    if not n:
        yield "[]"
        return
    inner = indent + "  "
    cell = inner + "  "
    sep = "," + cell
    # the text of each byte value's lowest `width` cells, lowest bit first;
    # width is the least of 1, 2, 4 and 8 that covers n, else 8, so that a
    # small preorder builds a small table
    table, width = list(_BOOL_TEXT), 1
    while width < min(n, 8):
        table, width = [lo + sep + hi for hi in table for lo in table], 2 * width
    nbytes = -(-n // 8)
    # the cells past n are clear bits, so they print as "false"
    end = -(width * nbytes - n) * len(sep + "false") or None
    head, tail = "[" + inner + "[" + cell, inner + "]"
    for r in rows:
        yield head + sep.join(map(table.__getitem__, r.to_bytes(nbytes, "little")))[:end] + tail
        head = "," + inner + "[" + cell
    yield indent + "]"


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


def preorder_to_doc(p: FinitePreorder) -> dict:
    return {"elements": list(p.elements), "leq": LeqRows(p.rows)}


# -- characters --------------------------------------------------------------


def char_tuple_to_doc(c: CharTuple) -> list[str]:
    return [str(x) for x in c.components]


def factorial_form_to_doc(f: FactorialForm) -> dict:
    return {"level": f.level, "numerators": list(f.numerators)}


# -- stratifications ---------------------------------------------------------


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
    from .atlas import Chart

    cid = _need(doc, "id", "chart")
    branches = _need(doc, "branches", "chart")
    if not isinstance(cid, str):
        raise ParseError("chart id must be a string")
    if not _strings(branches):
        raise ParseError(f"chart {cid!r}: branches must be a list of strings")
    return Chart(cid, tuple(branches))


def _overlap_from_doc(doc: Mapping) -> Overlap:
    from .atlas import Overlap

    charts = _need(doc, "charts", "overlap")
    if not _strings(charts) or len(charts) != 2:
        raise ParseError("overlap charts must be a list of two chart ids")
    mapping = _label_map(_need(doc, "map", "overlap"), "overlap map")
    return Overlap(charts[0], charts[1], mapping)


def atlas_from_doc(doc: Mapping) -> ChartAtlas:
    from .atlas import ChartAtlas

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


# -- psod indices ------------------------------------------------------------


def factor_to_doc(f: FactorDescriptor) -> dict:
    out: dict[str, Any] = {
        "stratum": f.stratum_id,
        "character": char_tuple_to_doc(f.character),
        "target": f.target_label,
    }
    out["kdata"] = group_to_doc(f.kdata) if f.kdata is not None else None
    return out


def psod_to_doc(p: PsodIndex) -> dict:
    return {
        "index": preorder_to_doc(p.index),
        "factors": {x: factor_to_doc(p.factors[x]) for x in p.index.elements},
        "annotations": dict(p.annotations),
    }


