"""Fixtures the tests build values and documents with.  No command runs
them, so they live here rather than in the package."""

from __future__ import annotations

from typing import Iterable, Sequence

from psodkit.documents import preorder_to_doc
from psodkit.preorders import (
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    _closure_masks,
)
from psodkit.strata import Stratification


def generated_preorder(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> FinitePreorder:
    """Reflexive-transitive closure of the given generating pairs."""
    return FinitePreorder(tuple(elements), tuple(_closure_masks(elements, pairs)))


def identity_map(p: FinitePreorder) -> OrderReflectingMap:
    return OrderReflectingMap(p, p, {x: x for x in p.elements})


def map_to_doc(m: OrderReflectingMap) -> dict:
    return {
        "source": preorder_to_doc(m.source),
        "target": preorder_to_doc(m.target),
        "map": dict(m.mapping),
    }


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


def stratification_to_doc(s: Stratification) -> dict:
    return {
        "strata": [
            {"id": t.id, "codim": t.codim, "norm_components": list(t.norm_components)}
            for t in s.strata
        ],
        "closure": [list(pair) for pair in s.closure],
    }
