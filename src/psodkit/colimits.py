"""Colimits of preorders: coproducts, pushouts and colimits of diagrams.

Each is the set-theoretic quotient of the disjoint union of the parts,
ordered by the rule 'z <= z'' iff every same-part preimage pair is
related'.  The rule can produce non-transitive relations; see ``preorders``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import InputError, PreconditionError
from .preorders import (
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    _bits,
    _classes,
    _gather,
)
from .records import record


@record
class ColimitResult:
    preorder: FinitePreorder
    cocones: Mapping[str, OrderReflectingMap]


def _class_labels(classes: Sequence[Sequence[tuple[str, str]]]) -> list[str]:
    # Prefer the bare element labels; fall back to vertex-qualified labels
    # for every class as soon as the bare ones would collide, and if a dot in a
    # vertex name makes those collide too, end each in "#" and its position.
    naive = ["=".join(sorted({lbl for _, lbl in cls})) for cls in classes]
    if len(set(naive)) == len(naive):
        return naive
    qualified = ["=".join(sorted(f"{v}.{lbl}" for v, lbl in cls)) for cls in classes]
    if len(set(qualified)) == len(qualified):
        return qualified
    return [f"{label}#{k}" for k, label in enumerate(qualified)]


def _quotient_preorder(
    parts: Mapping[str, FinitePreorder],
    part_order: Sequence[str],
    identifications: Iterable[tuple[tuple[str, str], tuple[str, str]]],
) -> tuple[FinitePreorder, dict[str, dict[str, str]]]:
    """Quotient the disjoint union of the parts and equip it with the rule
    'z <= z'' iff every same-part preimage pair is related'."""
    nodes = [(v, x) for v in part_order for x in parts[v].elements]
    classes = _classes(nodes, identifications)
    labels = _class_labels(classes)
    cls_of = {nd: i for i, cls in enumerate(classes) for nd in cls}

    # class i <= class j unless some part has a preimage of i not below a
    # preimage of j: every row starts full and loses those classes
    m = len(classes)
    rows = [(1 << m) - 1] * m
    for v in part_order:
        p = parts[v]
        n = len(p)
        preims: dict[int, list[int]] = {}
        for t, x in enumerate(p.elements):
            preims.setdefault(cls_of[(v, x)], []).append(t)
        # layer k reads each class's k-th preimage in p, or the padding
        # position n where the class has fewer: a mask of elements of p
        # becomes the mask of their classes, OR-ed over the layers
        layers = []
        for k in range(max(map(len, preims.values()), default=0)):
            layer = [n] * m
            for c, ts in preims.items():
                if k < len(ts):
                    layer[c] = ts[k]
            layers.append(_gather(layer, n))
        everything = (1 << n) - 1
        for i in sorted(preims):
            preim = sum(1 << t for t in preims[i])
            common = everything
            for x in preims[i]:
                # the cocone into the quotient can only be order-reflecting if
                # each class meets every part in a complete fiber; zigzag
                # identifications can break this, and then no object satisfies
                # the stated rule
                bad = preim & ~p.rows[x]
                if bad:
                    raise PreconditionError(
                        f"elements {p.elements[x]!r} and {p.elements[next(_bits(bad))]!r} "
                        f"of part {v!r} are identified but not mutually related; the "
                        "gluing admits no order-reflecting cocone"
                    )
                common &= p.rows[x]
            not_below = everything & ~common
            if not_below:
                for gather in layers:
                    rows[i] &= ~gather(not_below)
    carrier = FinitePreorder(tuple(labels), tuple(rows))
    cocones = {
        v: {x: labels[cls_of[(v, x)]] for x in parts[v].elements} for v in part_order
    }
    return carrier, cocones


def coproduct(
    parts: Sequence[FinitePreorder],
) -> tuple[FinitePreorder, tuple[OrderReflectingMap, ...]]:
    """Disjoint union; distinct parts are related both ways, each part keeps
    its own relation, and the parts follow one another.  Labels are
    namespaced by part index only on collision."""
    labels = [x for p in parts for x in p.elements]
    if len(set(labels)) != len(labels):
        labels = [f"{i}:{x}" for i, p in enumerate(parts) for x in p.elements]
    full = (1 << len(labels)) - 1
    rows: list[int] = []
    for p in parts:
        o = len(rows)
        outside = full & ~(((1 << len(p)) - 1) << o)
        rows.extend(outside | r << o for r in p.rows)
    out = FinitePreorder(tuple(labels), tuple(rows))
    injections, o = [], 0
    for p in parts:
        injections.append(OrderReflectingMap(p, out, dict(zip(p.elements, out.elements[o:]))))
        o += len(p)
    return out, tuple(injections)


def pushout(
    left: OrderReflectingMap, right: OrderReflectingMap
) -> tuple[FinitePreorder, OrderReflectingMap, OrderReflectingMap]:
    """Pushout of P1 <- P3 -> P2: set-theoretic quotient of the disjoint union,
    z <= z' iff all P1-preimage pairs and all P2-preimage pairs are related."""
    if left.source != right.source:
        raise InputError("the two legs must share the same source preorder")
    parts = {"1": left.target, "2": right.target}
    idents = [
        (("1", left.mapping[w]), ("2", right.mapping[w]))
        for w in left.source.elements
    ]
    carrier, raw = _quotient_preorder(parts, ("1", "2"), idents)
    pi1 = OrderReflectingMap(left.target, carrier, raw["1"])
    pi2 = OrderReflectingMap(right.target, carrier, raw["2"])
    return carrier, pi1, pi2


def colimit(diagram: PreorderDiagram) -> ColimitResult:
    """Colimit of the underlying sets, ordered by the uniform rule
    'z <= z'' iff every pair of preimages in every vertex is related'."""
    carrier, raw = _quotient_preorder(
        diagram.preorders, diagram.vertices, diagram.identifications()
    )
    cocones = {
        v: OrderReflectingMap(diagram.preorders[v], carrier, raw[v])
        for v in diagram.vertices
    }
    return ColimitResult(carrier, cocones)
