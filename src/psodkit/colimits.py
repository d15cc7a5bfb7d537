"""Colimits of preorders: coproducts, pushouts and colimits of diagrams.

Each is the set-theoretic quotient of the disjoint union of the parts,
ordered by the rule 'z <= z'' iff every same-part preimage pair is
related'.  The rule can produce non-transitive relations; see ``preorders``.
Each map built here, a label dict per part, is certified by ``_certified``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import InvariantError, PreconditionError
from .preorders import (
    FinitePreorder,
    PreorderDiagram,
    _bits,
    _checked_map,
    _classes,
    _gather,
    _reflection_witness,
)
from .records import record


@record
class ColimitResult:
    preorder: FinitePreorder
    cocones: Mapping[str, dict[str, str]]


def _certified(parts: Mapping, carrier: FinitePreorder, maps: Mapping) -> None:
    """Check that each map ``maps[v]``, from ``parts[v]`` into ``carrier``,
    reflects the order; InvariantError names the part and pair if not."""
    for v, mp in maps.items():
        bad = _reflection_witness(parts[v], carrier, mp)
        if bad is not None:
            raise InvariantError(
                f"the map from part {v!r} does not reflect the order at {bad}",
                {"part": v, "pair": list(bad)},
            )


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
    _certified(parts, carrier, cocones)
    return carrier, cocones


def coproduct(
    parts: Sequence[FinitePreorder],
) -> tuple[FinitePreorder, tuple[dict[str, str], ...]]:
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
        injections.append(dict(zip(p.elements, labels[o:])))
        o += len(p)
    _certified(dict(enumerate(parts)), out, dict(enumerate(injections)))
    return out, tuple(injections)


def pushout(
    apex: FinitePreorder,
    p1: FinitePreorder,
    p2: FinitePreorder,
    left: Mapping[str, str],
    right: Mapping[str, str],
) -> tuple[FinitePreorder, dict[str, str], dict[str, str]]:
    """Pushout of p1 <-left- apex -right-> p2: set-theoretic quotient of the
    disjoint union, z <= z' iff all p1-preimage pairs and all p2-preimage
    pairs are related.  Both legs are checked here."""
    left, right = _checked_map(apex, p1, left), _checked_map(apex, p2, right)
    idents = [(("1", left[w]), ("2", right[w])) for w in apex.elements]
    carrier, maps = _quotient_preorder({"1": p1, "2": p2}, ("1", "2"), idents)
    return carrier, maps["1"], maps["2"]


def colimit(diagram: PreorderDiagram) -> ColimitResult:
    """Colimit of the underlying sets, ordered by the uniform rule
    'z <= z'' iff every pair of preimages in every vertex is related'."""
    return ColimitResult(
        *_quotient_preorder(diagram.preorders, diagram.vertices, diagram.identifications())
    )
