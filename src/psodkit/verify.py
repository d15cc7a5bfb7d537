"""The colimit universal property, decided by the quotient.

``verify_colimit`` builds the quotient of ``colimits._quotient_preorder``
once, accepts a candidate that is that quotient, and otherwise builds the
witness of the rejection from the map of the quotient's classes to the
candidate; only ``preorder verify`` runs it.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .colimits import _quotient_preorder
from .preorders import FinitePreorder, PreorderDiagram, _gather, _reflection_witness
from .records import record


@record
class VerifyResult:
    ok: bool
    reason: str = ""
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def _cocone_failure(
    diagram: PreorderDiagram,
    candidate: FinitePreorder,
    cocone: Mapping[str, Mapping[str, str]],
) -> Optional[VerifyResult]:
    """Steps (0) and (a) of ``verify_colimit``: the first way the cocone fails
    to be a commuting family of reflecting maps, or None."""
    # (0) the candidate cocone itself must be made of reflecting maps
    for v in diagram.vertices:
        mp = dict(cocone[v])
        p = diagram.preorders[v]
        if set(mp) != set(p.elements):
            return VerifyResult(False, "cocone map not total", {"vertex": v})
        bad = _reflection_witness(p, candidate, mp)
        if bad is not None:
            return VerifyResult(
                False,
                "cocone map not order-reflecting",
                {"vertex": v, "pair": list(bad)},
            )
    # (a) commutation over every arrow
    for (u, x), (v, y) in diagram.identifications():
        if cocone[v][y] != cocone[u][x]:
            return VerifyResult(
                False,
                "cocone does not commute",
                {"from": u, "to": v, "at": x},
            )
    return None


def _is_quotient(candidate: FinitePreorder, quotient: FinitePreorder, perm: Sequence[int]) -> bool:
    """Whether ``perm``, the candidate element each class of the quotient goes
    to, is a bijection under which the candidate's rows are the quotient's."""
    if sorted(perm) != list(range(len(candidate))):
        return False
    gather = _gather(perm, len(candidate))
    return all(gather(candidate.rows[k]) == row for k, row in zip(perm, quotient.rows))


def _rejection(
    candidate: FinitePreorder,
    quotient: FinitePreorder,
    perm: Sequence[int],
    labels: Mapping[str, Mapping[str, str]],
) -> VerifyResult:
    """The witness against a candidate that is not the quotient: a test
    preorder Q by its rows and, unless the forced values conflict, the cocone
    into Q as a value per class of ``labels``; see ``verify_colimit``."""
    m, n = len(quotient), len(candidate)
    if len(set(perm)) < m:
        return VerifyResult(
            False,
            "cocone has no factorization (forced values conflict)",
            {"q_size": m, "q_rows": [1 << a for a in range(m)]},
        )
    if m < n:
        reason, q_rows, g, solutions = (
            "cocone does not factor uniquely", [1 << a for a in range(n + 1)], perm, 2
        )
    else:
        gather = _gather(perm, n)
        a, missing = next(
            (a, row & ~gather(candidate.rows[k]))
            for a, (k, row) in enumerate(zip(perm, quotient.rows))
            if row & ~gather(candidate.rows[k])
        )
        q_rows = [1 << x for x in range(m)]
        q_rows[a] |= missing & -missing
        reason, g, solutions = "cocone has no order-reflecting factorization", range(m), 0
    value = dict(zip(quotient.elements, g))
    return VerifyResult(
        False,
        reason,
        {
            "q_size": len(q_rows),
            "q_rows": q_rows,
            "cocone": {v: {x: value[label] for x, label in ls.items()} for v, ls in labels.items()},
            "solutions": solutions,
        },
    )


def verify_colimit(
    diagram: PreorderDiagram,
    candidate: FinitePreorder,
    cocone: Mapping[str, Mapping[str, str]],
) -> VerifyResult:
    """Check that (candidate, cocone) has the colimit universal property: the
    cocone commutes and is order-reflecting, and for every preorder Q,
    h -> h . cocone is a bijection from the order-reflecting maps
    candidate -> Q onto the order-reflecting commuting cocones into Q.

    Steps (0) and (a) make each class of the arrows related both ways within
    each vertex, so ``_quotient_preorder`` exists, and the cocone is a
    function c (``perm``) from its m classes to the n candidate elements.
    In the coproduct U of the vertices, cross-vertex pairs are related both
    ways.  A commuting cocone into any preorder Q is then a function g on
    classes with g(a) <= g(b) => x <= y in U for all x in a, y in b.  That
    is the quotient's rule: the cocones into Q are exactly the reflecting
    maps from the quotient to Q.  So a candidate that is the quotient
    (``_is_quotient``) is accepted, since h -> h . cocone is then a
    bijection for every Q of any size, and transitivity is never used.

    Every other candidate fails, and the first case below that applies gives
    the witness: a transitive Q and a reflecting g out of the quotient.  As
    the cocone reflects, c(a) <= c(b) implies a <= b.

    - c is not one-to-one, say c(a) = c(b) with a != b.  On the discrete
      preorder on the m classes, g = identity is a cocone, and no map h
      has h(c(a)) = a and h(c(b)) = b: "forced values conflict".
    - c is not onto.  On the discrete preorder on n + 1 points, g = c is a
      cocone.  Any one-to-one h with h . c = c reflects, and a point outside
      the image may go to itself or to the spare point n: two solutions.
    - c is a bijection, so some a <= b in the quotient has c(a) not <= c(b);
      take the first such pair in row-major order.  On the discrete preorder
      on m points plus a <= b, g = identity is a cocone, and its only
      factorization c^-1 does not reflect c(a), c(b): no solutions.

    A rejection costs one quotient, whatever the candidate's size."""
    failure = _cocone_failure(diagram, candidate, cocone)
    if failure is not None:
        return failure
    quotient, labels = _quotient_preorder(
        diagram.preorders, diagram.vertices, diagram.identifications()
    )
    image = {
        labels[v][x]: candidate.index(y) for v in diagram.vertices for x, y in cocone[v].items()
    }
    perm = [image[label] for label in quotient.elements]
    if _is_quotient(candidate, quotient, perm):
        return VerifyResult(True)
    return _rejection(candidate, quotient, perm, labels)
