"""The colimit universal property, checked by brute force.

``verify_colimit`` enumerates the test preorders of ``_preorders_on`` and
the order-reflecting maps into each; only ``preorder verify`` runs it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from typing import Iterator, Mapping, Optional, Sequence

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError
from .preorders import (
    FinitePreorder,
    PreorderDiagram,
    _bits,
    _classes,
    _columns,
    _disjoint_union,
    _reflection_witness,
)
from .records import record


@record
class VerifyResult:
    ok: bool
    reason: str = ""
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


@cache
def _posets_on(k: int) -> list[tuple[int, ...]]:
    # Labelled posets as row bitmasks (rows[i] = {j : i <= j}), built by adding
    # one element at a time: the new element picks a down-set d of strict
    # predecessors and an up-set u of strict successors inside the common
    # up-set of d, already fully related.  The up-sets are the complements of
    # the down-sets, listed in increasing order.
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    e = 1 << (k - 1)
    full = e - 1
    for rel in _posets_on(k - 1):
        cols = _columns(rel)
        # below[m] is everything below some element of m, common[m] the
        # common up-set of m; both built by adding the lowest bit last
        below = [0] * e
        common = [full] * e
        downs = [0]
        for m in range(1, e):
            low = m & -m
            x = low.bit_length() - 1
            below[m] = below[m ^ low] | cols[x]
            common[m] = common[m ^ low] & rel[x]
            if below[m] | m == m:
                downs.append(m)
        ups = [full ^ d for d in reversed(downs)]
        for d in downs:
            above = common[d] & ~d
            rows = tuple(r | e if d >> i & 1 else r for i, r in enumerate(rel))
            out.extend(rows + (u | e,) for u in ups if u & above == u)
    return out


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _relabellings(sizes: Sequence[int]) -> list[tuple[list[int], tuple[int, ...]]]:
    """Each permutation of the blocks that keeps block sizes, as the tuple
    ``inv`` of the old block at each new position, with the table taking a
    block bitmask to its image."""
    k = len(sizes)
    out = []
    for inv in itertools.permutations(range(k)):
        if any(sizes[i] != sizes[j] for i, j in enumerate(inv)):
            continue
        table = [0] * (1 << k)
        for m in range(1, 1 << k):
            low = m & -m
            table[m] = table[m ^ low] | 1 << inv.index(low.bit_length() - 1)
        out.append((table, inv))
    return out


@cache
def _preorders_on(q: int) -> list[tuple[int, ...]]:
    """All preorders on labels 0..q-1 up to isomorphism, as row bitmasks.

    Candidates are a set partition of the labels into equivalence classes
    together with a labelled poset on the classes; the first candidate seen
    in each isomorphism class is kept.  Duplicates are skipped without trying
    all q! relabellings:

    - only the first set partition of each multiset of class sizes is
      visited, since a later one realizes only isomorphism classes already
      seen, and partitions with different sizes share no class;
    - two posets on the classes of one partition give isomorphic preorders
      exactly when a permutation of the classes that keeps their sizes takes
      one to the other, so each kept poset marks all its relabellings as
      seen and every later candidate costs one set lookup.
    """
    shapes: set[tuple[int, ...]] = set()
    result: list[tuple[int, ...]] = []
    for part in _set_partitions(list(range(q))):
        shape = tuple(sorted(len(b) for b in part))
        if shape in shapes:
            continue
        shapes.add(shape)
        blocks = sorted(sorted(b) for b in part)
        block_of = {x: bi for bi, b in enumerate(blocks) for x in b}
        block_mask = [sum(1 << x for x in b) for b in blocks]
        relabellings = _relabellings([len(b) for b in blocks])
        seen: set[tuple[int, ...]] = set()
        for rel in _posets_on(len(blocks)):
            if rel in seen:
                continue
            seen.update(tuple(table[rel[i]] for i in inv) for table, inv in relabellings)
            up = [sum(block_mask[b] for b in _bits(r)) for r in rel]
            result.append(tuple(up[block_of[x]] for x in range(q)))
    return result


def _reflecting_maps_to(
    p: FinitePreorder, q_rows: tuple[int, ...], same: Sequence[int] = ()
) -> list[tuple[int, ...]]:
    """All order-reflecting assignments of p's elements to labels 0..q-1, in
    lexicographic order, that give element t the value of element ``same[t] <= t``.
    Element t may take only the values that no earlier element s bans: those
    below s's value when t is not below s, those above s's value when s is not
    below t, and all but s's value when s is ``same[t]``."""
    n = len(p.elements)
    prows = p.rows
    q_cols = _columns(q_rows)
    full = (1 << len(q_rows)) - 1
    same = same or range(n)
    # earlier elements whose value bans its down-set, resp. its up-set, at t
    below_bans = [[s for s in range(t) if not prows[t] >> s & 1] for t in range(n)]
    above_bans = [[s for s in range(t) if not prows[s] >> t & 1] for t in range(n)]
    out: list[tuple[int, ...]] = []
    assign = [0] * n

    def rec(t: int) -> None:
        if t == n:
            out.append(tuple(assign))
            return
        banned = 0 if same[t] == t else full ^ 1 << assign[same[t]]
        for s in below_bans[t]:
            banned |= q_cols[assign[s]]
        for s in above_bans[t]:
            banned |= q_rows[assign[s]]
        for v in _bits(full & ~banned):
            assign[t] = v
            rec(t + 1)

    rec(0)
    return out


def verify_colimit(
    diagram: PreorderDiagram,
    candidate: FinitePreorder,
    cocone: Mapping[str, Mapping[str, str]],
    caps: Caps = DEFAULT_CAPS,
) -> VerifyResult:
    """Exhaustively check that (candidate, cocone) has the colimit universal
    property: the cocone commutes and is order-reflecting, and for every
    preorder Q with at most |candidate| + 1 elements, h -> h . cocone is a
    bijection from the order-reflecting maps candidate -> Q onto the
    order-reflecting commuting cocones into Q.  Returns a witness on failure."""
    total = diagram.total_size()
    if total > caps.verify_total:
        raise CapExceededError(
            f"diagram has {total} elements, verify cap is {caps.verify_total}"
        )
    qmax = len(candidate) + 1
    if qmax > 5:
        raise CapExceededError(
            "universal-property enumeration only supported for candidates with "
            "at most 4 elements"
        )

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

    # (b) the bijection, over small test preorders Q up to isomorphism.  A
    # cocone into Q is a reflecting map out of the coproduct of the vertices
    # (cross-vertex pairs ban nothing) constant on each class of the arrows.
    nodes = [(v, x) for v in diagram.vertices for x in diagram.preorders[v].elements]
    union = _disjoint_union([diagram.preorders[v] for v in diagram.vertices])
    classes = _classes(nodes, diagram.identifications())
    first = {nd: cls[0] for cls in classes for nd in cls}
    same = [nodes.index(first[nd]) for nd in nodes]
    fiber = [candidate.index(cocone[v][x]) for v, x in nodes]
    for q in range(qmax + 1):
        for q_rows in _preorders_on(q):
            induced = Counter(
                tuple(map(h.__getitem__, fiber))
                for h in _reflecting_maps_to(candidate, q_rows)
            )
            for family in _reflecting_maps_to(union, q_rows, same):
                count = induced[family]
                if count == 1:
                    continue
                # a cocone not constant on the candidate's fibers is induced
                # by no map at all
                forced: dict[int, int] = {}
                if not all(forced.setdefault(c, val) == val
                           for c, val in zip(fiber, family)):
                    return VerifyResult(
                        False,
                        "cocone has no factorization (forced values conflict)",
                        {"q_size": q, "q_rows": list(q_rows)},
                    )
                return VerifyResult(
                    False,
                    "cocone does not factor uniquely"
                    if count > 1
                    else "cocone has no order-reflecting factorization",
                    {
                        "q_size": q,
                        "q_rows": list(q_rows),
                        "cocone": {v: {x: val for (u, x), val in zip(nodes, family) if u == v}
                                   for v in diagram.vertices},
                        "solutions": min(count, 2),
                    },
                )
    return VerifyResult(True)
