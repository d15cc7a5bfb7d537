"""Fixtures the tests build values and documents with, and the brute-force
reflecting maps and test preorders of the factorization oracle.  No command
runs them, so they live here rather than in the package."""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterable, Iterator, Sequence

from psodkit.documents import preorder_to_doc
from psodkit.preorders import (
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    _bits,
    _closure_masks,
    _columns,
)
from psodkit.residues import CharTuple, Residue
from psodkit.strata import Stratification


def generated_preorder(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> FinitePreorder:
    """Reflexive-transitive closure of the given generating pairs."""
    return FinitePreorder(tuple(elements), tuple(_closure_masks(elements, pairs)))


def char_tuple(*residues: str) -> CharTuple:
    """The tuple of the given residues, each read by ``Residue.parse``."""
    return CharTuple(tuple(Residue.parse(r) for r in residues))


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


def reflecting_maps(p: FinitePreorder, q_rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Every assignment h of p's elements to labels 0..q-1, in lexicographic
    order, kept when h(x) <= h(y) in q implies x <= y in p."""
    n = len(p)
    return [
        h
        for h in itertools.product(range(len(q_rows)), repeat=n)
        if all(p.rows[i] >> j & 1 for i in range(n) for j in range(n) if q_rows[h[i]] >> h[j] & 1)
    ]


# The test preorders of the factorization oracle: every preorder on q points
# up to isomorphism, as row bitmasks, in a fixed order.


@cache
def posets_on(k: int) -> list[tuple[int, ...]]:
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
    for rel in posets_on(k - 1):
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


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
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
def preorders_on(q: int) -> list[tuple[int, ...]]:
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
    for part in set_partitions(list(range(q))):
        shape = tuple(sorted(len(b) for b in part))
        if shape in shapes:
            continue
        shapes.add(shape)
        blocks = sorted(sorted(b) for b in part)
        block_of = {x: bi for bi, b in enumerate(blocks) for x in b}
        block_mask = [sum(1 << x for x in b) for b in blocks]
        relabellings = _relabellings([len(b) for b in blocks])
        seen: set[tuple[int, ...]] = set()
        for rel in posets_on(len(blocks)):
            if rel in seen:
                continue
            seen.update(tuple(table[rel[i]] for i in inv) for table, inv in relabellings)
            up = [sum(block_mask[b] for b in _bits(r)) for r in rel]
            result.append(tuple(up[block_of[x]] for x in range(q)))
    return result
