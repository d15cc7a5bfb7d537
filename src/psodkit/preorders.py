"""Finite preorders, order-reflecting maps, and their (co)limit constructions.

The carrier type stores a reflexive relation ``leq`` over labelled elements.
Transitivity is *checked*, not enforced: the disjoint-union and gluing rules
implemented here can produce genuinely non-transitive comparability patterns
(two classes with no common preimages become vacuously mutually related), and
the index relations built downstream inherit that.  ``FinitePreorder.is_transitive``
reports the status; constructions that guarantee transitivity assert it in tests.

A map ``phi`` between carriers is *order-reflecting* when
``phi(x) <= phi(y)`` in the target implies ``x <= y`` in the source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError, InputError, PreconditionError

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


# ---------------------------------------------------------------------------
# carriers


@dataclass(frozen=True)
class FinitePreorder:
    """A finite labelled carrier with a reflexive relation ``leq``.

    ``leq[i][j]`` is True when ``elements[i] <= elements[j]``.
    """

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise InputError("element labels must be pairwise distinct")
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise InputError("relation matrix must be square over the elements")
        for i in range(n):
            if not self.leq[i][i]:
                raise InputError(f"relation not reflexive at {self.elements[i]!r}")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Row bitmasks: bit j of rows[i] is leq[i][j]."""
        return tuple(
            sum(1 << j for j, up in enumerate(row) if up) for row in self.leq
        )

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"no element labelled {label!r}") from None

    def le(self, x: str, y: str) -> bool:
        return self.leq[self.index(x)][self.index(y)]

    def lt(self, x: str, y: str) -> bool:
        """Strict comparability: x <= y and x != y (mutual pairs stay strict)."""
        return x != y and self.le(x, y)

    @cached_property
    def is_transitive(self) -> bool:
        return not self.transitivity_violations(limit=1)

    def transitivity_violations(self, limit: int = 0) -> list[tuple[str, str, str]]:
        """Triples (x, y, z) with x<=y<=z but not x<=z; at most ``limit`` if set."""
        out: list[tuple[str, str, str]] = []
        rows = self.rows
        n = len(self.elements)
        for i in range(n):
            reach = 0
            mask = rows[i]
            for j in range(n):
                if mask >> j & 1:
                    reach |= rows[j]
            bad = reach & ~rows[i]
            if bad:
                for j in range(n):
                    if rows[i] >> j & 1 and rows[j] & bad:
                        for k in range(n):
                            if rows[j] >> k & 1 and bad >> k & 1:
                                out.append(
                                    (self.elements[i], self.elements[j], self.elements[k])
                                )
                                if limit and len(out) >= limit:
                                    return out
        return out

    @cached_property
    def is_total(self) -> bool:
        """Every pair related one way or the other."""
        n = len(self.elements)
        return all(
            self.leq[i][j] or self.leq[j][i] for i in range(n) for j in range(i + 1, n)
        )

    def restrict(self, labels: Sequence[str]) -> "FinitePreorder":
        idx = [self.index(x) for x in labels]
        return FinitePreorder(
            tuple(labels),
            tuple(tuple(self.leq[i][j] for j in idx) for i in idx),
        )

    def relation_pairs(self) -> set[tuple[str, str]]:
        return {
            (x, y)
            for i, x in enumerate(self.elements)
            for j, y in enumerate(self.elements)
            if self.leq[i][j]
        }


def _from_pairs(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> FinitePreorder:
    idx = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    m = [[i == j for j in range(n)] for i in range(n)]
    for x, y in pairs:
        m[idx[x]][idx[y]] = True
    return FinitePreorder(tuple(elements), tuple(tuple(row) for row in m))


def complete_preorder(labels: Sequence[str]) -> FinitePreorder:
    """All pairs related: the free object over a set for reflecting maps out."""
    labels = tuple(labels)
    n = len(labels)
    return FinitePreorder(labels, tuple(tuple(True for _ in range(n)) for _ in range(n)))


def discrete_preorder(labels: Sequence[str]) -> FinitePreorder:
    """Only the diagonal related."""
    labels = tuple(labels)
    n = len(labels)
    return FinitePreorder(labels, tuple(tuple(i == j for j in range(n)) for i in range(n)))


def _closure_masks(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> list[int]:
    """Row bitmasks of the reflexive-transitive closure of the pairs."""
    idx = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    rows = [1 << i for i in range(n)]
    for x, y in pairs:
        rows[idx[x]] |= 1 << idx[y]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            m = rows[i]
            j = 0
            while m:
                if m & 1:
                    acc |= rows[j]
                m >>= 1
                j += 1
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return rows


def generated_preorder(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> FinitePreorder:
    """Reflexive-transitive closure of the given generating pairs."""
    rows = _closure_masks(elements, pairs)
    n = len(elements)
    return FinitePreorder(
        tuple(elements),
        tuple(tuple(bool(rows[i] >> j & 1) for j in range(n)) for i in range(n)),
    )


# ---------------------------------------------------------------------------
# maps


def is_order_reflecting(
    source: FinitePreorder, target: FinitePreorder, mapping: Mapping[str, str]
) -> bool:
    """True iff target comparability of images implies source comparability."""
    if set(mapping) != set(source.elements):
        raise InputError("map must be total on the source carrier")
    return _reflection_witness(source, target, mapping) is None


def _reflection_witness(
    source: FinitePreorder, target: FinitePreorder, mapping: Mapping[str, str]
) -> Optional[tuple[str, str]]:
    for x in source.elements:
        for y in source.elements:
            if target.le(mapping[x], mapping[y]) and not source.le(x, y):
                return (x, y)
    return None


@dataclass(frozen=True)
class OrderReflectingMap:
    """A total carrier function satisfying the reflection law (validated)."""

    source: FinitePreorder
    target: FinitePreorder
    mapping: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))
        missing = set(self.source.elements) - set(self.mapping)
        if missing:
            raise InputError(f"map not total, missing {sorted(missing)}")
        extra = set(self.mapping) - set(self.source.elements)
        if extra:
            raise InputError(f"map defined on unknown labels {sorted(extra)}")
        for v in self.mapping.values():
            self.target.index(v)
        bad = _reflection_witness(self.source, self.target, self.mapping)
        if bad is not None:
            raise InputError(
                f"map is not order-reflecting: images of {bad} are comparable, "
                "sources are not"
            )

    def __call__(self, label: str) -> str:
        return self.mapping[label]

    def then(self, other: "OrderReflectingMap") -> "OrderReflectingMap":
        if other.source != self.target:
            raise InputError("composition endpoints do not match")
        return OrderReflectingMap(
            self.source, other.target, {x: other.mapping[y] for x, y in self.mapping.items()}
        )

    def fiber(self, label: str) -> tuple[str, ...]:
        return tuple(x for x in self.source.elements if self.mapping[x] == label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderReflectingMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and dict(self.mapping) == dict(other.mapping)
        )


def identity_map(p: FinitePreorder) -> OrderReflectingMap:
    return OrderReflectingMap(p, p, {x: x for x in p.elements})


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class DiagramArrow:
    """A quiver arrow carrying its map; covariant maps run src -> tgt,
    contravariant ones tgt -> src."""

    name: str
    src: str
    tgt: str
    map: OrderReflectingMap
    orientation: str = COVARIANT

    def __post_init__(self) -> None:
        if self.orientation not in (COVARIANT, CONTRAVARIANT):
            raise InputError(f"unknown orientation {self.orientation!r}")


@dataclass(frozen=True)
class PreorderDiagram:
    """A finite quiver with a preorder per vertex and a reflecting map per arrow."""

    vertices: tuple[str, ...]
    preorders: Mapping[str, FinitePreorder]
    arrows: tuple[DiagramArrow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "preorders", dict(self.preorders))
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("vertex labels must be distinct")
        if set(self.preorders) != set(self.vertices):
            raise InputError("exactly one preorder per vertex required")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise InputError("arrow names must be distinct")
        for a in self.arrows:
            if a.src not in self.preorders or a.tgt not in self.preorders:
                raise InputError(f"arrow {a.name!r} has unknown endpoints")
            want_src, want_tgt = (
                (a.src, a.tgt) if a.orientation == COVARIANT else (a.tgt, a.src)
            )
            if a.map.source != self.preorders[want_src] or a.map.target != self.preorders[want_tgt]:
                raise InputError(
                    f"arrow {a.name!r}: map endpoints do not match the quiver "
                    f"under the {a.orientation} orientation"
                )

    def total_size(self) -> int:
        return sum(len(self.preorders[v]) for v in self.vertices)

    def actual_maps(self) -> Iterator[tuple[str, str, Mapping[str, str]]]:
        """Yield (u, v, mapping) with mapping a carrier function P_u -> P_v."""
        for a in self.arrows:
            if a.orientation == COVARIANT:
                yield a.src, a.tgt, a.map.mapping
            else:
                yield a.tgt, a.src, a.map.mapping


def constant_diagram(
    vertices: Sequence[str],
    p: FinitePreorder,
    arrows: Sequence[tuple[str, str, str]] = (),
) -> PreorderDiagram:
    """Every vertex carries ``p``, every arrow the identity."""
    return PreorderDiagram(
        tuple(vertices),
        {v: p for v in vertices},
        tuple(
            DiagramArrow(name, src, tgt, identity_map(p)) for name, src, tgt in arrows
        ),
    )


# ---------------------------------------------------------------------------
# colimits


@dataclass(frozen=True)
class ColimitResult:
    preorder: FinitePreorder
    cocones: Mapping[str, OrderReflectingMap]


class _Classes:
    """Union-find specialized to hashable nodes with deterministic class order."""

    def __init__(self, nodes: Sequence):
        self.nodes = list(nodes)
        self.parent = {x: x for x in nodes}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> list[tuple]:
        """The classes ordered by their first member in node order, members
        in node order (a dict keeps the order in which classes first appear)."""
        groups: dict = {}
        for x in self.nodes:
            groups.setdefault(self.find(x), []).append(x)
        return [tuple(g) for g in groups.values()]


def _class_labels(classes: Sequence[Sequence[tuple[str, str]]]) -> list[str]:
    # Prefer the bare element labels; fall back to vertex-qualified labels
    # for every class as soon as the bare ones would collide.
    naive = ["=".join(sorted({lbl for _, lbl in cls})) for cls in classes]
    if len(set(naive)) == len(naive):
        return naive
    return ["=".join(sorted(f"{v}.{lbl}" for v, lbl in cls)) for cls in classes]


def _quotient_preorder(
    parts: Mapping[str, FinitePreorder],
    part_order: Sequence[str],
    identifications: Iterable[tuple[tuple[str, str], tuple[str, str]]],
) -> tuple[FinitePreorder, dict[str, dict[str, str]]]:
    """Quotient the disjoint union of the parts and equip it with the rule
    'z <= z'' iff every same-part preimage pair is related'."""
    nodes = [(v, x) for v in part_order for x in parts[v].elements]
    uf = _Classes(nodes)
    for a, b in identifications:
        uf.union(a, b)
    classes = uf.classes()
    labels = _class_labels(classes)
    cls_of = {nd: i for i, cls in enumerate(classes) for nd in cls}

    m = len(classes)
    preim: dict[str, list[list[str]]] = {
        v: [[] for _ in range(m)] for v in part_order
    }
    for v, x in nodes:
        preim[v][cls_of[(v, x)]].append(x)
    # the cocone into the quotient can only be order-reflecting if each class
    # meets every part in a complete fiber; zigzag identifications can break
    # this, and then no object satisfies the stated rule
    for v in part_order:
        p = parts[v]
        for i in range(m):
            for x in preim[v][i]:
                for y in preim[v][i]:
                    if not p.le(x, y):
                        raise PreconditionError(
                            f"elements {x!r} and {y!r} of part {v!r} are "
                            "identified but not mutually related; the gluing "
                            "admits no order-reflecting cocone"
                        )
    leq = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            ok = True
            for v in part_order:
                p = parts[v]
                for x in preim[v][i]:
                    for y in preim[v][j]:
                        if not p.le(x, y):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            leq[i][j] = ok
    carrier = FinitePreorder(tuple(labels), tuple(tuple(row) for row in leq))
    cocones = {
        v: {x: labels[cls_of[(v, x)]] for x in parts[v].elements} for v in part_order
    }
    return carrier, cocones


def coproduct(
    parts: Sequence[FinitePreorder],
) -> tuple[FinitePreorder, tuple[OrderReflectingMap, ...]]:
    """Disjoint union; distinct parts are related both ways, each part keeps
    its own relation.  Labels are namespaced by part index only on collision."""
    all_labels = [x for p in parts for x in p.elements]
    namespaced = len(set(all_labels)) != len(all_labels)

    def lab(i: int, x: str) -> str:
        return f"{i}:{x}" if namespaced else x

    elements = [lab(i, x) for i, p in enumerate(parts) for x in p.elements]
    offsets = []
    t = 0
    for p in parts:
        offsets.append(t)
        t += len(p)
    n = len(elements)
    leq = [[True] * n for _ in range(n)]
    for i, p in enumerate(parts):
        o = offsets[i]
        k = len(p)
        for a in range(k):
            for b in range(k):
                leq[o + a][o + b] = p.leq[a][b]
    out = FinitePreorder(tuple(elements), tuple(tuple(row) for row in leq))
    injections = tuple(
        OrderReflectingMap(p, out, {x: lab(i, x) for x in p.elements})
        for i, p in enumerate(parts)
    )
    return out, injections


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
    idents = [
        ((u, x), (v, mapping[x]))
        for u, v, mapping in diagram.actual_maps()
        for x in diagram.preorders[u].elements
    ]
    carrier, raw = _quotient_preorder(diagram.preorders, diagram.vertices, idents)
    cocones = {
        v: OrderReflectingMap(diagram.preorders[v], carrier, raw[v])
        for v in diagram.vertices
    }
    return ColimitResult(carrier, cocones)


# ---------------------------------------------------------------------------
# directedness


@dataclass(frozen=True)
class DirectednessReport:
    ok: bool
    numbering: tuple[str, ...] = ()
    incomparable_pair: Optional[tuple[str, str]] = None
    stuck_on: tuple[str, ...] = ()

    def witness(self) -> dict:
        if self.ok:
            return {}
        if self.incomparable_pair is not None:
            return {"kind": "incomparable_pair", "pair": list(self.incomparable_pair)}
        return {"kind": "no_enumeration", "stuck_on": list(self.stuck_on)}


def directedness(p: FinitePreorder) -> DirectednessReport:
    """Decide whether the carrier admits a numbering p_0, ..., p_m with every
    earlier element below every later one (equivalently, an order-reflecting
    map to the naturals).  Greedy peel of elements below all remaining ones;
    ties broken by input label order.  On a transitive carrier this succeeds
    exactly when the relation is total."""
    n = len(p.elements)
    rows = p.rows
    remaining = list(range(n))
    order: list[int] = []
    while remaining:
        mask = 0
        for j in remaining:
            mask |= 1 << j
        pick = next((i for i in remaining if rows[i] & mask == mask), None)
        if pick is None:
            for i in remaining:
                for j in remaining:
                    if not (rows[i] >> j & 1) and not (rows[j] >> i & 1):
                        return DirectednessReport(
                            False,
                            incomparable_pair=(p.elements[i], p.elements[j]),
                            stuck_on=tuple(p.elements[k] for k in remaining),
                        )
            return DirectednessReport(
                False, stuck_on=tuple(p.elements[k] for k in remaining)
            )
        order.append(pick)
        remaining.remove(pick)
    return DirectednessReport(True, numbering=tuple(p.elements[i] for i in order))


def is_directed(p: FinitePreorder) -> bool:
    return directedness(p).ok


def directed_numbering(p: FinitePreorder) -> tuple[str, ...]:
    """Enumeration p_0, ..., p_m with n < n' implying p_n < p_{n'}."""
    report = directedness(p)
    if not report.ok:
        raise PreconditionError(f"carrier is not directed: {report.witness()}")
    return report.numbering


# ---------------------------------------------------------------------------
# brute-force universal property


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def _posets_on(k: int) -> list[tuple[int, ...]]:
    # Labelled posets as row bitmasks (rows[i] = {j : i <= j}), built by adding
    # one element at a time: the new element picks a down-set of strict
    # predecessors and an up-set of strict successors, already fully related.
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for rel in _posets_on(k - 1):
        e = k - 1
        m = k - 1
        cols = [
            sum(((rel[y] >> x) & 1) << y for y in range(m)) for x in range(m)
        ]
        subsets = range(1 << m)
        downs = [
            d
            for d in subsets
            if all(cols[x] & ~d == 0 for x in range(m) if d >> x & 1)
        ]
        ups = [
            u
            for u in subsets
            if all(rel[x] & ~u & ~(1 << x) == 0 for x in range(m) if u >> x & 1)
        ]
        for d in downs:
            for u in ups:
                if d & u:
                    continue
                if any(rel[x] & u != u for x in range(m) if d >> x & 1):
                    continue
                rows = [rel[i] | (1 << e) if d >> i & 1 else rel[i] for i in range(m)]
                rows.append(u | (1 << e))
                out.append(tuple(rows))
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


def _iso_key(rows: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of the preorder given by row bitmasks: equal exactly for
    isomorphic preorders.

    Each element is coloured by its up-set, down-set and equivalence-class
    sizes, which any isomorphism preserves.  The form is the least relabelled
    matrix over the relabellings that list the elements in increasing colour,
    so only permutations inside each colour class are tried.
    """
    q = len(rows)
    cols = [sum((r >> x & 1) << y for y, r in enumerate(rows)) for x in range(q)]
    colour = [(r.bit_count(), c.bit_count(), (r & c).bit_count()) for r, c in zip(rows, cols)]
    order = sorted(range(q), key=colour.__getitem__)
    classes = [tuple(c) for _, c in itertools.groupby(order, key=colour.__getitem__)]
    perms = (
        sum(choice, ())
        for choice in itertools.product(*map(itertools.permutations, classes))
    )
    return min(tuple(rows[x] >> y & 1 for x in perm for y in perm) for perm in perms)


_PREORDER_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _preorders_on(q: int) -> list[tuple[int, ...]]:
    """All preorders on labels 0..q-1 up to isomorphism, as row bitmasks.

    Candidates are a set partition of the labels into equivalence classes
    together with a labelled poset on the classes; the first candidate seen
    in each isomorphism class is kept.  Duplicates are skipped without trying
    all q! relabellings:

    - only the first set partition of each multiset of class sizes is
      visited, since a later one realizes only isomorphism classes already
      seen, and partitions with different sizes share no class;
    - the remaining candidates are compared by ``_iso_key``.
    """
    if q in _PREORDER_CACHE:
        return _PREORDER_CACHE[q]
    posets_by_size = {k: _posets_on(k) for k in range(q + 1)}
    shapes: set[tuple[int, ...]] = set()
    seen: set[tuple[int, ...]] = set()
    result: list[tuple[int, ...]] = []
    for part in _set_partitions(list(range(q))):
        shape = tuple(sorted(len(b) for b in part))
        if shape in shapes:
            continue
        shapes.add(shape)
        blocks = [sorted(b) for b in part]
        blocks.sort()
        k = len(blocks)
        block_of = {x: bi for bi, b in enumerate(blocks) for x in b}
        block_mask = [sum(1 << x for x in b) for b in blocks]
        for rel in posets_by_size[k]:
            rows = tuple(
                sum(block_mask[by] for by in range(k) if rel[block_of[x]] >> by & 1)
                for x in range(q)
            )
            key = _iso_key(rows)
            if key not in seen:
                seen.add(key)
                result.append(rows)
    _PREORDER_CACHE[q] = result
    return result


def _reflecting_maps_to(
    p: FinitePreorder, q_rows: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All order-reflecting assignments of p's elements to labels 0..q-1."""
    n = len(p.elements)
    prows = p.rows
    qn = len(q_rows)
    out: list[tuple[int, ...]] = []
    assign = [0] * n

    def rec(t: int) -> None:
        if t == n:
            out.append(tuple(assign))
            return
        for v in range(qn):
            ok = True
            for s in range(t):
                w = assign[s]
                if (q_rows[v] >> w & 1) and not (prows[t] >> s & 1):
                    ok = False
                    break
                if (q_rows[w] >> v & 1) and not (prows[s] >> t & 1):
                    ok = False
                    break
            if ok and (q_rows[v] >> v & 1) and not (prows[t] >> t & 1):
                ok = False
            if ok:
                assign[t] = v
                rec(t + 1)
        return

    rec(0)
    return out


def verify_colimit(
    diagram: PreorderDiagram,
    candidate: FinitePreorder,
    cocone: Mapping[str, Mapping[str, str]],
    caps: Caps = DEFAULT_CAPS,
) -> VerifyResult:
    """Exhaustively check that (candidate, cocone) has the colimit universal
    property: the cocone commutes and is order-reflecting, and every
    order-reflecting commuting cocone to every preorder with at most
    |candidate| + 1 elements factors through it by a unique order-reflecting
    map.  Returns a witness on failure."""
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
    for u, v, mapping in diagram.actual_maps():
        for x in diagram.preorders[u].elements:
            if cocone[v][mapping[x]] != cocone[u][x]:
                return VerifyResult(
                    False,
                    "cocone does not commute",
                    {"from": u, "to": v, "at": x},
                )

    cand_rows = candidate.rows
    cand_idx = {x: i for i, x in enumerate(candidate.elements)}
    covered: dict[int, list[tuple[str, str]]] = {i: [] for i in range(len(candidate))}
    for v in diagram.vertices:
        for x in diagram.preorders[v].elements:
            covered[cand_idx[cocone[v][x]]].append((v, x))
    free = [i for i, srcs in covered.items() if not srcs]

    vertex_order = list(diagram.vertices)
    arrow_list = list(diagram.actual_maps())

    # (b) quantify over small test preorders up to isomorphism
    for q in range(qmax + 1):
        for q_rows in _preorders_on(q):
            per_vertex = [
                _reflecting_maps_to(diagram.preorders[v], q_rows) for v in vertex_order
            ]
            if any(not maps and len(diagram.preorders[v]) > 0
                   for v, maps in zip(vertex_order, per_vertex)):
                continue
            elem_pos = {
                v: {x: t for t, x in enumerate(diagram.preorders[v].elements)}
                for v in vertex_order
            }
            vpos = {v: i for i, v in enumerate(vertex_order)}
            for family in itertools.product(*per_vertex):
                ok = True
                for u, v, mapping in arrow_list:
                    fu = family[vpos[u]]
                    fv = family[vpos[v]]
                    for x in diagram.preorders[u].elements:
                        if fv[elem_pos[v][mapping[x]]] != fu[elem_pos[u][x]]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                # factorization h is forced on covered candidate elements
                h = [-1] * len(candidate)
                consistent = True
                for ci, srcs in covered.items():
                    for v, x in srcs:
                        val = family[vpos[v]][elem_pos[v][x]]
                        if h[ci] == -1:
                            h[ci] = val
                        elif h[ci] != val:
                            consistent = False
                            break
                    if not consistent:
                        break
                if not consistent:
                    return VerifyResult(
                        False,
                        "cocone has no factorization (forced values conflict)",
                        {"q_size": q, "q_rows": list(q_rows)},
                    )

                def reflecting(hvec: list[int]) -> bool:
                    for i in range(len(candidate)):
                        for j in range(len(candidate)):
                            if (q_rows[hvec[i]] >> hvec[j] & 1) and not (
                                cand_rows[i] >> j & 1
                            ):
                                return False
                    return True

                count = 0
                if free:
                    for choice in itertools.product(range(q), repeat=len(free)):
                        for slot, val in zip(free, choice):
                            h[slot] = val
                        if reflecting(h):
                            count += 1
                            if count > 1:
                                break
                else:
                    if reflecting(h):
                        count = 1
                if count != 1:
                    return VerifyResult(
                        False,
                        "cocone does not factor uniquely"
                        if count > 1
                        else "cocone has no order-reflecting factorization",
                        {
                            "q_size": q,
                            "q_rows": list(q_rows),
                            "cocone": {
                                v: {
                                    x: family[vpos[v]][elem_pos[v][x]]
                                    for x in diagram.preorders[v].elements
                                }
                                for v in vertex_order
                            },
                            "solutions": count,
                        },
                    )
    return VerifyResult(True)
