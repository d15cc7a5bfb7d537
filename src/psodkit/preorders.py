"""Finite preorders, order-reflecting maps, and their (co)limit constructions.

The carrier type stores a reflexive relation over labelled elements as one row
bitmask per element.
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
from collections import Counter
from functools import cache, cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError, InputError, PreconditionError
from .records import record

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


# ---------------------------------------------------------------------------
# carriers


@record
class FinitePreorder:
    """A finite labelled carrier with a reflexive relation stored as row
    bitmasks: bit ``j`` of ``rows[i]`` is set when ``elements[i] <= elements[j]``.
    """

    elements: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise InputError("element labels must be pairwise distinct")
        if len(self.rows) != n or any(r >> n for r in self.rows):
            raise InputError(
                "relation must have one row per element, with no bit at or above "
                "the element count"
            )
        for i, r in enumerate(self.rows):
            if not r >> i & 1:
                raise InputError(f"relation not reflexive at {self.elements[i]!r}")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"no element labelled {label!r}") from None

    def le(self, x: str, y: str) -> bool:
        return bool(self.rows[self.index(x)] >> self.index(y) & 1)

    def columns(self) -> list[int]:
        """Column bitmasks: bit ``i`` of ``columns()[j]`` is bit ``j`` of ``rows[i]``."""
        return _columns(self.rows)

    @cached_property
    def is_transitive(self) -> bool:
        return not self.transitivity_violations(limit=1)

    def transitivity_violations(self, limit: int = 0) -> list[tuple[str, str, str]]:
        """Triples (x, y, z) with x<=y<=z but not x<=z; at most ``limit`` if set."""
        out: list[tuple[str, str, str]] = []
        e = self.elements
        for i, r in enumerate(self.rows):
            for j in _bits(r):
                for k in _bits(self.rows[j] & ~r):
                    out.append((e[i], e[j], e[k]))
                    if limit and len(out) >= limit:
                        return out
        return out

    def restrict(self, labels: Sequence[str]) -> "FinitePreorder":
        idx = [self.index(x) for x in labels]
        gather = _gather(idx, len(self))
        return FinitePreorder(tuple(labels), tuple(gather(self.rows[i]) for i in idx))


def _columns(rows: Sequence[int]) -> list[int]:
    """Transpose of square row bitmasks: bit i of column j is bit j of row i."""
    n = len(rows)
    # bits[i][j] is bit j of rows[i]; zip(*bits) walks the columns
    bits = [format(r, f"0{n}b")[::-1] for r in rows]
    return [int("".join(col)[::-1], 2) for col in zip(*bits)]


def _gather(positions: Sequence[int], n: int) -> Callable[[int], int]:
    """The map from an ``n``-bit mask to the mask whose bit a is its bit
    ``positions[a]``."""
    if not positions:
        return lambda mask: 0
    # read the positions highest first from the mask's bits, lowest first
    pick = itemgetter(*reversed(positions))
    return lambda mask: int("".join(pick(format(mask, f"0{n}b")[::-1])), 2)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complete_preorder(labels: Sequence[str]) -> FinitePreorder:
    """All pairs related: the free object over a set for reflecting maps out."""
    labels = tuple(labels)
    return FinitePreorder(labels, ((1 << len(labels)) - 1,) * len(labels))


def discrete_preorder(labels: Sequence[str]) -> FinitePreorder:
    """Only the diagonal related."""
    labels = tuple(labels)
    return FinitePreorder(labels, tuple(1 << i for i in range(len(labels))))


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
            for j in _bits(rows[i]):
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return rows


def generated_preorder(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> FinitePreorder:
    """Reflexive-transitive closure of the given generating pairs."""
    return FinitePreorder(tuple(elements), tuple(_closure_masks(elements, pairs)))


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
    """The first pair (x, y), x-major in source order, with comparable images
    and unrelated sources.  As in a pairwise scan, an image outside the target
    raises within the first row, after any witness that row holds first."""
    img = [target._index.get(mapping[x]) for x in source.elements]
    n = len(img)
    known = img.index(None) if None in img else n
    gather = _gather(img[:known], len(target))
    for i in range(n if known == n else min(known, 1)):
        bad = gather(target.rows[img[i]]) & ~source.rows[i]
        if bad:
            return source.elements[i], source.elements[next(_bits(bad))]
    if known < n:
        target.index(mapping[source.elements[known]])
    return None


@record
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

    def fiber(self, label: str) -> tuple[str, ...]:
        return tuple(x for x in self.source.elements if self.mapping[x] == label)


def identity_map(p: FinitePreorder) -> OrderReflectingMap:
    return OrderReflectingMap(p, p, {x: x for x in p.elements})


# ---------------------------------------------------------------------------
# diagrams


@record
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


@record
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

    def identifications(self) -> Iterator[tuple[tuple[str, str], tuple[str, str]]]:
        """Yield ((u, x), (v, f(x))) for every carrier function f: P_u -> P_v
        of an arrow and every x in P_u: the pairs a cocone must identify."""
        for u, v, mapping in self.actual_maps():
            for x in self.preorders[u].elements:
                yield (u, x), (v, mapping[x])


# ---------------------------------------------------------------------------
# colimits


@record
class ColimitResult:
    preorder: FinitePreorder
    cocones: Mapping[str, OrderReflectingMap]


def _classes(nodes: Sequence, pairs: Iterable[tuple]) -> list[tuple]:
    """The classes of the equivalence on ``nodes`` that ``pairs`` generate,
    by union-find with path halving: classes ordered by their first member
    in node order, members in node order (a dict keeps the order in which
    classes first appear)."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for x in nodes:
        groups.setdefault(find(x), []).append(x)
    return [tuple(g) for g in groups.values()]


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
        cls = [cls_of[(v, x)] for x in p.elements]
        preim = [0] * m
        for t, c in enumerate(cls):
            preim[c] |= 1 << t
        everything = (1 << len(p)) - 1
        for i in range(m):
            common = everything
            for x in _bits(preim[i]):
                # the cocone into the quotient can only be order-reflecting if
                # each class meets every part in a complete fiber; zigzag
                # identifications can break this, and then no object satisfies
                # the stated rule
                bad = preim[i] & ~p.rows[x]
                if bad:
                    raise PreconditionError(
                        f"elements {p.elements[x]!r} and {p.elements[next(_bits(bad))]!r} "
                        f"of part {v!r} are identified but not mutually related; the "
                        "gluing admits no order-reflecting cocone"
                    )
                common &= p.rows[x]
            for t in _bits(everything & ~common):
                rows[i] &= ~(1 << cls[t])
    carrier = FinitePreorder(tuple(labels), tuple(rows))
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
    full = (1 << len(elements)) - 1
    rows: list[int] = []
    for p in parts:
        o = len(rows)
        outside = full & ~(((1 << len(p)) - 1) << o)
        rows.extend(outside | r << o for r in p.rows)
    out = FinitePreorder(tuple(elements), tuple(rows))
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
    carrier, raw = _quotient_preorder(
        diagram.preorders, diagram.vertices, diagram.identifications()
    )
    cocones = {
        v: OrderReflectingMap(diagram.preorders[v], carrier, raw[v])
        for v in diagram.vertices
    }
    return ColimitResult(carrier, cocones)


# ---------------------------------------------------------------------------
# directedness


@record
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
    mask = (1 << n) - 1
    order: list[int] = []
    while remaining:
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
        mask ^= 1 << pick
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
    union, _ = coproduct([diagram.preorders[v] for v in diagram.vertices])
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
