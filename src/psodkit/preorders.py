"""Finite preorders, order-reflecting maps, diagrams of them, and directedness.

The carrier type stores a reflexive relation over labelled elements as one row
bitmask per element.  Transitivity is *checked*, not enforced: the disjoint-union and
gluing rules of ``colimits`` can produce genuinely non-transitive comparability patterns
(two classes with no common preimages become vacuously mutually related), and the
index relations built downstream inherit that.  ``FinitePreorder.is_transitive``
reports the status; constructions that guarantee transitivity assert it in tests.

A map ``phi`` between carriers is *order-reflecting* when
``phi(x) <= phi(y)`` in the target implies ``x <= y`` in the source.
Colimits, the coproduct's disjoint union among them, are in ``colimits``;
the universal-property check is in ``verify``.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InputError, PreconditionError
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
    ``positions[a]``; position ``n`` is padding and reads 0."""
    if not positions:
        return lambda mask: 0
    if list(positions) == list(range(n)):
        return lambda mask: mask
    # the positions, highest first, read from the bits lowest first after a padding 0
    pick = itemgetter(*reversed(positions))
    return lambda mask: int("".join(pick(format(mask, f"0{n + 1}b")[::-1])), 2)


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

