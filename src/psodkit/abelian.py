"""Exact integer linear algebra and finitely generated abelian groups.

The row Hermite normal form over arbitrary-precision integers is the one
elimination routine; the Smith normal form alternates it on rows and
columns.  Groups are carried as invariant factors, and their relations as
the orders of their generators, so the limit of the groups over each fiber
of a graded gluing takes two kernels and a Smith normal form.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError, InvariantError
from .preorders import (
    ColimitResult,
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
)
from .records import record


# ---------------------------------------------------------------------------
# matrices


@record
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise InputError("entry grid does not match the stated dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix dimensions do not compose")
        out = [
            [
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return IntMatrix.from_rows(out, other.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )


# ---------------------------------------------------------------------------
# normal forms


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: U * a = H with U unimodular, H in row echelon
    with positive pivots and entries above a pivot reduced into [0, pivot).
    Pivot choice: smallest nonzero absolute value, lowest row index on ties.
    """
    m = [list(r) for r in a.entries]
    u = [[int(i == j) for j in range(a.rows)] for i in range(a.rows)]
    row = 0
    for col in range(a.cols):
        while True:
            live = [i for i in range(row, a.rows) if m[i][col] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: (abs(m[i][col]), i))
            if pivot != row:
                m[row], m[pivot] = m[pivot], m[row]
                u[row], u[pivot] = u[pivot], u[row]
            if len(live) == 1:
                break
            p = m[row][col]
            for i in range(row + 1, a.rows):
                if m[i][col] != 0:
                    q = m[i][col] // p
                    for j in range(a.cols):
                        m[i][j] -= q * m[row][j]
                    for j in range(a.rows):
                        u[i][j] -= q * u[row][j]
        if row < a.rows and m[row][col] != 0:
            if m[row][col] < 0:
                m[row] = [-x for x in m[row]]
                u[row] = [-x for x in u[row]]
            p = m[row][col]
            for i in range(row):
                q = m[i][col] // p
                if q:
                    for j in range(a.cols):
                        m[i][j] -= q * m[row][j]
                    for j in range(a.rows):
                        u[i][j] -= q * u[row][j]
            row += 1
            if row == a.rows:
                break
    return IntMatrix.from_rows(m, a.cols), IntMatrix.from_rows(u, a.rows)


def kernel(a: IntMatrix) -> IntMatrix:
    """A lattice basis (columns) of the integer kernel {x : a x = 0}."""
    h, u = hnf(a.transpose())
    basis = [u.entries[i] for i in range(h.rows) if all(x == 0 for x in h.entries[i])]
    return IntMatrix(
        a.cols, len(basis), tuple(tuple(b[i] for b in basis) for i in range(a.cols))
    )


def snf(a: IntMatrix) -> IntMatrix:
    """Smith normal form: the diagonal S = U * a * V, for some unimodular U
    and V, with d_1 | d_2 | ..., the nonzero d_i positive and the zeros last.

    Row Hermite forms of m and of its transpose alternate until m is
    diagonal (Kannan and Bachem, SIAM J. Comput. 1979).  Each half-step puts
    the gcd of the leading column (or row) at the leading entry, so that
    entry shrinks strictly until it divides its whole row and column, which
    are then cleared; the trailing block follows the same way.  A diagonal
    in Hermite form has its zeros last.  If d_i misses a later d_j, every
    later column is added to column i: the next half-step puts the gcd of
    d_i, d_i+1, ... at (i, i), which divides the whole trailing block from
    then on while the entries before it stay, so each i needs this once.

    >>> snf(IntMatrix.from_rows([[2, 0], [0, 3]])).entries
    ((1, 0), (0, 6))
    """
    m = a
    while True:
        m = hnf(m)[0]
        m = hnf(m.transpose())[0].transpose()
        e = m.entries
        if any(e[i][j] for i in range(m.rows) for j in range(m.cols) if i != j):
            continue
        d = [e[i][i] for i in range(min(m.rows, m.cols))]
        i = next((i for i, di in enumerate(d) if di and any(dj % di for dj in d[i + 1 :])), None)
        if i is None:
            return m
        m = IntMatrix(m.rows, m.cols, tuple(r[:i] + (sum(r[i:]),) + r[i + 1 :] for r in e))


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    s = snf(a).entries
    return tuple(s[i][i] for i in range(min(a.rows, a.cols)) if s[i][i] != 0)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers >= 2 such that every value is a product of
    their powers: factor refinement by gcd and exact division, no factoring
    (Bach, Driscoll and Shallit, J. Algorithms 1993).  Each split divides
    the product of the base and the pending values by a gcd > 1, so at most
    log2 of the values' product splits happen."""
    base: list[int] = []
    for x in values:
        pending = [x]
        while pending:
            y = pending.pop()
            if y == 1:
                continue
            for k, b in enumerate(base):
                g = math.gcd(b, y)
                if g > 1:
                    del base[k]
                    pending += (b // g, g, y // g)
                    break
            else:
                base.append(y)
    return base


def _invariant_chain(counts: Mapping[int, int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the direct sum of counts[d]
    copies of C_d (every d >= 2).  Over a coprime base each C_d splits into
    the C_{b^e} with e the exponent of b in d; the j-th largest invariant
    factor is the product of b ** (j-th largest exponent of b)."""
    base = _coprime_base(counts)
    # per base element: how many summands carry each exponent
    exponents: list[dict[int, int]] = [{} for _ in base]
    for d, m in counts.items():
        for b, seen in zip(base, exponents):
            e = 0
            while d % b == 0:
                d //= b
                e += 1
            if e:
                seen[e] = seen.get(e, 0) + m
    # each base element's exponents, largest first, as (end position, exponent)
    runs = []
    for seen in exponents:
        end = 0
        steps = []
        for e in sorted(seen, reverse=True):
            end += seen[e]
            steps.append((end, e))
        runs.append(steps)
    # the factor is constant between consecutive ends of any run
    chain: list[int] = []
    start = 0
    for end in sorted({end for steps in runs for end, _ in steps}):
        d = 1
        for b, steps in zip(base, runs):
            e = next((e for stop, e in steps if stop > start), 0)
            d *= b**e
        chain += [d] * (end - start)
        start = end
    chain.reverse()
    return tuple(chain)


@record
class FgAbGroup:
    """Z^rank plus cyclic torsion with d_1 | d_2 | ... and every d_i >= 2.

    Sums and multiples need no matrix: the torsion of a direct sum is
    counted once per distinct invariant and merged over a coprime base of
    those values, so its cost grows with the number of distinct invariants
    and with the base, not with their multiplicity; ``multiple(m)`` repeats
    each invariant m times in place.  Only the final ``torsion`` tuple is
    linear in the number of summands.

    >>> str(FgAbGroup.from_invariants([0, 2, 3]))
    'Z + C6'
    >>> str(FgAbGroup(1, (2,)).direct_sum(FgAbGroup(0, (4,))))
    'Z + C2 + C4'
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InputError("rank must be non-negative")
        for d in self.torsion:
            if d < 2:
                raise InputError("torsion invariants must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise InputError("torsion invariants must form a divisibility chain")

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def from_invariants(cls, invariants: Iterable[int]) -> "FgAbGroup":
        """Build from unsorted cyclic orders (0 = Z, 1 = trivial summand)."""
        orders = [abs(int(d)) for d in invariants]
        return cls(orders.count(0), _invariant_chain(Counter(d for d in orders if d > 1)))

    @property
    def ngens(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def orders(self) -> tuple[int, ...]:
        """The orders of the canonical generators, free ones first as 0: the
        group is Z^ngens modulo the diagonal relations orders[i] * e_i."""
        return (0,) * self.rank + self.torsion

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        groups = (self,) + others
        counts = Counter(d for g in groups for d in g.torsion)
        return FgAbGroup(sum(g.rank for g in groups), _invariant_chain(counts))

    def multiple(self, copies: int) -> "FgAbGroup":
        """G^copies: each invariant of G repeated in place keeps the chain."""
        if copies < 0:
            raise InputError("copies must be non-negative")
        return FgAbGroup(
            self.rank * copies, tuple(d for d in self.torsion for _ in range(copies))
        )

    def __str__(self) -> str:
        free = ["Z" if self.rank == 1 else f"Z^{self.rank}"] if self.rank else []
        parts = free + [f"C{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def group_from_presentation(ngens: int, relations: IntMatrix) -> FgAbGroup:
    """The quotient of Z^ngens by the column lattice of ``relations``."""
    if relations.rows != ngens:
        raise InputError("relation matrix must have one row per generator")
    factors = invariant_factors(relations)
    return FgAbGroup.from_invariants([0] * (ngens - len(factors)) + list(factors))


def is_valid_hom(src: FgAbGroup, dst: FgAbGroup, matrix: IntMatrix) -> bool:
    """A generator matrix defines a homomorphism iff it maps the source
    relations into the target relation lattice.  Both presentations are
    diagonal: the relation of a source generator of order d is d times its
    column, and the target lattice is 0 on a free row and o Z on a row of
    order o, so membership is a divisibility test per entry.

    >>> c2, c4 = FgAbGroup(0, (2,)), FgAbGroup(0, (4,))
    >>> is_valid_hom(c2, c4, IntMatrix.from_rows([[2]]))
    True
    >>> is_valid_hom(c2, c4, IntMatrix.from_rows([[1]]))
    False
    """
    if matrix.rows != dst.ngens or matrix.cols != src.ngens:
        return False
    return all(
        x * d % o == 0 if o else x == 0
        for d, col in zip(src.orders, zip(*matrix.entries))
        if d
        for o, x in zip(dst.orders, col)
    )


# ---------------------------------------------------------------------------
# limits over a fiber


def _diagonal_relations(orders: Sequence[int]) -> list[list[int]]:
    """Rows of the relation matrix of Z^len(orders) modulo orders[i] * e_i:
    one column per nonzero order."""
    live = [p for p, o in enumerate(orders) if o]
    return [[o * (i == p) for p in live] for i, o in enumerate(orders)]


def _kernel_x_part(rows: Sequence[Sequence[int]], orders: Sequence[int], width: int) -> IntMatrix:
    """The first ``width`` rows of a kernel basis of [a | R]: ``rows`` are
    the rows of a (``width`` columns), R the diagonal relations of
    ``orders``, one order per row of a."""
    rel = _diagonal_relations(orders)
    cols = width + sum(map(bool, orders))
    ker = kernel(IntMatrix.from_rows([[*x, *y] for x, y in zip(rows, rel)], cols))
    return IntMatrix(width, ker.cols, ker.entries[:width])


def _limit_on_presentations(
    order: Sequence[str],
    orders: Mapping[str, Sequence[int]],
    arrows: Sequence[tuple[str, str, IntMatrix]],
) -> FgAbGroup:
    """Limit of groups given by their generator orders (0 for a free
    generator): x over the product lies in the limit iff every arrow defect
    M_a x_src - x_tgt falls in the target relation lattice.  Two kernels
    give it.

    The solutions are the x-parts of the kernel of [phi | Rt], phi the
    stacked defects and Rt the target relations.  Every presentation is
    diagonal with nonzero entries, so Rt has independent columns: x = 0
    forces y = 0, projecting the kernel onto x is injective, and the x-part
    B of a kernel basis is already a basis of the solution lattice.  The
    product relations R lie in that lattice, R = B X for one integer X, and
    B has independent columns, so the kernel of [B | R] is {(-X y, y)}: its
    x-part is X up to a unimodular change of basis and presents the limit.

    >>> one, two, three = (IntMatrix.from_rows([[k]]) for k in (1, 2, 3))
    >>> str(_limit_on_presentations("ab", {"a": [0], "b": [2]}, [("a", "b", one)]))
    'Z'
    >>> free = {"a": [0], "b": [0]}
    >>> str(_limit_on_presentations("ab", free, [("a", "b", two), ("a", "b", three)]))
    '0'
    >>> str(_limit_on_presentations("ab", {"a": [0, 2], "b": [4]}, []))
    'Z + C2 + C4'
    """
    offs: dict[str, int] = {}
    n = 0
    for v in order:
        offs[v], n = n, n + len(orders[v])
    defect_rows: list[list[int]] = []
    defect_orders: list[int] = []
    for src, tgt, m in arrows:
        for i, o in enumerate(orders[tgt]):
            row = [0] * n
            row[offs[src] : offs[src] + len(orders[src])] = m.entries[i]
            row[offs[tgt] + i] -= 1
            defect_rows.append(row)
            defect_orders.append(o)
    basis = _kernel_x_part(defect_rows, defect_orders, n)
    flat = [o for v in order for o in orders[v]]
    return group_from_presentation(basis.cols, _kernel_x_part(basis.entries, flat, basis.cols))


# ---------------------------------------------------------------------------
# graded groups and graded homs


@record
class GradedGroup:
    """A finitely generated abelian group graded by a finite preorder."""

    index: FinitePreorder
    pieces: Mapping[str, FgAbGroup]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", dict(self.pieces))
        if set(self.pieces) != set(self.index.elements):
            raise InputError("every index element needs a piece (zero allowed)")

    def total(self) -> FgAbGroup:
        return FgAbGroup.zero().direct_sum(*(self.pieces[x] for x in self.index.elements))


@record
class GradedHom:
    """A graded map whose blocks land exactly in the fibers of ``reindex``
    (an order-reflecting map from the target index to the source index)."""

    source: GradedGroup
    target: GradedGroup
    reindex: OrderReflectingMap
    blocks: Mapping[tuple[str, str], IntMatrix]  # (source grade x, target grade y)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", dict(self.blocks))
        if self.reindex.source != self.target.index or self.reindex.target != self.source.index:
            raise InputError("reindex must map the target index to the source index")
        for (x, y), m in self.blocks.items():
            if self.reindex(y) != x:
                raise InputError(
                    f"block ({x!r} -> {y!r}) violates fiber support: "
                    f"reindex({y!r}) = {self.reindex(y)!r}"
                )
            ps, pt = self.source.pieces[x], self.target.pieces[y]
            if m.rows != pt.ngens or m.cols != ps.ngens:
                raise InputError(f"block ({x!r} -> {y!r}) has wrong shape")
            if not is_valid_hom(ps, pt, m):
                raise InputError(f"block ({x!r} -> {y!r}) is not a homomorphism")


def identity_graded_hom(g: GradedGroup, reindex: OrderReflectingMap) -> GradedHom:
    """Identity blocks along a reindexing between equal carriers."""
    blocks = {}
    for y in g.index.elements:
        x = reindex(y)
        blocks[(x, y)] = IntMatrix.identity(g.pieces[y].ngens)
    return GradedHom(g, g, reindex, blocks)


@record
class GradedLimitResult:
    graded: GradedGroup
    ungraded: FgAbGroup


def _certify_fiber_support(
    diagram: PreorderDiagram,
    homs: Mapping[str, GradedHom],
    cocones: Mapping[str, OrderReflectingMap],
) -> None:
    """Check that every block of every arrow sits at (reindex(y), y) and
    runs inside one cocone fiber: cocones[src](reindex(y)) == cocones[tgt](y).
    GradedHom's constructor places the blocks, and the checked cocones commute
    with the reindex maps, so this holds unless a block got past them."""
    for a in diagram.arrows:
        hom, src_cocone, tgt_cocone = homs[a.name], cocones[a.src], cocones[a.tgt]
        for x, y in hom.blocks:
            r = hom.reindex(y)
            over_x, over_y = src_cocone(x), tgt_cocone(y)
            if x != r or over_x != over_y:
                raise InvariantError(
                    f"arrow {a.name!r}: block ({x!r} -> {y!r}) leaves its fiber: "
                    f"reindex({y!r}) = {r!r}, "
                    f"{x!r} lies over {over_x!r}, {y!r} over {over_y!r}",
                    {
                        "arrow": a.name,
                        "source_grade": x,
                        "target_grade": y,
                        "reindex": r,
                        "source_fiber": over_x,
                        "target_fiber": over_y,
                    },
                )


def graded_limit(
    diagram: PreorderDiagram,
    groups: Mapping[str, GradedGroup],
    homs: Mapping[str, GradedHom],
    col: ColimitResult,
) -> GradedLimitResult:
    """Limit of graded groups over ``diagram``, graded over ``col``, its
    colimit: ``groups[v]`` is graded by ``diagram.preorders[v]`` and
    ``homs[a.name]`` maps ``groups[a.src]`` to ``groups[a.tgt]``, or
    InputError is raised.  In ``glue`` every arrow is contravariant and its
    map is the hom's reindex map (``GluingScenario`` checks the given graded
    homs, ``glue`` builds identity blocks along the arrow's map).

    The piece at w is the limit of the fiber-restricted diagram (the direct
    sum over the cocone fiber of w at each vertex).  The ungraded limit is
    the direct sum of the pieces, certified rather than recomputed:
    ``_certify_fiber_support`` checks that every block runs inside one
    fiber, so the total diagram is the direct sum of the fiber diagrams up
    to a permutation of generators, and limits of abelian groups commute
    with finite direct sums.  A block outside its fiber raises
    InvariantError.
    """
    if set(groups) != set(diagram.vertices):
        raise InputError("exactly one graded group per vertex required")
    for v in diagram.vertices:
        if groups[v].index != diagram.preorders[v]:
            raise InputError(f"vertex {v!r}: graded index differs from the diagram")
    if set(homs) != {a.name for a in diagram.arrows}:
        raise InputError("exactly one graded hom per arrow required")
    for a in diagram.arrows:
        if homs[a.name].source != groups[a.src]:
            raise InputError(f"arrow {a.name!r} source mismatch")
        if homs[a.name].target != groups[a.tgt]:
            raise InputError(f"arrow {a.name!r} target mismatch")
    colimit_index, cocones = col.preorder, col.cocones
    _certify_fiber_support(diagram, homs, cocones)
    # one pass over the cocones: the generator orders of the fiber sum over
    # each w at each vertex, and each grade's generator offset inside it
    orders = {w: {v: [] for v in diagram.vertices} for w in colimit_index.elements}
    offset: dict[str, dict[str, int]] = {v: {} for v in diagram.vertices}
    for v in diagram.vertices:
        g = groups[v]
        for z in g.index.elements:
            fiber = orders[cocones[v](z)][v]
            offset[v][z] = len(fiber)
            fiber += g.pieces[z].orders
    # the fiber sums keep the grades' own generators, so the block at
    # (reindex(y), y) is copied literally into the fiber of y
    restricted: dict[str, list[tuple[str, str, IntMatrix]]] = {
        w: [] for w in colimit_index.elements
    }
    for a in diagram.arrows:
        hom, tgt_cocone = homs[a.name], cocones[a.tgt]
        out = {
            w: [[0] * len(orders[w][a.src]) for _ in orders[w][a.tgt]]
            for w in colimit_index.elements
        }
        for y in groups[a.tgt].index.elements:
            x = hom.reindex(y)
            b = hom.blocks.get((x, y))
            if b is not None:
                rows = out[tgt_cocone(y)]
                r0, c0 = offset[a.tgt][y], offset[a.src][x]
                for i, row in enumerate(b.entries):
                    rows[r0 + i][c0 : c0 + b.cols] = row
        for w, rows in out.items():
            restricted[w].append((a.src, a.tgt, IntMatrix.from_rows(rows, len(orders[w][a.src]))))
    pieces = {
        w: _limit_on_presentations(diagram.vertices, orders[w], restricted[w])
        for w in colimit_index.elements
    }
    return GradedLimitResult(
        GradedGroup(colimit_index, pieces), FgAbGroup.zero().direct_sum(*pieces.values())
    )
