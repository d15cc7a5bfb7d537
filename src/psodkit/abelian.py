"""Exact integer linear algebra, and graded groups with their limits.

A matrix is a sequence of integer rows.  The row Hermite normal form over
arbitrary-precision integers is the one elimination routine; the Smith
normal form alternates it on rows and columns.  Groups (``groups``) are
carried as invariant factors, and their relations as the orders of their
generators, so the limit of the groups over each fiber of a graded gluing
takes two kernels and a Smith normal form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import InputError, InvariantError, PreconditionError
from .groups import FgAbGroup
from .preorders import CONTRAVARIANT
from .records import record

if TYPE_CHECKING:
    from .colimits import ColimitResult
    from .preorders import DiagramArrow, FinitePreorder, PreorderDiagram

Rows = Sequence[Sequence[int]]


# ---------------------------------------------------------------------------
# normal forms


def _transpose(a: Rows, cols: int) -> list[list[int]]:
    """The rows of the transpose of ``a``, a matrix with ``cols`` columns."""
    return [list(c) for c in zip(*a)] if a else [[] for _ in range(cols)]


def hnf(a: Rows) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form: U * a = H with U unimodular, H in row echelon
    with positive pivots and entries above a pivot reduced into [0, pivot).
    Pivot choice: smallest nonzero absolute value, lowest row index on ties.
    Returns the rows of H and of U.
    """
    m = [list(r) for r in a]
    nrows, ncols = len(m), len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    row = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(row, nrows) if m[i][col] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: (abs(m[i][col]), i))
            if pivot != row:
                m[row], m[pivot] = m[pivot], m[row]
                u[row], u[pivot] = u[pivot], u[row]
            if len(live) == 1:
                break
            p = m[row][col]
            for i in range(row + 1, nrows):
                if m[i][col] != 0:
                    q = m[i][col] // p
                    m[i] = [x - q * y for x, y in zip(m[i], m[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
        if row < nrows and m[row][col] != 0:
            if m[row][col] < 0:
                m[row] = [-x for x in m[row]]
                u[row] = [-x for x in u[row]]
            p = m[row][col]
            for i in range(row):
                q = m[i][col] // p
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
            row += 1
            if row == nrows:
                break
    return m, u


def kernel(a: Rows, cols: int) -> list[list[int]]:
    """A lattice basis of the integer kernel {x in Z^cols : a x = 0}, as a
    list of vectors: the rows of the row transform of the transpose's HNF
    that it sends to zero."""
    h, u = hnf(_transpose(a, cols))
    return [u[i] for i, r in enumerate(h) if not any(r)]


@record
class IntMatrix:
    """The matrix ``snf`` reads: its rows and its shape.  The benchmark's
    traced pass (``clibench/traced_cli.py``) sizes each ``snf`` call by its
    argument's ``rows * cols``, so ``snf`` keeps this record."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        e = self.entries
        if self.cols < 0 or len(e) != self.rows or any(len(r) != self.cols for r in e):
            raise InputError("entry grid does not match the stated dimensions")


def snf(a: IntMatrix) -> list[int]:
    """Smith normal form: the diagonal of S = U * a * V, for some unimodular
    U and V, with d_1 | d_2 | ..., the nonzero d_i positive and the zeros last.

    Row Hermite forms of m and of its transpose alternate until m is
    diagonal (Kannan and Bachem, SIAM J. Comput. 1979).  Each half-step puts
    the gcd of the leading column (or row) at the leading entry, so that
    entry shrinks strictly until it divides its whole row and column, which
    are then cleared; the trailing block follows the same way.  A diagonal
    in Hermite form has its zeros last.  If d_i misses a later d_j, every
    later column is added to column i: the next half-step puts the gcd of
    d_i, d_i+1, ... at (i, i), which divides the whole trailing block from
    then on while the entries before it stay, so each i needs this once.

    >>> snf(IntMatrix(2, 2, ((2, 0), (0, 3))))
    [1, 6]
    """
    m: list[list[int]] = [list(r) for r in a.entries]
    while True:
        m = hnf(m)[0]
        m = _transpose(hnf(_transpose(m, a.cols))[0], a.rows)
        if any(x for i, r in enumerate(m) for j, x in enumerate(r) if i != j):
            continue
        d = [m[i][i] for i in range(min(a.rows, a.cols))]
        i = next((i for i, di in enumerate(d) if di and any(dj % di for dj in d[i + 1 :])), None)
        if i is None:
            return d
        for r in m:
            r[i] = sum(r[i:])


def group_from_presentation(ngens: int, relations: Rows) -> FgAbGroup:
    """The quotient of Z^ngens by the column lattice of ``relations``, one
    row per generator."""
    if len(relations) != ngens:
        raise InputError("relation matrix must have one row per generator")
    cols = len(relations[0]) if relations else 0
    factors = [d for d in snf(IntMatrix(ngens, cols, tuple(map(tuple, relations)))) if d]
    return FgAbGroup.from_invariants([0] * (ngens - len(factors)) + factors)


def is_valid_hom(src: FgAbGroup, dst: FgAbGroup, matrix: Rows) -> bool:
    """A generator matrix defines a homomorphism iff it maps the source
    relations into the target relation lattice.  Both presentations are
    diagonal: the relation of a source generator of order d is d times its
    column, and the target lattice is 0 on a free row and o Z on a row of
    order o, so membership is a divisibility test per entry.

    >>> c2, c4 = FgAbGroup(0, (2,)), FgAbGroup(0, (4,))
    >>> is_valid_hom(c2, c4, [[2]])
    True
    >>> is_valid_hom(c2, c4, [[1]])
    False
    """
    if len(matrix) != dst.ngens or any(len(r) != src.ngens for r in matrix):
        return False
    return all(
        x * d % o == 0 if o else x == 0
        for d, col in zip(src.orders, zip(*matrix))
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


def _kernel_x_part(rows: Rows, orders: Sequence[int], width: int) -> list[list[int]]:
    """The first ``width`` rows of a kernel basis of [a | R], one basis
    vector per column: ``rows`` are the rows of a (``width`` columns), R the
    diagonal relations of ``orders``, one order per row of a."""
    rel = _diagonal_relations(orders)
    ker = kernel([[*x, *y] for x, y in zip(rows, rel)], width + sum(map(bool, orders)))
    return [[v[i] for v in ker] for i in range(width)]


def _limit_on_presentations(
    order: Sequence[str],
    orders: Mapping[str, Sequence[int]],
    arrows: Sequence[tuple[str, str, Rows]],
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

    >>> one, two, three = [[1]], [[2]], [[3]]
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
    defect_rows, defect_orders = [], []
    for src, tgt, m in arrows:
        for i, o in enumerate(orders[tgt]):
            row = [0] * n
            row[offs[src] : offs[src] + len(orders[src])] = m[i]
            row[offs[tgt] + i] -= 1
            defect_rows.append(row)
            defect_orders.append(o)
    basis = _kernel_x_part(defect_rows, defect_orders, n)
    k = len(basis[0]) if basis else 0
    flat = [o for v in order for o in orders[v]]
    return group_from_presentation(k, _kernel_x_part(basis, flat, k))


# ---------------------------------------------------------------------------
# graded groups and their limits


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


def _certify_fiber_support(
    diagram: PreorderDiagram,
    blocks: Mapping[str, Mapping[tuple[str, str], Rows]],
    cocones: Mapping[str, Mapping[str, str]],
) -> None:
    """Check that every block, placed at (map(y), y) by ``graded_limit``,
    runs inside one cocone fiber: cocones[src][map[y]] == cocones[tgt][y].
    The cocones of the diagram's colimit commute with the arrows' maps, so
    this holds unless ``col`` is not that colimit."""
    for a in diagram.arrows:
        src_cocone, tgt_cocone = cocones[a.src], cocones[a.tgt]
        for x, y in blocks[a.name]:
            over_x, over_y = src_cocone[x], tgt_cocone[y]
            if over_x != over_y:
                raise InvariantError(
                    f"arrow {a.name!r}: block ({x!r} -> {y!r}) leaves its fiber: "
                    f"reindex({y!r}) = {x!r}, "
                    f"{x!r} lies over {over_x!r}, {y!r} over {over_y!r}",
                    {
                        "arrow": a.name,
                        "source_grade": x,
                        "target_grade": y,
                        "reindex": x,
                        "source_fiber": over_x,
                        "target_fiber": over_y,
                    },
                )


def _checked_blocks(
    a: DiagramArrow, src: GradedGroup, tgt: GradedGroup, given: Mapping | None
) -> dict[tuple[str, str], Rows]:
    """The blocks of arrow ``a``, each checked to sit at (map(y), y) and to
    be a homomorphism between the pieces there; with none given, identity
    blocks along the map, which need equal graded groups at both ends."""
    if a.orientation != CONTRAVARIANT:
        raise InputError(
            f"arrow {a.name!r}: graded data follows the contravariant index-map convention"
        )
    if given is None:
        if src != tgt:
            raise PreconditionError(f"arrow {a.name!r}: identity blocks need equal graded data")
        given = {}
        for y in tgt.index.elements:
            n = tgt.pieces[y].ngens
            given[(a.map[y], y)] = [[int(i == j) for j in range(n)] for i in range(n)]
    for (x, y), m in given.items():
        r = a.map.get(y)
        if r != x:
            raise InputError(
                f"block ({x!r} -> {y!r}) violates fiber support: reindex({y!r}) = {r!r}"
            )
        ps, pt = src.pieces[x], tgt.pieces[y]
        if len(m) != pt.ngens or any(len(row) != ps.ngens for row in m):
            raise InputError(f"block ({x!r} -> {y!r}) has wrong shape")
        if not is_valid_hom(ps, pt, m):
            raise InputError(f"block ({x!r} -> {y!r}) is not a homomorphism")
    return dict(given)


def graded_limit(
    diagram: PreorderDiagram,
    groups: Mapping[str, GradedGroup],
    blocks: Mapping[str, Mapping[tuple[str, str], Rows]],
    col: ColimitResult,
) -> GradedGroup:
    """Limit of graded groups over ``diagram``, graded over ``col``, its
    colimit.  ``groups[v]`` is graded by ``diagram.preorders[v]``.  Every
    arrow is contravariant and its map is the reindex from target grades to
    source grades: ``blocks[a.name]`` maps ``(x, y)`` to the rows of the
    block from grade x of ``groups[a.src]`` to grade y of ``groups[a.tgt]``,
    which must sit at x = map(y).  An arrow with no entry gets identity
    blocks at (map(y), y).  Bad data raises InputError; this is the one
    place that checks it.

    The piece at w is the limit of the fiber-restricted diagram (the direct
    sum over the cocone fiber of w at each vertex).  The ungraded limit,
    ``total()`` of the result, is the direct sum of the pieces, certified
    rather than recomputed: ``_certify_fiber_support`` checks that every
    block runs inside one fiber, so the total diagram is the direct sum of
    the fiber diagrams up to a permutation of generators, and limits of
    abelian groups commute with finite direct sums.  A block outside its
    fiber raises InvariantError.
    """
    if set(groups) != set(diagram.vertices):
        raise InputError("graded data must cover every vertex when present")
    for v in diagram.vertices:
        if groups[v].index != diagram.preorders[v]:
            raise InputError(f"vertex {v!r}: graded index differs from the diagram")
    names = {a.name for a in diagram.arrows}
    for name in blocks:
        if name not in names:
            raise InputError(f"graded hom for unknown arrow {name!r}")
    placed = {
        a.name: _checked_blocks(a, groups[a.src], groups[a.tgt], blocks.get(a.name))
        for a in diagram.arrows
    }
    colimit_index, cocones = col.preorder, col.cocones
    _certify_fiber_support(diagram, placed, cocones)
    # one pass over the cocones: the generator orders of the fiber sum over
    # each w at each vertex, and each grade's generator offset inside it
    orders = {w: {v: [] for v in diagram.vertices} for w in colimit_index.elements}
    offset: dict[str, dict[str, int]] = {v: {} for v in diagram.vertices}
    for v in diagram.vertices:
        g = groups[v]
        for z in g.index.elements:
            fiber = orders[cocones[v][z]][v]
            offset[v][z] = len(fiber)
            fiber += g.pieces[z].orders
    # the fiber sums keep the grades' own generators, so the block at
    # (reindex(y), y) is copied literally into the fiber of y
    restricted: dict[str, list] = {w: [] for w in colimit_index.elements}
    for a in diagram.arrows:
        tgt_cocone = cocones[a.tgt]
        out = {
            w: [[0] * len(orders[w][a.src]) for _ in orders[w][a.tgt]]
            for w in colimit_index.elements
        }
        for (x, y), b in placed[a.name].items():
            rows = out[tgt_cocone[y]]
            r0, c0 = offset[a.tgt][y], offset[a.src][x]
            for i, row in enumerate(b):
                rows[r0 + i][c0 : c0 + len(row)] = row
        for w, rows in out.items():
            restricted[w].append((a.src, a.tgt, rows))
    pieces = {
        w: _limit_on_presentations(diagram.vertices, orders[w], restricted[w])
        for w in colimit_index.elements
    }
    return GradedGroup(colimit_index, pieces)
