import itertools
import math
import random
from collections import Counter

import pytest

from psodkit import abelian
from psodkit.abelian import (
    GradedGroup,
    GradedHom,
    IntMatrix,
    graded_limit,
    group_from_presentation,
    hnf,
    identity_graded_hom,
    is_valid_hom,
    kernel,
    snf,
)
from psodkit.colimits import colimit
from psodkit.errors import InputError, InvariantError, PreconditionError
from psodkit.groups import FgAbGroup
from psodkit.preorders import (
    CONTRAVARIANT,
    DiagramArrow,
    OrderReflectingMap,
    PreorderDiagram,
    complete_preorder,
    discrete_preorder,
)

from helpers import generated_preorder, identity_map

# A matrix is a list of integer rows; a helper that must know the column
# count of a matrix without rows takes it as ``cols``.


def M(rows):
    return [list(r) for r in rows]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def width(a, cols=None):
    return cols if cols is not None else len(a[0]) if a else 0


def mul(a, b, cols=None):
    """The rows of the product a * b, b having ``cols`` columns."""
    assert all(len(r) == len(b) for r in a), "matrix dimensions do not compose"
    return [[sum(r[k] * b[k][j] for k in range(len(b))) for j in range(width(b, cols))] for r in a]


def transpose(a, cols=None):
    return [[r[j] for r in a] for j in range(width(a, cols))]


def smith(a, cols=None):
    """The Smith diagonal of the rows ``a``."""
    return snf(IntMatrix(len(a), width(a, cols), tuple(map(tuple, a))))


def invariant_factors(a, cols=None):
    return tuple(d for d in smith(a, cols) if d)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return M([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def diagonal(values):
    n = len(values)
    return M([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def relation_matrix(orders):
    """The diagonal relation matrix of Z^len(orders) modulo orders[i] * e_i,
    one column per nonzero order: a group's presentation spelled out."""
    live = [p for p, o in enumerate(orders) if o]
    return [[o * (i == p) for p in live] for i, o in enumerate(orders)]


def solve_columns(b, r, bcols=None, rcols=None):
    """Solve b X = r exactly over the integers by back substitution on the
    HNF of b (columns of r in the column lattice of b, b's columns
    independent), or raise PreconditionError: a test-side solver, apart
    from the library's kernels.  ``bcols`` and ``rcols`` are the column
    counts of b and r."""
    if len(b) != len(r):
        raise InputError("row counts differ")
    bcols, rcols = width(b, bcols), width(r, rcols)
    h, u = hnf(b)
    rhs = mul(u, r, rcols)
    pivots = []
    for i in range(len(h)):
        cols = [j for j in range(bcols) if h[i][j] != 0]
        if cols:
            pivots.append((i, cols[0]))
    x = [[0] * rcols for _ in range(bcols)]
    for c in range(rcols):
        vec = [rhs[i][c] for i in range(len(h))]
        sol = [0] * bcols
        for i, j in reversed(pivots):
            acc = vec[i] - sum(h[i][t] * sol[t] for t in range(j + 1, bcols))
            if acc % h[i][j] != 0:
                raise PreconditionError("system has no integer solution")
            sol[j] = acc // h[i][j]
        for i in range(len(h)):
            lhs = sum(h[i][t] * sol[t] for t in range(bcols))
            if lhs != rhs[i][c]:
                raise PreconditionError("system has no integer solution")
        for t in range(bcols):
            x[t][c] = sol[t]
    return x


def apply(matrix, vec):
    assert all(len(row) == len(vec) for row in matrix)
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in matrix)


def column(matrix, j):
    return tuple(row[j] for row in matrix)


def det(matrix):
    # sympy is the test-only oracle for exact determinants
    from sympy import Matrix

    return int(Matrix(matrix).det())


def is_unimodular(matrix):
    return abs(det(matrix)) == 1


# ---------------------------------------------------------------------------
# hnf


def test_hnf_identity():
    h, u = hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_gcd_pivot():
    a = M([[2], [4]])
    h, u = hnf(a)
    assert h == M([[2], [0]])
    assert mul(u, a) == h
    assert is_unimodular(u)


def test_hnf_random_triangular_with_det():
    rng = random.Random(2)
    for _ in range(40):
        a = rand_matrix(rng, 3, 3)
        h, u = hnf(a)
        assert mul(u, a) == h
        assert is_unimodular(u)
        for i in range(3):
            for j in range(3):
                if i > j:
                    pass  # row echelon checked via pivots below
        # pivot product equals |det| for full-rank inputs
        pivots = []
        col = 0
        for i in range(3):
            while col < 3 and h[i][col] == 0:
                col += 1
            if col < 3:
                pivots.append(h[i][col])
        d = det(a)
        if d != 0:
            prod = 1
            for p in pivots:
                prod *= p
            assert prod == abs(d)


def test_hnf_rows_below_pivots_zero():
    rng = random.Random(8)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u = hnf(a)
        assert mul(u, a) == h
        lead = -1
        for i in range(len(h)):
            cols = [j for j in range(len(h[i])) if h[i][j] != 0]
            if not cols:
                # all rows after a zero row stay zero
                for k in range(i, len(h)):
                    assert all(x == 0 for x in h[k])
                break
            assert cols[0] > lead
            lead = cols[0]
            assert h[i][cols[0]] > 0


def test_hnf_matches_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix

    def row_lattice(rows, cols):
        # sympy's column HNF of the transpose: canonical for the row lattice
        flat = [x for r in rows for x in r]
        return normalforms.hermite_normal_form(Matrix(len(rows), cols, flat).T)

    rng = random.Random(91)
    deficient = 0
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.4:
            # rank at most k < min(rows, cols): a product through k dimensions
            k = rng.randint(0, min(rows, cols) - 1)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
            a = mul(left, right, cols)
        else:
            a = rand_matrix(rng, rows, cols)
        h, u = hnf(a)
        assert mul(u, a) == h
        assert is_unimodular(u)
        nonzero = [r for r in h if any(r)]
        deficient += len(nonzero) < min(rows, cols)
        assert row_lattice(nonzero, cols) == row_lattice(a, cols)
    assert deficient >= 20


# ---------------------------------------------------------------------------
# snf


def test_snf_examples():
    assert smith(diagonal([2, 3])) == [1, 6]
    assert smith(M([[0, 0, 0], [0, 0, 0]])) == [0, 0]
    assert smith(identity(2)) == [1, 1]
    assert smith([], 3) == smith([[], []]) == []


def test_snf_reads_a_matrix_of_its_stated_shape():
    with pytest.raises(InputError, match="^entry grid does not match the stated dimensions$"):
        snf(IntMatrix(2, 1, ((1,), (2, 3))))


def test_snf_properties_random():
    rng = random.Random(31)
    for _ in range(60):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        diag = smith(a)
        assert len(diag) == min(len(a), len(a[0]))
        nz = [d for d in diag if d != 0]
        assert all(d > 0 for d in nz)
        for a1, a2 in zip(nz, nz[1:]):
            assert a2 % a1 == 0
        # no nonzero after a zero on the diagonal
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            elif seen_zero:
                pytest.fail("nonzero invariant after a zero")


def test_snf_matches_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix
    from sympy.polys.domains import ZZ

    rng = random.Random(77)
    for _ in range(100):
        a = rand_matrix(rng, 4, 4)
        s = normalforms.smith_normal_form(Matrix(a), domain=ZZ)
        expected = tuple(abs(int(s[i, i])) for i in range(4) if s[i, i] != 0)
        assert invariant_factors(a) == expected


def _rank_deficient(rng, rows, cols):
    """A random rows x cols matrix that is a product through a thinner
    middle (rank below min(rows, cols), the zero matrix included) or has a
    zero row and a zero column."""
    if rng.random() < 0.5:
        k = rng.randint(0, max(min(rows, cols) - 1, 0))
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
        return mul(rand_matrix(rng, rows, k, -4, 4), right, cols)
    zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
    return M(
        [
            [0 if i == zero_row or j == zero_col else rng.randint(-9, 9) for j in range(cols)]
            for i in range(rows)
        ]
    )


def test_snf_matches_sympy_on_rectangular_and_rank_deficient_shapes():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix
    from sympy.polys.domains import ZZ

    rng = random.Random(1979)
    deficient = 0
    for rows, cols in itertools.product(range(1, 6), repeat=2):
        for _ in range(6):
            if rng.random() < 0.5:
                a = rand_matrix(rng, rows, cols)
            else:
                a = _rank_deficient(rng, rows, cols)
            diag = smith(a, cols)
            assert len(diag) == min(rows, cols)
            nz = [d for d in diag if d]
            assert diag == nz + [0] * (len(diag) - len(nz)) and all(d > 0 for d in nz)
            assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
            flat = [x for r in a for x in r]
            want = normalforms.smith_normal_form(Matrix(rows, cols, flat), domain=ZZ)
            assert tuple(d for d in diag if d) == tuple(
                abs(int(want[i, i])) for i in range(min(rows, cols)) if want[i, i] != 0
            )
            deficient += len(nz) < min(rows, cols)
    assert deficient >= 40


def test_snf_of_dense_matrices_matches_sympy():
    # a Smith form that pivoted on the least entry of the whole trailing
    # block grew a dense 7 x 7 matrix with one-digit entries to a million
    # bits and ran past the per-test time limit
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix
    from sympy.polys.domains import ZZ

    rng = random.Random(7)
    for n in (7, 7, 7, 8, 8):
        a = rand_matrix(rng, n, n)
        want = normalforms.smith_normal_form(Matrix(a), domain=ZZ)
        assert smith(a) == [abs(int(want[i, i])) for i in range(n)]


def test_snf_fixes_divisibility_between_non_adjacent_factors():
    # 4 misses 9 two places later (and 6 next to it)
    a = diagonal([4, 6, 9])
    assert smith(a) == [1, 6, 36]


# ---------------------------------------------------------------------------
# kernel


def test_kernel_examples():
    k = kernel(M([[1, -1]]), 2)
    assert len(k) == 1
    x = k[0]
    assert x[0] == x[1] and abs(x[0]) == 1
    k2 = kernel(M([[2, -3]]), 2)
    v = k2[0]
    assert 2 * v[0] - 3 * v[1] == 0
    assert sorted(map(abs, v)) == [2, 3]
    assert len(kernel(identity(3), 3)) == 0


def test_kernel_spans_all_small_kernel_vectors():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols, -3, 3)
        k = kernel(a, cols)
        for v in k:
            assert len(v) == cols
            assert all(x == 0 for x in apply(a, v))
        # every brute-force kernel vector lies in the lattice spanned by k
        for vec in itertools.product(range(-5, 6), repeat=cols):
            if any(apply(a, vec)):
                continue
            if not k:
                assert all(x == 0 for x in vec)
                continue
            basis = transpose(k)  # the basis vectors as columns
            sol = solve_columns(basis, [[x] for x in vec])
            recon = apply(basis, column(sol, 0))
            assert recon == tuple(vec)


def test_kernel_of_a_matrix_without_rows_or_columns():
    # no equations: every vector solves, and the basis is the identity;
    # no unknowns: the kernel is Z^0, with no basis column
    assert kernel([], 3) == identity(3)
    assert kernel([[], [], []], 0) == []


# ---------------------------------------------------------------------------
# groups


def test_group_invariants_validated():
    with pytest.raises(InputError):
        FgAbGroup(0, (3, 2))
    with pytest.raises(InputError):
        FgAbGroup(0, (1,))
    with pytest.raises(InputError):
        FgAbGroup(-1)


def test_from_invariants_normalizes():
    g = FgAbGroup.from_invariants([2, 3])
    assert g == FgAbGroup(0, (6,))
    h = FgAbGroup.from_invariants([2, 4, 0])
    assert h == FgAbGroup(1, (2, 4))
    assert str(FgAbGroup.from_invariants([0, 2, 3, 4])) == "Z + C2 + C12"
    assert str(FgAbGroup(3, (2,))) == "Z^3 + C2"
    assert str(FgAbGroup(0)) == "0"


def test_direct_sum_and_multiple():
    a = FgAbGroup(1, (2,))
    b = FgAbGroup(0, (3,))
    assert a.direct_sum(b) == FgAbGroup(1, (6,))
    assert a.multiple(3) == FgAbGroup(3, (2, 2, 2))
    assert a.multiple(0) == FgAbGroup.zero()


def test_group_from_presentation():
    # Z^2 / <(2,0),(0,3)> = C2 + C3 = C6
    g = group_from_presentation(2, diagonal([2, 3]))
    assert g == FgAbGroup(0, (6,))
    # Z^2 / <(2,4)> has a free rank left
    g2 = group_from_presentation(2, M([[2], [4]]))
    assert g2 == FgAbGroup(1, (2,))


def test_is_valid_hom():
    c2 = FgAbGroup(0, (2,))
    c4 = FgAbGroup(0, (4,))
    z = FgAbGroup.free(1)
    assert is_valid_hom(z, c2, M([[1]]))
    assert is_valid_hom(c2, c4, M([[2]]))
    assert not is_valid_hom(c2, c4, M([[1]]))  # 2*1 != 0 mod 4
    assert not is_valid_hom(c2, z, M([[1]]))  # torsion cannot map to free
    assert is_valid_hom(c2, z, M([[0]]))


# ---------------------------------------------------------------------------
# limits of groups


def solving_limit_oracle(order, orders, arrows):
    """A fiber limit solved for, as the library once computed it: the x-part
    of a kernel basis of [phi | Rt] is a basis of the solution lattice, and
    the product relations are solved for in that basis by back substitution.
    Returns the group, the basis (columns over the product) and each
    vertex's rows of it: the oracle for the library's second kernel."""
    ngens = {v: len(orders[v]) for v in order}
    offs, n = {}, 0
    for v in order:
        offs[v], n = n, n + ngens[v]
    rel = relation_matrix([o for v in order for o in orders[v]])
    defect_rows, defect_orders = [], []
    for src, tgt, m in arrows:
        for i, o in enumerate(orders[tgt]):
            row = [0] * n
            row[offs[src] : offs[src] + ngens[src]] = m[i]
            row[offs[tgt] + i] -= 1
            defect_rows.append(row)
            defect_orders.append(o)
    if defect_rows:
        rt = relation_matrix(defect_orders)
        cols = n + sum(map(bool, defect_orders))
        ker = kernel([x + list(y) for x, y in zip(defect_rows, rt)], cols)
        k, basis = len(ker), [[v[i] for v in ker] for i in range(n)]
    else:
        k, basis = n, identity(n)
    live = sum(map(bool, (o for v in order for o in orders[v])))
    if live:
        rel_in_basis = solve_columns(basis, rel, k, live)
    else:
        rel_in_basis = [[] for _ in range(k)]
    projections = {v: basis[offs[v] : offs[v] + ngens[v]] for v in order}
    return group_from_presentation(k, rel_in_basis), basis, projections


def group_limit(groups, arrows=()):
    """The limit of ``groups`` (vertex -> FgAbGroup) along ``arrows``
    (``(src, tgt, matrix)`` each) by the library's one route: every group
    graded over one point, then ``graded_limit(...).ungraded``."""
    point = discrete_preorder(["*"])
    graded = {v: GradedGroup(point, {"*": g}) for v, g in groups.items()}
    homs = [
        (f"a{i}", s, t, GradedHom(graded[s], graded[t], identity_map(point), {("*", "*"): m}))
        for i, (s, t, m) in enumerate(arrows)
    ]
    quiver = graded_quiver(graded, homs)
    return graded_limit(*quiver, colimit(quiver[0])).ungraded


def oracle_limit(groups, arrows=()):
    """``solving_limit_oracle`` on the groups and arrows ``group_limit`` takes."""
    return solving_limit_oracle(tuple(groups), {v: g.orders for v, g in groups.items()}, arrows)


def test_limit_single_vertex():
    assert group_limit({"v": FgAbGroup.free(2)}) == FgAbGroup.free(2)


def test_limit_equalizer_times_two_three():
    groups = {"a": FgAbGroup.free(1), "b": FgAbGroup.free(1)}
    assert group_limit(groups, [("a", "b", M([[2]])), ("a", "b", M([[3]]))]) == FgAbGroup.zero()


def test_limit_pullback_of_identity_span():
    groups = {v: FgAbGroup.free(1) for v in ("l", "m", "r")}
    arrows = [("l", "m", identity(1)), ("r", "m", identity(1))]
    assert group_limit(groups, arrows) == FgAbGroup.free(1)
    # the oracle's generator is the diagonal, up to sign
    group, generators, _ = oracle_limit(groups, arrows)
    assert group == FgAbGroup.free(1)
    gen = column(generators, 0)
    assert abs(gen[0]) == 1 and gen[0] == gen[1] == gen[2]


def test_limit_with_torsion_vertices():
    # kernel of Z --1--> C2 is 2Z, still free of rank 1
    groups = {"a": FgAbGroup.free(1), "b": FgAbGroup(0, (2,))}
    limit = group_limit(groups, [("a", "b", M([[1]])), ("a", "b", M([[0]]))])
    # pairs (x, y): y = x mod 2 and y = 0: limit = {x even} x {0} + torsion of b
    assert limit.rank == 1


def test_limit_projections_equalize():
    # on the oracle's generators, which the library no longer returns
    rng = random.Random(4)
    for _ in range(20):
        g1 = FgAbGroup.free(rng.randint(1, 2))
        g2 = FgAbGroup.free(rng.randint(1, 2))
        m = rand_matrix(rng, g2.ngens, g1.ngens, -3, 3)
        groups = {"a": g1, "b": g2}
        group, _, projections = oracle_limit(groups, [("a", "b", m)])
        assert mul(m, projections["a"]) == projections["b"]
        assert group_limit(groups, [("a", "b", m)]) == group


# ---------------------------------------------------------------------------
# graded groups and graded limits


@pytest.mark.parametrize("rows", [[[1], [0]], [[1, 0]]], ids=["rows", "cols"])
def test_graded_hom_rejects_a_block_wrong_on_one_side(rows):
    # Z on the one element: a block must be 1x1, and each of these is wrong
    # in its rows only or in its columns only
    p = discrete_preorder(["x"])
    g = GradedGroup(p, {"x": FgAbGroup.free(1)})
    with pytest.raises(InputError, match=r"^block \('x' -> 'x'\) has wrong shape$"):
        GradedHom(g, g, identity_map(p), {("x", "x"): M(rows)})


def test_graded_hom_rejects_off_fiber_blocks():
    p = generated_preorder(["x", "y"], [("x", "y")])
    g = GradedGroup(p, {"x": FgAbGroup.free(1), "y": FgAbGroup.free(1)})
    reindex = identity_map(p)
    with pytest.raises(InputError):
        GradedHom(g, g, reindex, {("x", "y"): identity(1)})


def graded_quiver(groups, arrows=()):
    """``(diagram, groups, homs)`` for ``graded_limit``: the vertices of
    ``groups`` in order, and per ``(name, src, tgt, hom)`` a contravariant
    arrow carrying ``hom.reindex``."""
    diagram = PreorderDiagram(
        tuple(groups),
        {v: g.index for v, g in groups.items()},
        tuple(DiagramArrow(n, s, t, hom.reindex, CONTRAVARIANT) for n, s, t, hom in arrows),
    )
    return diagram, groups, {n: hom for n, _, _, hom in arrows}


def test_graded_limit_constant_diagram():
    p = generated_preorder(["x", "y"], [("x", "y")])
    g = GradedGroup(p, {"x": FgAbGroup.free(1), "y": FgAbGroup(1, (2,))})
    quiver = graded_quiver({"u": g}, [("id", "u", "u", identity_graded_hom(g, identity_map(p)))])
    res = graded_limit(*quiver, colimit(quiver[0]))
    assert res.graded.pieces == g.pieces
    assert res.ungraded == g.total()


def test_graded_limit_cech_identity():
    p = complete_preorder(["*"])
    g = GradedGroup(p, {"*": FgAbGroup.free(1)})
    hom = identity_graded_hom(g, identity_map(p))
    quiver = graded_quiver(
        {"l0": g, "l1": g}, [("d0", "l0", "l1", hom), ("d1", "l0", "l1", hom)]
    )
    res = graded_limit(*quiver, colimit(quiver[0]))
    assert res.graded.pieces["*"] == FgAbGroup.free(1)


def test_graded_limit_two_vertex_product():
    p1, p2 = complete_preorder(["a"]), complete_preorder(["b"])
    g1 = GradedGroup(p1, {"a": FgAbGroup(1, (4,))})
    g2 = GradedGroup(p2, {"b": FgAbGroup.free(2)})
    quiver = graded_quiver({"u": g1, "v": g2})
    res = graded_limit(*quiver, colimit(quiver[0]))
    assert res.graded.pieces["a"] == g1.pieces["a"]
    assert res.graded.pieces["b"] == g2.pieces["b"]
    assert res.ungraded == group_limit({"u": g1.total(), "v": g2.total()})


@pytest.mark.parametrize("side", ["source", "target"])
def test_graded_limit_rejects_a_hom_wrong_on_one_side(side):
    # the arrow runs Z -> Z over one grade; the hom is C2 -> Z or Z -> C2,
    # so exactly one of its ends differs from the quiver's
    p = discrete_preorder(["x"])
    z, c2 = (GradedGroup(p, {"x": g}) for g in (FgAbGroup.free(1), FgAbGroup(0, (2,))))
    if side == "source":
        hom = GradedHom(c2, z, identity_map(p), {("x", "x"): M([[0]])})
    else:
        hom = GradedHom(z, c2, identity_map(p), {("x", "x"): M([[1]])})
    diagram, groups, homs = graded_quiver({"u": z, "v": z}, [("f", "u", "v", hom)])
    with pytest.raises(InputError, match=rf"^arrow 'f' {side} mismatch$"):
        graded_limit(diagram, groups, homs, colimit(diagram))


def test_graded_limit_rejects_an_index_other_than_the_diagrams():
    # one carrier ordered two ways: the group is graded by the chain, the
    # diagram's vertex carries the discrete order
    chain = generated_preorder(["x", "y"], [("x", "y")])
    g = GradedGroup(chain, {"x": FgAbGroup.free(1), "y": FgAbGroup(0, (2,))})
    diagram = PreorderDiagram(("u",), {"u": discrete_preorder(["x", "y"])})
    with pytest.raises(InputError, match=r"^vertex 'u': graded index differs from the diagram$"):
        graded_limit(diagram, {"u": g}, {}, colimit(diagram))


# ---------------------------------------------------------------------------
# randomized block-decomposition checks (decategorified gluing identity)


def _random_fg_group(rng):
    rank = rng.randint(0, 2)
    torsion = []
    if rng.random() < 0.4:
        base = rng.choice([2, 3, 4])
        torsion = [base]
        if rng.random() < 0.3:
            torsion.append(base * rng.choice([1, 2, 3]))
    try:
        return FgAbGroup.from_invariants([0] * rank + torsion)
    except InputError:
        return FgAbGroup.free(rank)


def _random_hom_matrix(rng, src: FgAbGroup, dst: FgAbGroup):
    return _random_order_hom(rng, src.orders, dst.orders)


def _random_order_hom(rng, src_orders, dst_orders):
    """A random homomorphism between the groups with these generator orders."""
    rows = []
    for e in dst_orders:
        row = []
        for d in src_orders:
            if e == 0:
                row.append(rng.randint(-2, 2) if d == 0 else 0)
            elif d == 0:
                row.append(rng.randint(-2, 2))
            else:
                row.append(e // math.gcd(d, e) * rng.randint(-1, 1))
        rows.append(row)
    return rows


def _random_preorder(rng, max_size=3):
    n = rng.randint(1, max_size)
    labels = [f"g{i}" for i in range(n)]
    pairs = [(a, b) for a in labels for b in labels if rng.random() < 0.5]
    return generated_preorder(labels, pairs)


def _random_reflecting_map(rng, src, dst):
    from psodkit.verify import _reflecting_maps_to

    options = _reflecting_maps_to(src, dst.rows)
    if not options:
        return None
    pick = rng.choice(options)
    return OrderReflectingMap(
        src, dst, {x: dst.elements[pick[i]] for i, x in enumerate(src.elements)}
    )


def random_graded_scenario(rng):
    nv = rng.randint(1, 3)
    vertices = tuple(f"v{i}" for i in range(nv))
    indices = {v: _random_preorder(rng) for v in vertices}
    groups = {
        v: GradedGroup(
            indices[v], {x: _random_fg_group(rng) for x in indices[v].elements}
        )
        for v in vertices
    }
    arrows = []
    for t in range(rng.randint(0, nv)):
        u, v = rng.choice(vertices), rng.choice(vertices)
        reindex = _random_reflecting_map(rng, indices[v], indices[u])
        if reindex is None:
            continue
        blocks = {}
        for y in indices[v].elements:
            x = reindex(y)
            blocks[(x, y)] = _random_hom_matrix(rng, groups[u].pieces[x], groups[v].pieces[y])
        arrows.append((f"a{t}", u, v, GradedHom(groups[u], groups[v], reindex, blocks)))
    return graded_quiver(groups, arrows)


def literal_total_matrix(hom: GradedHom):
    """The ungraded matrix of a graded hom: every stored block copied to the
    offsets of its own (source grade, target grade), generators in index
    order."""

    def offsets(g: GradedGroup) -> tuple[dict[str, int], int]:
        offs, n = {}, 0
        for z in g.index.elements:
            offs[z] = n
            n += g.pieces[z].ngens
        return offs, n

    soffs, cols = offsets(hom.source)
    toffs, rows = offsets(hom.target)
    out = [[0] * cols for _ in range(rows)]
    for (x, y), b in hom.blocks.items():
        for i, row in enumerate(b):
            out[toffs[y] + i][soffs[x] : soffs[x] + len(row)] = row
    return out


def ungraded_limit_oracle(diagram, groups, homs) -> FgAbGroup:
    """The limit of the total groups along the literal total matrices,
    computed from scratch: the independent value of ``graded_limit``'s
    ``ungraded``, which the library certifies instead of recomputing."""
    groups = {v: groups[v] for v in diagram.vertices}
    return solving_limit_oracle(
        diagram.vertices,
        {v: [o for z in g.index.elements for o in g.pieces[z].orders] for v, g in groups.items()},
        [(a.src, a.tgt, literal_total_matrix(homs[a.name])) for a in diagram.arrows],
    )[0]


def test_block_decomposition_on_random_scenarios():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        quiver = random_graded_scenario(rng)
        try:
            col = colimit(quiver[0])
        except PreconditionError:
            continue  # zigzag identified non-related elements: no gluing
        res = graded_limit(*quiver, col)
        assert res.ungraded == ungraded_limit_oracle(*quiver)
        done += 1


def _cross_fiber_mutant(how: str):
    """Two arrows u -> v over the discrete index {a, b}: d0 the identity and
    d1 the swap, whose blocks run from b to a and from a to b.  d1's reindex
    is then made the identity past GradedHom's constructor (``how`` names
    the field overwritten), so its blocks cross the fibers {a} and {b} of
    the colimit."""
    p = discrete_preorder(["a", "b"])
    g = GradedGroup(p, {"a": FgAbGroup.free(1), "b": FgAbGroup.free(1)})
    swap = OrderReflectingMap(p, p, {"a": "b", "b": "a"})
    if how == "reindex":
        d1 = identity_graded_hom(g, swap)
        object.__setattr__(d1, "reindex", identity_map(p))
    else:
        d1 = identity_graded_hom(g, identity_map(p))
        object.__setattr__(d1, "blocks", {("b", "a"): M([[1]]), ("a", "b"): M([[1]])})
    return graded_quiver(
        {"u": g, "v": g},
        [("d0", "u", "v", identity_graded_hom(g, identity_map(p))), ("d1", "u", "v", d1)],
    )


@pytest.mark.parametrize("how", ["reindex", "blocks"])
def test_cross_fiber_block_trips_certificate_and_oracle(monkeypatch, how):
    quiver = _cross_fiber_mutant(how)
    col = colimit(quiver[0])
    with pytest.raises(InvariantError) as info:
        graded_limit(*quiver, col)
    assert info.value.exit_code == 2
    assert info.value.witness == {
        "arrow": "d1",
        "source_grade": "b",
        "target_grade": "a",
        "reindex": "a",
        "source_fiber": col.cocones["u"]("b"),
        "target_fiber": col.cocones["v"]("a"),
    }
    assert col.cocones["u"]("b") != col.cocones["v"]("a")
    # without the certificate the pieces miss the swap, which the ungraded
    # oracle sees: the equalizer of 1 and the swap on Z^2 is Z
    monkeypatch.setattr(abelian, "_certify_fiber_support", lambda *args: None)
    res = graded_limit(*quiver, col)
    assert res.ungraded == FgAbGroup.zero()
    assert ungraded_limit_oracle(*quiver) == FgAbGroup.free(1)


def _column_basis(a, cols):
    """A basis (as vectors) of the column lattice of ``a``, a matrix with
    ``cols`` columns, read off an HNF: the step that once followed the
    kernel in ``_limit_on_presentations``, kept here as the oracle for its
    removal."""
    h, _ = hnf(transpose(a, cols))
    return [r for r in h if any(r)]


def test_fiber_limit_generators_are_a_basis_of_the_solutions(monkeypatch):
    # every fiber limit on random graded scenarios with torsion: the
    # library's piece is the solving oracle's group, and the oracle's
    # generators have full column rank, each one solves every arrow, and
    # through the column-basis step they present the same group
    real = abelian._limit_on_presentations
    relations = []

    def checking(order, orders, arrows):
        group = real(order, orders, arrows)
        want, gens, projections = solving_limit_oracle(order, orders, arrows)
        assert group == want
        k = width(gens)
        vectors = _column_basis(gens, k)
        assert len(vectors) == k
        basis = transpose(vectors, len(gens))
        flat = [o for v in order for o in orders[v]]
        rel, live = relation_matrix(flat), sum(map(bool, flat))
        assert group_from_presentation(k, solve_columns(basis, rel, k, live)) == group
        for src, tgt, m in arrows:
            image, at_tgt = mul(m, projections[src], k), projections[tgt]
            defect = [[a - b for a, b in zip(r, t)] for r, t in zip(image, at_tgt)]
            solve_columns(relation_matrix(orders[tgt]), defect, sum(map(bool, orders[tgt])), k)
        relations.append(live)
        return group

    monkeypatch.setattr(abelian, "_limit_on_presentations", checking)
    rng = random.Random(1717)
    done = 0
    while done < 40:
        quiver = random_graded_scenario(rng)
        try:
            col = colimit(quiver[0])
        except PreconditionError:
            continue
        graded_limit(*quiver, col)
        done += 1
    assert len(relations) > 40 and sum(map(bool, relations)) > 20


def test_fiber_limit_matches_the_solving_oracle_on_random_orders():
    # generator orders straight, not an invariant chain: free and torsion
    # generators, vertices with none, no arrows, arrows into free targets
    rng = random.Random(2020)
    seen = Counter()
    for _ in range(300):
        order = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
        orders = {v: [rng.choice([0, 0, 2, 3, 4, 6]) for _ in range(rng.randint(0, 3))]
                  for v in order}
        arrows = []
        for _ in range(rng.randint(0, 3)):
            s, t = rng.choice(order), rng.choice(order)
            arrows.append((s, t, _random_order_hom(rng, orders[s], orders[t])))
        got = abelian._limit_on_presentations(order, orders, arrows)
        assert got == solving_limit_oracle(order, orders, arrows)[0]
        seen["torsion"] += any(any(o) for o in orders.values())
        seen["empty vertex"] += not all(orders.values())
        seen["no arrows"] += not arrows
        seen["free target"] += any(0 in orders[t] for _, t, _ in arrows)
    assert min(seen.values()) >= 30, seen


# ---------------------------------------------------------------------------
# element-wise cross-check of limits on finite groups


def _enumerate_group(g: FgAbGroup):
    assert g.rank == 0
    return list(itertools.product(*(range(d) for d in g.torsion)))


def _apply_mod(matrix, vec, orders):
    out = apply(matrix, vec)
    return tuple(x % d for x, d in zip(out, orders))


def test_limit_matches_elementwise_enumeration_on_finite_groups():
    # limits of finite groups recomputed by enumerating equalized tuples; the
    # order-dividing-counts fingerprint pins the isomorphism type exactly
    rng = random.Random(57)
    trials = 0
    while trials < 40:
        nv = rng.randint(1, 3)
        vertices = tuple(f"v{i}" for i in range(nv))
        groups = {}
        total = 1
        for v in vertices:
            torsion = sorted(rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 2)))
            g = FgAbGroup.from_invariants(torsion)
            if g.rank or not g.torsion:
                g = FgAbGroup(0, (2,))
            groups[v] = g
            size = 1
            for d in g.torsion:
                size *= d
            total *= size
        if total > 200:
            continue
        arrows = []
        for t in range(rng.randint(0, 2)):
            u, v = rng.choice(vertices), rng.choice(vertices)
            arrows.append((u, v, _random_hom_matrix(rng, groups[u], groups[v])))
        predicted = group_limit(groups, arrows)
        assert predicted.rank == 0

        per_vertex = {v: _enumerate_group(groups[v]) for v in vertices}
        members = []
        for combo in itertools.product(*(per_vertex[v] for v in vertices)):
            point = dict(zip(vertices, combo))
            ok = True
            for src, tgt, matrix in arrows:
                got = _apply_mod(matrix, point[src], groups[tgt].torsion)
                if got != point[tgt]:
                    ok = False
                    break
            if ok:
                members.append(point)

        size_pred = 1
        for d in predicted.torsion:
            size_pred *= d
        assert len(members) == size_pred

        exponent = 1
        for d in predicted.torsion:
            exponent = exponent * d // math.gcd(exponent, d)
        for m in range(1, max(exponent, 1) + 1):
            brute = 0
            for point in members:
                if all(
                    (m * x) % d == 0
                    for v in vertices
                    for x, d in zip(point[v], groups[v].torsion)
                ):
                    brute += 1
            want = 1
            for d in predicted.torsion:
                want *= math.gcd(m, d)
            assert brute == want
        trials += 1
