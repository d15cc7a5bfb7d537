import itertools
import random

import pytest

from psodkit.abelian import (
    FgAbGroup,
    GradedArrow,
    GradedDiagram,
    GradedGroup,
    GradedHom,
    GroupArrow,
    GroupDiagram,
    IntMatrix,
    column_basis,
    graded_limit,
    group_from_presentation,
    hnf,
    identity_graded_hom,
    invariant_factors,
    is_valid_hom,
    kernel,
    limit_of_groups,
    snf,
    solve_columns,
)
from psodkit import abelian
from psodkit.errors import InputError, InvariantError, PreconditionError
from psodkit.preorders import (
    OrderReflectingMap,
    colimit,
    complete_preorder,
    discrete_preorder,
    generated_preorder,
    identity_map,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return M([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def diagonal(values):
    n = len(values)
    return M([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def apply(matrix, vec):
    assert len(vec) == matrix.cols
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in matrix.entries)


def column(matrix, j):
    return tuple(row[j] for row in matrix.entries)


def det(matrix):
    # sympy is the test-only oracle for exact determinants
    from sympy import Matrix

    return int(Matrix(matrix.rows, matrix.cols, [x for r in matrix.entries for x in r]).det())


def is_unimodular(matrix):
    return abs(det(matrix)) == 1


# ---------------------------------------------------------------------------
# hnf


def test_hnf_identity():
    h, u = hnf(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    assert u == IntMatrix.identity(3)


def test_hnf_gcd_pivot():
    a = M([[2], [4]])
    h, u = hnf(a)
    assert h == M([[2], [0]])
    assert u.mul(a) == h
    assert is_unimodular(u)


def test_hnf_random_triangular_with_det():
    rng = random.Random(2)
    for _ in range(40):
        a = rand_matrix(rng, 3, 3)
        h, u = hnf(a)
        assert u.mul(a) == h
        assert is_unimodular(u)
        for i in range(3):
            for j in range(3):
                if i > j:
                    pass  # row echelon checked via pivots below
        # pivot product equals |det| for full-rank inputs
        pivots = []
        col = 0
        for i in range(3):
            while col < 3 and h.entries[i][col] == 0:
                col += 1
            if col < 3:
                pivots.append(h.entries[i][col])
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
        assert u.mul(a) == h
        lead = -1
        for i in range(h.rows):
            cols = [j for j in range(h.cols) if h.entries[i][j] != 0]
            if not cols:
                # all rows after a zero row stay zero
                for k in range(i, h.rows):
                    assert all(x == 0 for x in h.entries[k])
                break
            assert cols[0] > lead
            lead = cols[0]
            assert h.entries[i][cols[0]] > 0


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
            a = IntMatrix.from_rows(left, k).mul(IntMatrix.from_rows(right, cols))
        else:
            a = rand_matrix(rng, rows, cols)
        h, u = hnf(a)
        assert u.mul(a) == h
        assert is_unimodular(u)
        nonzero = [r for r in h.entries if any(r)]
        deficient += len(nonzero) < min(rows, cols)
        assert row_lattice(nonzero, cols) == row_lattice(a.entries, cols)
    assert deficient >= 20


# ---------------------------------------------------------------------------
# snf


def test_snf_examples():
    s, u, v = snf(diagonal([2, 3]))
    assert s == diagonal([1, 6])
    assert u.mul(diagonal([2, 3])).mul(v) == s
    s0, _, _ = snf(M([[0, 0, 0], [0, 0, 0]]))
    assert s0 == M([[0, 0, 0], [0, 0, 0]])
    s1, _, _ = snf(IntMatrix.identity(2))
    assert s1 == IntMatrix.identity(2)


def test_snf_properties_random():
    rng = random.Random(31)
    for _ in range(60):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        s, u, v = snf(a)
        assert u.mul(a).mul(v) == s
        assert is_unimodular(u) and is_unimodular(v)
        diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s.entries[i][j] == 0
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
        s = normalforms.smith_normal_form(Matrix(a.entries), domain=ZZ)
        expected = tuple(abs(int(s[i, i])) for i in range(4) if s[i, i] != 0)
        assert invariant_factors(a) == expected


# ---------------------------------------------------------------------------
# kernel


def test_kernel_examples():
    k = kernel(M([[1, -1]]))
    assert k.cols == 1
    x = column(k, 0)
    assert x[0] == x[1] and abs(x[0]) == 1
    k2 = kernel(M([[2, -3]]))
    v = column(k2, 0)
    assert 2 * v[0] - 3 * v[1] == 0
    assert sorted(map(abs, v)) == [2, 3]
    assert kernel(IntMatrix.identity(3)).cols == 0


def test_kernel_spans_all_small_kernel_vectors():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols, -3, 3)
        k = kernel(a)
        for i in range(k.cols):
            assert all(x == 0 for x in apply(a, column(k, i)))
        # every brute-force kernel vector lies in the lattice spanned by k
        for vec in itertools.product(range(-5, 6), repeat=cols):
            if any(apply(a, vec)):
                continue
            if k.cols == 0:
                assert all(x == 0 for x in vec)
                continue
            sol = solve_columns(k, IntMatrix.from_rows([[x] for x in vec], 1))
            recon = apply(k, column(sol, 0))
            assert recon == tuple(vec)


def test_column_basis_spans():
    a = M([[2, 4], [0, 0]])
    b = column_basis(a)
    assert b.cols == 1
    assert abs(b.entries[0][0]) == 2


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


@pytest.mark.parametrize("rows", [[[1], [0]], [[1, 0]]], ids=["rows", "cols"])
def test_group_diagram_rejects_a_matrix_wrong_on_one_side(rows):
    # Z -> Z needs a 1x1 matrix; each of these is wrong in its rows only or
    # in its columns only
    groups = {"a": FgAbGroup.free(1), "b": FgAbGroup.free(1)}
    with pytest.raises(InputError, match="^arrow 'f' matrix has wrong shape$"):
        GroupDiagram(("a", "b"), groups, (GroupArrow("f", "a", "b", M(rows)),))


def test_limit_single_vertex():
    d = GroupDiagram(("v",), {"v": FgAbGroup.free(2)})
    assert limit_of_groups(d).group == FgAbGroup.free(2)


def test_limit_equalizer_times_two_three():
    d = GroupDiagram(
        ("a", "b"),
        {"a": FgAbGroup.free(1), "b": FgAbGroup.free(1)},
        (
            GroupArrow("f", "a", "b", M([[2]])),
            GroupArrow("g", "a", "b", M([[3]])),
        ),
    )
    assert limit_of_groups(d).group == FgAbGroup.zero()


def test_limit_pullback_of_identity_span():
    d = GroupDiagram(
        ("l", "m", "r"),
        {v: FgAbGroup.free(1) for v in ("l", "m", "r")},
        (
            GroupArrow("f", "l", "m", IntMatrix.identity(1)),
            GroupArrow("g", "r", "m", IntMatrix.identity(1)),
        ),
    )
    res = limit_of_groups(d)
    assert res.group == FgAbGroup.free(1)
    gen = column(res.generators, 0)
    assert abs(gen[0]) == 1 and gen[0] == gen[1] == gen[2]


def test_limit_with_torsion_vertices():
    # kernel of Z --1--> C2 is 2Z, still free of rank 1
    d = GroupDiagram(
        ("a", "b"),
        {"a": FgAbGroup.free(1), "b": FgAbGroup(0, (2,))},
        (
            GroupArrow("f", "a", "b", M([[1]])),
            GroupArrow("g", "a", "b", M([[0]])),
        ),
    )
    res = limit_of_groups(d)
    # pairs (x, y): y = x mod 2 and y = 0: limit = {x even} x {0} + torsion of b
    assert res.group.rank == 1


def test_limit_projections_equalize():
    rng = random.Random(4)
    for _ in range(20):
        g1 = FgAbGroup.free(rng.randint(1, 2))
        g2 = FgAbGroup.free(rng.randint(1, 2))
        m = rand_matrix(rng, g2.ngens, g1.ngens, -3, 3)
        d = GroupDiagram(
            ("a", "b"), {"a": g1, "b": g2}, (GroupArrow("f", "a", "b", m),)
        )
        res = limit_of_groups(d)
        pa, pb = res.projections["a"], res.projections["b"]
        assert m.mul(pa) == pb


def test_group_diagram_validates_homs():
    with pytest.raises(InputError):
        GroupDiagram(
            ("a", "b"),
            {"a": FgAbGroup(0, (2,)), "b": FgAbGroup.free(1)},
            (GroupArrow("f", "a", "b", M([[1]])),),
        )


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
        GradedHom(g, g, reindex, {("x", "y"): IntMatrix.identity(1)})


def test_graded_limit_constant_diagram():
    p = generated_preorder(["x", "y"], [("x", "y")])
    g = GradedGroup(p, {"x": FgAbGroup.free(1), "y": FgAbGroup(1, (2,))})
    diag = GradedDiagram(
        ("u",),
        {"u": g},
        (GradedArrow("id", "u", "u", identity_graded_hom(g, identity_map(p))),),
    )
    col = colimit(diag.index_diagram())
    res = graded_limit(diag, col)
    assert res.graded.pieces == g.pieces
    assert res.ungraded == g.total()


def test_graded_limit_cech_identity():
    p = complete_preorder(["*"])
    g = GradedGroup(p, {"*": FgAbGroup.free(1)})
    hom = identity_graded_hom(g, identity_map(p))
    diag = GradedDiagram(
        ("l0", "l1"),
        {"l0": g, "l1": g},
        (
            GradedArrow("d0", "l0", "l1", hom),
            GradedArrow("d1", "l0", "l1", hom),
        ),
    )
    col = colimit(diag.index_diagram())
    res = graded_limit(diag, col)
    assert res.graded.pieces["*"] == FgAbGroup.free(1)


def test_graded_limit_two_vertex_product():
    p1, p2 = complete_preorder(["a"]), complete_preorder(["b"])
    g1 = GradedGroup(p1, {"a": FgAbGroup(1, (4,))})
    g2 = GradedGroup(p2, {"b": FgAbGroup.free(2)})
    diag = GradedDiagram(("u", "v"), {"u": g1, "v": g2})
    col = colimit(diag.index_diagram())
    res = graded_limit(diag, col)
    assert res.graded.pieces["a"] == g1.pieces["a"]
    assert res.graded.pieces["b"] == g2.pieces["b"]
    total = limit_of_groups(
        GroupDiagram(("u", "v"), {"u": g1.total(), "v": g2.total()})
    ).group
    assert res.ungraded == total


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


def _random_hom_matrix(rng, src: FgAbGroup, dst: FgAbGroup) -> IntMatrix:
    rows = []
    dst_orders = [0] * dst.rank + list(dst.torsion)
    src_orders = [0] * src.rank + list(src.torsion)
    for e in dst_orders:
        row = []
        for d in src_orders:
            if e == 0:
                row.append(rng.randint(-2, 2) if d == 0 else 0)
            else:
                if d == 0:
                    row.append(rng.randint(-2, 2))
                else:
                    import math

                    step = e // math.gcd(d, e)
                    row.append(step * rng.randint(-1, 1))
        rows.append(row)
    return IntMatrix(dst.ngens, src.ngens, tuple(tuple(r) for r in rows))


def _random_preorder(rng, max_size=3):
    n = rng.randint(1, max_size)
    labels = [f"g{i}" for i in range(n)]
    pairs = [(a, b) for a in labels for b in labels if rng.random() < 0.5]
    return generated_preorder(labels, pairs)


def _random_reflecting_map(rng, src, dst):
    from psodkit.preorders import _reflecting_maps_to

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
        arrows.append(
            GradedArrow(f"a{t}", u, v, GradedHom(groups[u], groups[v], reindex, blocks))
        )
    return GradedDiagram(vertices, groups, tuple(arrows))


def literal_total_matrix(hom: GradedHom) -> IntMatrix:
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
        for i, row in enumerate(b.entries):
            out[toffs[y] + i][soffs[x] : soffs[x] + b.cols] = row
    return IntMatrix.from_rows(out, cols)


def ungraded_limit_oracle(diag: GradedDiagram) -> FgAbGroup:
    """The limit of the total groups along the literal total matrices,
    computed from scratch: the independent value of ``graded_limit``'s
    ``ungraded``, which the library certifies instead of recomputing."""
    groups = {v: diag.groups[v] for v in diag.vertices}
    return abelian._limit_on_presentations(
        diag.vertices,
        {v: sum(g.pieces[z].ngens for z in g.index.elements) for v, g in groups.items()},
        {
            v: abelian._blockdiag([g.pieces[z].presentation() for z in g.index.elements])
            for v, g in groups.items()
        },
        [(a.src, a.tgt, literal_total_matrix(a.hom)) for a in diag.arrows],
    ).group


def test_block_decomposition_on_random_scenarios():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        diag = random_graded_scenario(rng)
        try:
            col = colimit(diag.index_diagram())
        except PreconditionError:
            continue  # zigzag identified non-related elements: no gluing
        res = graded_limit(diag, col)
        assert res.ungraded == ungraded_limit_oracle(diag)
        done += 1


def _cross_fiber_mutant(how: str) -> GradedDiagram:
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
    return GradedDiagram(
        ("u", "v"),
        {"u": g, "v": g},
        (
            GradedArrow("d0", "u", "v", identity_graded_hom(g, identity_map(p))),
            GradedArrow("d1", "u", "v", d1),
        ),
    )


@pytest.mark.parametrize("how", ["reindex", "blocks"])
def test_cross_fiber_block_trips_certificate_and_oracle(monkeypatch, how):
    diag = _cross_fiber_mutant(how)
    col = colimit(diag.index_diagram())
    with pytest.raises(InvariantError) as info:
        graded_limit(diag, col)
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
    res = graded_limit(diag, col)
    assert res.ungraded == FgAbGroup.zero()
    assert ungraded_limit_oracle(diag) == FgAbGroup.free(1)


# ---------------------------------------------------------------------------
# element-wise cross-check of limits on finite groups


def _enumerate_group(g: FgAbGroup):
    assert g.rank == 0
    return list(itertools.product(*(range(d) for d in g.torsion)))


def _apply_mod(matrix: IntMatrix, vec, orders):
    out = apply(matrix, vec)
    return tuple(x % d for x, d in zip(out, orders))


def test_limit_matches_elementwise_enumeration_on_finite_groups():
    # limits of finite groups recomputed by enumerating equalized tuples; the
    # order-dividing-counts fingerprint pins the isomorphism type exactly
    rng = random.Random(57)
    import math as _math

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
            arrows.append(
                GroupArrow(
                    f"a{t}", u, v, _random_hom_matrix(rng, groups[u], groups[v])
                )
            )
        diagram = GroupDiagram(vertices, groups, tuple(arrows))
        predicted = limit_of_groups(diagram).group
        assert predicted.rank == 0

        per_vertex = {v: _enumerate_group(groups[v]) for v in vertices}
        members = []
        for combo in itertools.product(*(per_vertex[v] for v in vertices)):
            point = dict(zip(vertices, combo))
            ok = True
            for a in arrows:
                got = _apply_mod(a.matrix, point[a.src], groups[a.tgt].torsion)
                if got != point[a.tgt]:
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
            exponent = exponent * d // _math.gcd(exponent, d)
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
                want *= _math.gcd(m, d)
            assert brute == want
        trials += 1
