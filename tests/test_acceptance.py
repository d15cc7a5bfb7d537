"""Acceptance suite: one check per numbered criterion, each printing a
PASS/FAIL line and enforcing its stated runtime budget (run with `pytest -s`
to see the lines as they go)."""

import functools
import itertools
import math
import random
import time

from psodkit.colimits import colimit, coproduct, pushout
from psodkit.engine import (
    FactorDescriptor,
    PsodIndex,
    build_infinite_psod,
    build_root_psod,
    filtration,
    restrict_to_denominators,
)
from psodkit.errors import PreconditionError
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.factorial import enumerate_characters
from psodkit.gluing import glue
from psodkit.groups import FgAbGroup
from psodkit.kreport import KTheoryMode, ktheory_report
from psodkit.preorders import (
    CONTRAVARIANT,
    DiagramArrow,
    PreorderDiagram,
    complete_preorder,
    discrete_preorder,
)
from psodkit.residues import CharTuple
from psodkit.strata import Stratification, Stratum
from psodkit.verify import verify_colimit

from helpers import generated_preorder, identity_map
from test_abelian import (
    invariant_factors,
    is_unimodular,
    mul,
    random_graded_scenario,
    smith,
    ungraded_limit_oracle,
)
from test_engine import emitted
from test_factorial import bang_chain, cmp_bang_znfact
from test_preorders import lt


def criterion(number, description, budget):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < budget, (
                f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
            )
            print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")

        return run

    return wrap


def chain(*labels):
    return generated_preorder(labels, list(zip(labels, labels[1:])))


# ---------------------------------------------------------------------------


def _oracle_chain(level):
    # test-local fiber-materializing oracle, independent of the library:
    # list Z_{n!} ascending by walking the quotient images in standard order
    # (largest remainder first) and recursing on each fiber
    if level == 1:
        return [0]
    inner = _oracle_chain(level - 1)
    return [q * level + s for s in range(level - 1, -1, -1) for q in inner]


@criterion(1, "recursive factorial order on Z_{n!} for n = 2..5", budget=10)
def test_criterion_1_factorial_order_suite():
    for level in (2, 3, 4, 5):
        f = math.factorial(level)
        oracle = _oracle_chain(level)
        assert tuple(oracle) == bang_chain(level)
        assert sorted(oracle) == list(range(f))
        rank = {p: i for i, p in enumerate(oracle)}
        # agreement with the independent fiber-materializing oracle on all
        # pairs; totality, antisymmetry and transitivity at level 5 follow
        # from this agreement, and are re-checked explicitly below for n <= 4
        for p in range(f):
            for q in range(f):
                want = (rank[p] > rank[q]) - (rank[p] < rank[q])
                assert cmp_bang_znfact(p, q, level) == want
        if level <= 4:
            cmp = [[cmp_bang_znfact(p, q, level) for q in range(f)] for p in range(f)]
            for p in range(f):
                for q in range(f):
                    assert cmp[p][q] == -cmp[q][p]
                    if cmp[p][q] == 0:
                        assert p == q
                    for r in range(f):
                        if cmp[p][q] <= 0 and cmp[q][r] <= 0:
                            assert cmp[p][r] <= 0
        if level >= 3:
            # restriction along Z_{(n-1)!} inside Z_{n!}
            prev = math.factorial(level - 1)
            for q1 in range(prev):
                for q2 in range(prev):
                    assert cmp_bang_znfact(q1 * level, q2 * level, level) == (
                        cmp_bang_znfact(q1, q2, level - 1)
                    )
    from fractions import Fraction

    from psodkit.residues import Residue

    values = [str(Residue.from_fraction(Fraction(-p, 6))) for p in _oracle_chain(3)]
    assert values == ["-5/6", "-1/3", "-2/3", "-1/6", "-1/2", "0"]


@criterion(2, "colimit universal properties on all fixture diagrams", budget=15)
def test_criterion_2_colimit_universal_properties():
    fixtures = []

    # coproduct fixtures
    def coproduct_fixture(parts, names):
        diag = PreorderDiagram(tuple(names), dict(zip(names, parts)))
        out, injections = coproduct(list(parts))
        cocone = dict(zip(names, injections))
        return diag, out, cocone

    fixtures.append(coproduct_fixture(
        (complete_preorder(["a"]), complete_preorder(["b"])), ("v1", "v2")))
    fixtures.append(coproduct_fixture((chain("a", "b", "c"),), ("v1",)))
    fixtures.append(coproduct_fixture(
        (discrete_preorder(["a", "b"]), chain("c", "d")), ("v1", "v2")))

    # pushout fixtures, verified over the span diagram
    def pushout_fixture(apex, pl, pr, left, right):
        out, p1, p2 = pushout(apex, pl, pr, left, right)
        diag = PreorderDiagram(
            ("apex", "l", "r"),
            {"apex": apex, "l": pl, "r": pr},
            (
                DiagramArrow("f", "apex", "l", left),
                DiagramArrow("g", "apex", "r", right),
            ),
        )
        cocone = {
            "apex": {w: p1[left[w]] for w in apex.elements},
            "l": p1,
            "r": p2,
        }
        return diag, out, cocone

    c2 = chain("a", "b")
    fixtures.append(pushout_fixture(c2, c2, c2, identity_map(c2), identity_map(c2)))
    empty = discrete_preorder([])
    fixtures.append(pushout_fixture(
        empty, complete_preorder(["a"]), complete_preorder(["b"]), {}, {}
    ))
    pt = complete_preorder(["s"])
    fixtures.append(pushout_fixture(
        pt, chain("a", "b"), chain("bp", "c"), {"s": "b"}, {"s": "bp"}
    ))
    fixtures.append(pushout_fixture(
        pt, chain("m", "b"), chain("mp", "c"), {"s": "m"}, {"s": "mp"}
    ))

    # general colimit fixtures
    p3 = chain("x", "y", "z")
    cech = PreorderDiagram(
        ("u", "v"),
        {"u": p3, "v": p3},
        (
            DiagramArrow("d0", "u", "v", identity_map(p3)),
            DiagramArrow("d1", "u", "v", identity_map(p3)),
        ),
    )
    res = colimit(cech)
    fixtures.append((cech, res.preorder, res.cocones))

    const = PreorderDiagram(
        ("u", "v"),
        {"u": complete_preorder(["p", "q"]), "v": complete_preorder(["p", "q"])},
        (DiagramArrow("f", "u", "v", identity_map(complete_preorder(["p", "q"])), CONTRAVARIANT),),
    )
    resc = colimit(const)
    fixtures.append((const, resc.preorder, resc.cocones))

    # coequalizer of genuinely different maps: everything merges to a point
    cu, cv = complete_preorder(["a", "b"]), complete_preorder(["p", "q"])
    coeq = PreorderDiagram(
        ("u", "v"),
        {"u": cu, "v": cv},
        (
            DiagramArrow("m1", "u", "v", {"a": "p", "b": "q"}),
            DiagramArrow("m2", "u", "v", {"a": "q", "b": "p"}),
        ),
    )
    resq = colimit(coeq)
    fixtures.append((coeq, resq.preorder, resq.cocones))

    for diag, candidate, cocone in fixtures:
        assert sum(map(len, diag.preorders.values())) <= 8
        result = verify_colimit(diag, candidate, cocone)
        assert result.ok, result.reason


@criterion(3, "nodal cubic at r = 2 yields the three expected factors in order", budget=5)
def test_criterion_3_nodal_cubic():
    psod = build_root_psod(nodal_cubic(), 2)
    rows = psod.factor_rows()
    assert len(rows) == 3
    assert [f.stratum_id for _, f in rows] == ["o", "D", "X"]
    assert [str(f.character) for _, f in rows] == ["(-1/2,-1/2)", "(-1/2)", "()"]
    assert [f.target_label for _, f in rows] == ["Perf(o)", "Perf(D~)", "Perf(X)"]
    assert nodal_cubic().by_id["D"].norm_components == ("D~",)
    numbering = psod.row_order()
    assert lt(psod.index, numbering[0], numbering[1])
    assert lt(psod.index, numbering[1], numbering[2])


@criterion(4, "factor-count law r^k for coordinate crossings, k <= 3, r <= 5", budget=5)
def test_criterion_4_count_law():
    for k in (1, 2, 3):
        cross = simple_crossing(k)
        kdata = {c: FgAbGroup.free(1) for c in cross.all_components()}
        for r in (1, 2, 3, 4, 5):
            psod = build_root_psod(cross, r)
            assert len(psod.index) == r**k
            counts = psod.stratum_counts()
            for s in cross.strata:
                assert counts.get(s.id, 0) == (r - 1) ** s.codim
            report = ktheory_report(cross, kdata, KTheoryMode.finite(r))
            assert report.rank() == r**k
            assert report.total.torsion == ()


@criterion(5, "graded limits decompose blockwise on 50 random scenarios", budget=60)
def test_criterion_5_block_decomposition():
    from psodkit.abelian import graded_limit

    rng = random.Random(20240817)
    done = 0
    while done < 50:
        quiver = random_graded_scenario(rng)
        try:
            col = colimit(quiver[0])
        except PreconditionError:
            continue
        res = graded_limit(*quiver, col)
        assert res.total() == ungraded_limit_oracle(*quiver)
        done += 1


@criterion(6, "descent shapes: constant Cech gluing and the discrete failure mode", budget=5)
def test_criterion_6_descent_shapes():
    psod = build_root_psod(nodal_cubic(), 2)
    p = psod.index
    diag = PreorderDiagram(
        ("l0", "l1"),
        {"l0": p, "l1": p},
        (
            DiagramArrow("d0", "l0", "l1", identity_map(p), CONTRAVARIANT),
            DiagramArrow("d1", "l0", "l1", identity_map(p), CONTRAVARIANT),
        ),
    )
    res = glue(diag, {"l0": psod, "l1": psod})
    assert res.kind == "psod"
    assert res.psod.index == p
    assert all(res.psod.factors[w] == psod.factors[w] for w in p.elements)

    idx = discrete_preorder(["part1", "part2"])
    parts = PsodIndex(
        idx,
        {
            "part1": FactorDescriptor("S1", CharTuple(()), "Perf(C1)"),
            "part2": FactorDescriptor("S2", CharTuple(()), "Perf(C2)"),
        },
    )
    res2 = glue(PreorderDiagram(("v",), {"v": idx}), {"v": parts})
    assert res2.kind == "pre-psod only"
    assert not res2.verdict.ok
    witness = res2.verdict.witness()
    assert witness["kind"] == "incomparable_pair"
    assert sorted(witness["pair"]) == ["part1", "part2"]


@criterion(7, "level-3 truncation restricts to the r = 2 index on a smooth divisor", budget=5)
def test_criterion_7_truncation_coherence():
    sd = Stratification(
        (Stratum("X", 0, ("X",)), Stratum("D", 1, ("D~",))),
        (("D", "X"),),
    )
    trunc = build_infinite_psod(sd, 3)
    assert trunc.row_order() == (
        "D:(-5/6)",
        "D:(-1/3)",
        "D:(-2/3)",
        "D:(-1/6)",
        "D:(-1/2)",
        "X:()",
    )
    restricted = restrict_to_denominators(trunc, 2)
    finite = build_root_psod(sd, 2)
    assert restricted.index.elements == finite.index.elements
    assert restricted.index.rows == finite.index.rows


def _laplace_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def _determinantal_invariants(entries):
    """Invariant factors as d_k / d_(k-1), with d_k the gcd of all k x k
    minors, up to the rank."""
    n, m = len(entries), len(entries[0])
    invariants, prev = [], 1
    for k in range(1, min(n, m) + 1):
        d_k = math.gcd(
            *(
                _laplace_det([tuple(entries[i][j] for j in cols) for i in rows])
                for rows in itertools.combinations(range(n), k)
                for cols in itertools.combinations(range(m), k)
            )
        )
        if d_k == 0:
            break
        invariants.append(d_k // prev)
        prev = d_k
    return tuple(invariants)


@criterion(8, "Hermite/Smith normal forms on 100 random 4x4 matrices", budget=10)
def test_criterion_8_normal_forms():
    from psodkit.abelian import hnf

    rng = random.Random(1234)
    for _ in range(100):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        diag = smith(a)
        assert len(diag) == 4
        nz = [d for d in diag if d != 0]
        assert all(d > 0 for d in nz)
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        assert invariant_factors(a) == _determinantal_invariants(a)
        h, uu = hnf(a)
        assert mul(uu, a) == h
        assert is_unimodular(uu)


@criterion(9, "Kummer-etale restriction keeps only denominators coprime to p", budget=5)
def test_criterion_9_kummer_etale():
    chars = enumerate_characters(1, 3, coprime_to=2)
    values = [str(c) for c in chars]
    assert values == ["(-1/3)", "(-2/3)"]
    assert "(-1/2)" not in values
    for k in (1, 2):
        for c in enumerate_characters(k, 3, coprime_to=2):
            assert all(d % 2 != 0 for d in c.denominators())
    sd = Stratification(
        (Stratum("X", 0, ("X",)), Stratum("D", 1, ("D~",))),
        (("D", "X"),),
    )
    psod = build_infinite_psod(sd, 3, coprime_to=2)
    assert psod.row_order() == ("D:(-1/3)", "D:(-2/3)", "X:()")


@criterion(10, "filtration emits single-grade components that sum to the input", budget=5)
def test_criterion_10_filtration():
    rng = random.Random(4321)
    for _ in range(80):
        n = rng.randint(1, 6)
        labels = [f"w{i}" for i in range(n)]
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i, n)]
        for i in range(n - 1):
            if rng.random() < 0.3:
                pairs.append((labels[i + 1], labels[i]))  # mutual layer
        idx = generated_preorder(labels, pairs)
        psod = PsodIndex(
            idx, {x: FactorDescriptor("S", CharTuple(()), "t") for x in labels}
        )
        obj = {
            x: tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
            for x in labels
        }
        steps = filtration(psod, obj)
        assert emitted(steps) == obj
        grades = [s.grade for s in steps]
        assert sorted(grades) == sorted(labels)
        assert steps[-1].residual_support == ()
        for t, step in enumerate(steps):
            before = set(grades[: t + 1])
            assert set(step.residual_support).isdisjoint(before)
