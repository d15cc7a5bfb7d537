import random

import pytest

from psodkit.abelian import GradedGroup
from psodkit.atlas import Chart, ChartAtlas, Overlap, strata_from_atlas
from psodkit.engine import (
    FactorDescriptor,
    PsodIndex,
    build_infinite_psod,
    build_root_psod,
    filtration,
    restrict_to_denominators,
    totalize_index,
)
from psodkit.errors import InputError, PreconditionError
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.gluing import glue
from psodkit.groups import FgAbGroup
from psodkit.kreport import KTheoryMode, ktheory_report
from psodkit.preorders import (
    CONTRAVARIANT,
    DiagramArrow,
    PreorderDiagram,
    complete_preorder,
    directed_numbering,
    discrete_preorder,
    is_directed,
)
from psodkit.residues import CharTuple
from psodkit.strata import Stratification, Stratum, deepest_first

from helpers import generated_preorder, identity_map
from test_preorders import lt


def smooth_divisor():
    return Stratification(
        (Stratum("X", 0, ("X",)), Stratum("D", 1, ("D~",))),
        (("D", "X"),),
    )


# ---------------------------------------------------------------------------
# finite root indices


def test_nodal_cubic_r2_matches_expected_sod():
    psod = build_root_psod(nodal_cubic(), 2)
    rows = psod.factor_rows()
    assert [x for x, _ in rows] == ["o:(-1/2,-1/2)", "D:(-1/2)", "X:()"]
    assert [f.target_label for _, f in rows] == ["Perf(o)", "Perf(D~)", "Perf(X)"]
    assert [str(f.character) for _, f in rows] == ["(-1/2,-1/2)", "(-1/2)", "()"]
    divisor = nodal_cubic().by_id["D"]
    assert len(divisor.norm_components) == 1


def test_smooth_divisor_r2_is_a_chain():
    psod = build_root_psod(smooth_divisor(), 2)
    assert psod.index.elements == ("D:(-1/2)", "X:()")
    assert lt(psod.index, "D:(-1/2)", "X:()")


def test_r1_single_ambient_factor():
    for strat in (nodal_cubic(), simple_crossing(3)):
        psod = build_root_psod(strat, 1)
        assert len(psod.index) == 1
        (_, f), = psod.factor_rows()
        assert f.stratum_id == strat.ambient().id


def test_r0_rejected():
    with pytest.raises(InputError):
        build_root_psod(nodal_cubic(), 0)


def test_crossing_counts():
    for k in (1, 2, 3):
        cross = simple_crossing(k)
        for r in (2, 3, 4, 5):
            psod = build_root_psod(cross, r)
            assert len(psod.index) == r**k
            for sid, count in psod.stratum_counts().items():
                codim = cross.by_id[sid].codim
                assert count == (r - 1) ** codim


def test_order_correctness_deeper_codim_first():
    psod = build_root_psod(simple_crossing(2), 3)
    strat = simple_crossing(2)
    for x in psod.index.elements:
        for y in psod.index.elements:
            cx = strat.by_id[psod.factors[x].stratum_id].codim
            cy = strat.by_id[psod.factors[y].stratum_id].codim
            if cx > cy:
                assert lt(psod.index, x, y)
                assert not psod.index.le(y, x)


def test_coarse_grouping_projection():
    psod = build_root_psod(simple_crossing(2), 3)
    groups = psod.by_stratum()
    assert sorted(groups) == ["H1", "H1&H2", "H2", "X"]
    assert set(groups) == {s.id for s in simple_crossing(2).strata}


def test_totalize_switch_restores_directedness():
    psod = build_root_psod(simple_crossing(2), 3)
    assert not is_directed(psod.index)
    total = totalize_index(psod)
    assert is_directed(total.index)
    assert total.annotations["totalized"] == "true"
    # only same-stratum incomparable pairs were touched
    for x in psod.index.elements:
        for y in psod.index.elements:
            if psod.index.le(x, y):
                assert total.index.le(x, y)


def test_atlas_pipeline_matches_direct_nodal():
    atlas = ChartAtlas(
        (Chart("U", ("b1", "b2")),),
        (Overlap("U", "U", {"b1": "b2"}),),
    )
    from_atlas = build_root_psod(strata_from_atlas(atlas), 2)
    direct = build_root_psod(nodal_cubic(), 2)
    assert from_atlas.index.rows == direct.index.rows
    got = [
        (f.stratum_id, str(f.character))
        for _, f in from_atlas.factor_rows()
    ]
    want = [(s, str(f.character)) for s, f in (
        (f2.stratum_id, f2) for _, f2 in direct.factor_rows()
    )]
    assert [c for _, c in got] == [c for _, c in want]


# ---------------------------------------------------------------------------
# infinite truncations


def test_smooth_divisor_level2():
    psod = build_infinite_psod(smooth_divisor(), 2)
    assert psod.row_order() == ("D:(-1/2)", "X:()")


def test_smooth_divisor_level3_order():
    psod = build_infinite_psod(smooth_divisor(), 3)
    assert psod.row_order() == (
        "D:(-5/6)",
        "D:(-1/3)",
        "D:(-2/3)",
        "D:(-1/6)",
        "D:(-1/2)",
        "X:()",
    )


def test_nodal_level2_equals_r2():
    trunc = build_infinite_psod(nodal_cubic(), 2)
    finite = build_root_psod(nodal_cubic(), 2)
    assert trunc.index.elements == finite.index.elements
    assert trunc.index.rows == finite.index.rows


def test_truncation_coherence_restriction():
    trunc = build_infinite_psod(smooth_divisor(), 3)
    restricted = restrict_to_denominators(trunc, 2)
    finite = build_root_psod(smooth_divisor(), 2)
    assert restricted.index.elements == finite.index.elements
    assert restricted.index.rows == finite.index.rows


def test_truncation_coherence_stratumwise_on_nodal():
    trunc = build_infinite_psod(nodal_cubic(), 3)
    restricted = restrict_to_denominators(trunc, 2)
    finite = build_root_psod(nodal_cubic(), 2)
    assert set(restricted.index.elements) == set(finite.index.elements)
    for x in finite.index.elements:
        for y in finite.index.elements:
            assert restricted.index.le(x, y) == finite.index.le(x, y)


def test_infinite_annotations():
    psod = build_infinite_psod(smooth_divisor(), 3)
    assert "countably infinite" in psod.annotations["untruncated"]
    kummer = build_infinite_psod(smooth_divisor(), 3, coprime_to=2)
    assert kummer.annotations["coprime_to"] == "2"
    assert kummer.row_order() == ("D:(-1/3)", "D:(-2/3)", "X:()")


# ---------------------------------------------------------------------------
# gluing


def cech_scenario(levels=2):
    psod = build_root_psod(nodal_cubic(), 2)
    p = psod.index
    vertices = tuple(f"l{i}" for i in range(levels))
    arrows = []
    for i in range(levels - 1):
        for j in range(i + 2):
            arrows.append(
                DiagramArrow(
                    f"d{i}{j}", f"l{i}", f"l{i + 1}", identity_map(p), CONTRAVARIANT
                )
            )
    diag = PreorderDiagram(vertices, {v: p for v in vertices}, tuple(arrows))
    return diag, {v: psod for v in vertices}, psod


def test_glue_cech_preserves_index_and_factors():
    diag, psods, psod = cech_scenario()
    res = glue(diag, psods)
    assert res.kind == "psod"
    assert res.psod.index == psod.index
    for w in psod.index.elements:
        assert res.psod.factors[w] == psod.factors[w]


def test_glue_cech_with_graded_data():
    diag, psods, psod = cech_scenario()
    g = GradedGroup(
        psod.index,
        {
            "o:(-1/2,-1/2)": FgAbGroup.free(1),
            "D:(-1/2)": FgAbGroup.free(1),
            "X:()": FgAbGroup(1, (2,)),
        },
    )
    res = glue(diag, psods, {v: g for v in diag.vertices})
    assert res.graded is not None
    assert res.graded.pieces == g.pieces


def test_graded_glue_computes_one_colimit(monkeypatch):
    from psodkit import colimits

    diag, psods, psod = cech_scenario()
    g = GradedGroup(psod.index, {x: FgAbGroup(1, (2,)) for x in psod.index.elements})
    real = colimits._quotient_preorder
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(colimits, "_quotient_preorder", counting)
    res = glue(diag, psods, {v: g for v in diag.vertices})
    assert res.graded is not None and res.graded.pieces == g.pieces
    assert len(calls) == 1


def test_glue_discrete_two_part_scenario_flags_violation():
    idx = discrete_preorder(["part1", "part2"])
    psod = PsodIndex(
        idx,
        {
            "part1": FactorDescriptor("S1", CharTuple(()), "Perf(C1)"),
            "part2": FactorDescriptor("S2", CharTuple(()), "Perf(C2)"),
        },
    )
    res = glue(PreorderDiagram(("v",), {"v": idx}), {"v": psod})
    assert res.kind == "pre-psod only"
    assert not res.verdict.ok
    assert res.verdict.witness()["kind"] == "incomparable_pair"


def test_glue_two_chart_nodal_scenario_matches_pipeline():
    # both nerve levels carry the same stratified index; identity structure maps
    atlas = ChartAtlas(
        (Chart("U", ("b1", "b2")),),
        (Overlap("U", "U", {"b1": "b2"}),),
    )
    strat = strata_from_atlas(atlas)
    psod = build_root_psod(strat, 2)
    p = psod.index
    diag = PreorderDiagram(
        ("l0", "l1"),
        {"l0": p, "l1": p},
        (
            DiagramArrow("p1", "l0", "l1", identity_map(p), CONTRAVARIANT),
            DiagramArrow("p2", "l0", "l1", identity_map(p), CONTRAVARIANT),
        ),
    )
    res = glue(diag, {"l0": psod, "l1": psod})
    want = build_root_psod(nodal_cubic(), 2).index
    assert res.psod.index.rows == want.rows
    assert [f.character for _, f in res.psod.factor_rows()] == [
        f.character for _, f in build_root_psod(nodal_cubic(), 2).factor_rows()
    ]


def test_glue_rejects_mismatched_psod_index():
    idx = discrete_preorder(["a"])
    other = complete_preorder(["b"])
    psod = PsodIndex(other, {"b": FactorDescriptor("S", CharTuple(()), "t")})
    with pytest.raises(InputError, match="^vertex 'v': factor table index differs"):
        glue(PreorderDiagram(("v",), {"v": idx}), {"v": psod})


@pytest.mark.parametrize("arrow", ["d00", "nope"])
def test_glue_refuses_homs_without_graded_data(arrow):
    # blocks with no graded groups are refused, not dropped
    diag, psods, psod = cech_scenario()
    with pytest.raises(InputError, match="^graded data must cover every vertex when present$"):
        glue(diag, psods, homs={arrow: {}})


def test_glue_needs_one_factor_table_per_vertex():
    diag, psods, psod = cech_scenario()
    with pytest.raises(InputError, match="^exactly one factor table per vertex required$"):
        glue(diag, {"l0": psod})


# ---------------------------------------------------------------------------
# filtration


def emitted(steps):
    """The component each filtration step emitted, by grade."""
    return {s.grade: s.component for s in steps}


def test_filtration_single_factor():
    idx = complete_preorder(["w"])
    psod = PsodIndex(idx, {"w": FactorDescriptor("S", CharTuple(()), "t")})
    steps = filtration(psod, {"w": (5, -2)})
    assert len(steps) == 1
    assert steps[0].component == (5, -2)
    assert steps[0].residual_support == ()


def test_filtration_nodal_order_and_reconstruction():
    psod = build_root_psod(nodal_cubic(), 2)
    obj = {"o:(-1/2,-1/2)": (1,), "D:(-1/2)": (2,), "X:()": (3,)}
    steps = filtration(psod, obj)
    # processing starts at the top of the numbering: the ambient grade
    assert [s.grade for s in steps] == ["X:()", "D:(-1/2)", "o:(-1/2,-1/2)"]
    assert emitted(steps) == obj
    assert steps[-1].residual_support == ()


def test_filtration_random_reconstruction():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 6)
        labels = [f"w{i}" for i in range(n)]
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i, n)]
        idx = generated_preorder(labels, pairs)
        psod = PsodIndex(
            idx, {x: FactorDescriptor("S", CharTuple(()), "t") for x in labels}
        )
        obj = {x: tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))) for x in labels}
        steps = filtration(psod, obj)
        assert emitted(steps) == obj
        for step in steps:
            assert step.grade in labels
        assert steps[-1].residual_support == ()


def _oracle_residual_supports(psod, obj):
    """The residual support after each step, rescanning every element: the
    grades taken from the top of the numbering are zeroed one at a time."""
    residual = {x: tuple(obj.get(x, ())) for x in psod.index.elements}
    supports = []
    for grade in reversed(directed_numbering(psod.index)):
        residual[grade] = tuple(0 for _ in residual[grade])
        supports.append(
            tuple(x for x in psod.index.elements if any(c != 0 for c in residual[x]))
        )
    return supports


def _random_total_preorder(rng, labels):
    """Shuffled labels cut into tied runs, each run below every later one."""
    order = rng.sample(labels, len(labels))
    level = {}
    k = 0
    for x in order:
        k += rng.random() < 0.6
        level[x] = k
    return generated_preorder(
        labels, [(x, y) for x in labels for y in labels if level[x] <= level[y]]
    )


def test_filtration_supports_match_rescan_at_every_step():
    rng = random.Random(1905)
    for _ in range(80):
        labels = [f"w{i}" for i in range(rng.randint(0, 9))]
        idx = _random_total_preorder(rng, labels)
        psod = PsodIndex(idx, {x: FactorDescriptor("S", CharTuple(()), "t") for x in labels})
        # zero vectors, empty vectors and missing grades among the nonzero ones
        obj = {}
        for x in labels:
            kind = rng.choice(["zero", "empty", "missing", "some", "some"])
            if kind == "zero":
                obj[x] = (0,) * rng.randint(1, 3)
            elif kind == "empty":
                obj[x] = ()
            elif kind == "some":
                obj[x] = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
        steps = filtration(psod, obj)
        assert [s.residual_support for s in steps] == _oracle_residual_supports(psod, obj)
        assert emitted(steps) == {x: obj.get(x, ()) for x in labels}


def test_filtration_supports_on_the_400_factor_chain():
    psod = build_root_psod(smooth_divisor(), 400)
    rng = random.Random(400)
    obj = {x: (rng.randint(0, 2), rng.randint(0, 2)) for x in psod.index.elements}
    steps = filtration(psod, obj)
    assert len(steps) == 400
    assert [s.residual_support for s in steps] == _oracle_residual_supports(psod, obj)


def test_filtration_requires_directed_index():
    idx = discrete_preorder(["a", "b"])
    psod = PsodIndex(
        idx,
        {
            "a": FactorDescriptor("S", CharTuple(()), "t"),
            "b": FactorDescriptor("T", CharTuple(()), "t"),
        },
    )
    with pytest.raises(PreconditionError):
        filtration(psod, {"a": (1,), "b": (1,)})


# ---------------------------------------------------------------------------
# K-theory reports


def all_z(strat):
    return {c: FgAbGroup.free(1) for c in strat.all_components()}


def test_ktheory_crossing_rank():
    cross = simple_crossing(2)
    rep = ktheory_report(cross, all_z(cross), KTheoryMode.finite(3))
    assert rep.rank() == 9
    assert rep.total == FgAbGroup.free(9)


def test_ktheory_nodal_rank_three():
    nc = nodal_cubic()
    rep = ktheory_report(nc, all_z(nc), KTheoryMode.finite(2))
    assert rep.rank() == 3


def test_ktheory_r1_is_ambient_only():
    nc = nodal_cubic()
    rep = ktheory_report(nc, all_z(nc), KTheoryMode.finite(1))
    assert rep.total == FgAbGroup.free(1)
    assert all(r.multiplicity == 0 for r in rep.rows)


def test_ktheory_rank_matches_psod_factor_count():
    for strat in (nodal_cubic(), simple_crossing(2), simple_crossing(3)):
        for r in (2, 3):
            psod = build_root_psod(strat, r)
            rep = ktheory_report(strat, all_z(strat), KTheoryMode.finite(r))
            assert rep.rank() == len(psod.index)


def test_ktheory_with_torsion_kdata():
    nc = nodal_cubic()
    kdata = {
        "X": FgAbGroup.free(1),
        "D~": FgAbGroup(1, (2,)),
        "o": FgAbGroup.free(1),
    }
    rep = ktheory_report(nc, kdata, KTheoryMode.finite(3))
    # X + 2 copies of K(D~) + 4 copies of K(o)
    assert rep.total == FgAbGroup(7, (2, 2))


def test_ktheory_infinite_mode_symbolic():
    nc = nodal_cubic()
    rep = ktheory_report(nc, all_z(nc), KTheoryMode.infinite(3))
    assert rep.truncated
    assert rep.rank() == 1 + 5 + 25
    assert all("countably infinite" in r.symbolic_multiplicity for r in rep.rows)


def test_ktheory_kummer_mode():
    nc = nodal_cubic()
    rep = ktheory_report(nc, all_z(nc), KTheoryMode.kummer_etale(2, 3))
    assert rep.rank() == 1 + 2 + 4


@pytest.mark.parametrize("strat", [nodal_cubic(), simple_crossing(2)], ids=["nodal", "crossing2"])
def test_ktheory_multiplicities_are_the_built_stratum_counts(strat):
    # the report counts characters by formula, the builders by listing them
    cases = [(KTheoryMode.finite(r), build_root_psod(strat, r)) for r in (1, 2, 3, 5)]
    cases += [(KTheoryMode.infinite(n), build_infinite_psod(strat, n)) for n in (2, 3, 4)]
    cases += [(KTheoryMode.kummer_etale(p, n), build_infinite_psod(strat, n, coprime_to=p))
              for p in (2, 3, 5) for n in (2, 3, 4)]
    for mode, psod in cases:
        counts = psod.stratum_counts()
        rows = ktheory_report(strat, all_z(strat), mode).rows
        assert [row.stratum_id for row in rows] == [
            sid for sid, k in deepest_first((s.id, s.codim) for s in strat.strata) if k > 0]
        for row in rows:
            assert row.multiplicity == counts.get(row.stratum_id, 0), (mode, row.stratum_id)


def test_ktheory_missing_kdata():
    nc = nodal_cubic()
    with pytest.raises(InputError):
        ktheory_report(nc, {"X": FgAbGroup.free(1)}, KTheoryMode.finite(2))


def test_directed_numbering_of_totalized_nodal_index():
    psod = build_root_psod(nodal_cubic(), 2)
    numbering = directed_numbering(psod.index)
    assert numbering[0] == "o:(-1/2,-1/2)"


def test_factor_count_identity_generic():
    # total factors = 1 + sum over positive-codim strata of (r-1)^codim
    for strat in (nodal_cubic(), simple_crossing(2), simple_crossing(3)):
        for r in (1, 2, 3, 4, 5):
            psod = build_root_psod(strat, r)
            want = 1 + sum(
                (r - 1) ** s.codim for s in strat.strata if s.codim > 0
            )
            assert len(psod.index) == want


def test_factor_descriptor_invariants_on_builders():
    # character width equals the stratum codimension; characters are starred
    # away from the ambient stratum
    for strat in (nodal_cubic(), simple_crossing(2)):
        for psod in (
            build_root_psod(strat, 3),
            build_infinite_psod(strat, 3),
        ):
            for x, f in psod.factor_rows():
                codim = strat.by_id[f.stratum_id].codim
                assert len(f.character) == codim
                if codim > 0:
                    assert all(c.num != 0 for c in f.character.components)
                else:
                    assert len(f.character) == 0


def test_root_build_annotates_count_convention():
    psod = build_root_psod(nodal_cubic(), 2)
    assert psod.annotations["kind"] == "root"


def test_empty_psod_index():
    from psodkit.preorders import complete_preorder

    empty = PsodIndex(complete_preorder([]), {})
    assert empty.factor_rows() == []
    steps = filtration(empty, {})
    assert steps == ()


def test_row_order_is_linear_extension_of_strict_pairs():
    for strat, r in ((simple_crossing(2), 3), (simple_crossing(3), 4)):
        psod = build_root_psod(strat, r)
        order = psod.row_order()
        pos = {x: i for i, x in enumerate(order)}
        for x in order:
            for y in order:
                if psod.index.le(x, y) and not psod.index.le(y, x):
                    assert pos[x] < pos[y]


def test_glue_heterogeneous_span_aggregates_descriptors():
    apex = complete_preorder(["s"])
    l = complete_preorder(["a"])
    r = complete_preorder(["b"])
    diag = PreorderDiagram(
        ("apex", "l", "r"),
        {"apex": apex, "l": l, "r": r},
        (
            DiagramArrow("f", "apex", "l", {"s": "a"}),
            DiagramArrow("g", "apex", "r", {"s": "b"}),
        ),
    )
    psods = {
        "apex": PsodIndex(apex, {"s": FactorDescriptor("S0", CharTuple(()), "Perf(A)")}),
        "l": PsodIndex(l, {"a": FactorDescriptor("S1", CharTuple(()), "Perf(B)")}),
        "r": PsodIndex(r, {"b": FactorDescriptor("S2", CharTuple(()), "Perf(C)")}),
    }
    res = glue(diag, psods)
    assert len(res.psod.index) == 1
    (w,) = res.psod.index.elements
    agg = res.psod.factors[w]
    assert agg.stratum_id == "S0|S1|S2"
    assert agg.target_label.startswith("lim[")
    assert len(res.fibers[w]) == 3


def test_glue_rejects_mismatched_graded_hom():
    p = complete_preorder(["x", "y"])
    psod = PsodIndex(
        p,
        {
            "x": FactorDescriptor("S", CharTuple(()), "t"),
            "y": FactorDescriptor("T", CharTuple(()), "t"),
        },
    )
    g = GradedGroup(p, {"x": FgAbGroup.free(1), "y": FgAbGroup.free(1)})
    # the blocks of the swap, on an arrow whose map is the identity
    swap = {("y", "x"): [[1]], ("x", "y"): [[1]]}
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": p, "v": p},
        (DiagramArrow("a", "u", "v", identity_map(p), CONTRAVARIANT),),
    )
    with pytest.raises(
        InputError,
        match=r"^block \('y' -> 'x'\) violates fiber support: reindex\('x'\) = 'x'$",
    ):
        glue(diag, {"u": psod, "v": psod}, {"u": g, "v": g}, {"a": swap})
