import math
from types import SimpleNamespace

import pytest

from psodkit.atlas import Chart, ChartAtlas, Overlap, strata_from_atlas
from psodkit.config import Caps
from psodkit.errors import CapExceededError, InputError
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.strata import Stratification, Stratum, skeleton, validate


def test_nodal_cubic_is_valid():
    assert validate(nodal_cubic()) == []


def test_two_ambient_strata_is_a_violation():
    s = Stratification(
        (Stratum("X", 0, ("X",)), Stratum("Y", 0, ("Y",))),
        (),
    )
    assert any("codim-0" in v for v in validate(s))


def test_codim_monotonicity_violation():
    s = Stratification(
        (Stratum("X", 0, ("X",)), Stratum("D", 1, ("D",)), Stratum("E", 1, ("E",))),
        (("D", "E"), ("D", "X"), ("E", "X")),
    )
    assert any("monotonicity" in v for v in validate(s))


def test_violations_reported_in_stratum_order():
    ids = "ABCDEFGH"
    s = Stratification(
        (Stratum("X", 0, ("X",)), *(Stratum(i, 1, (f"{i}~",)) for i in ids)),
        tuple(("A", i) for i in ids[1:]) + tuple((i, "X") for i in ids),
    )
    assert validate(s) == [
        f"closure violates codimension monotonicity: A (codim 1) inside closure of {i} (codim 1)"
        for i in ids[1:]
    ]


def test_missing_top_closure_is_a_violation():
    s = Stratification(
        (Stratum("X", 0, ("X",)), Stratum("D", 1, ("D",))),
        (),
    )
    assert any("close over" in v for v in validate(s))


def test_duplicate_component_labels_violation():
    s = Stratification(
        (Stratum("X", 0, ("n",)), Stratum("D", 1, ("n",))),
        (("D", "X"),),
    )
    assert any("globally distinct" in v for v in validate(s))


def test_skeleton():
    nc = nodal_cubic()
    assert [s.id for s in skeleton(nc, 1)] == ["D"]
    assert skeleton(nc, 1)[0].norm_components == ("D~",)
    assert skeleton(nc, 3) == ()
    cross = simple_crossing(2)
    assert [s.id for s in skeleton(cross, 1)] == ["H1", "H2"]


def test_skeleton_partitions_strata():
    for strat in (nodal_cubic(), simple_crossing(3)):
        seen = []
        for k in range(max(s.codim for s in strat.strata) + 1):
            seen.extend(s.id for s in skeleton(strat, k))
        assert sorted(seen) == sorted(s.id for s in strat.strata)


# ---------------------------------------------------------------------------
# atlases


def test_atlas_simple_cross():
    atlas = ChartAtlas((Chart("U", ("b1", "b2")),))
    s = strata_from_atlas(atlas)
    assert validate(s) == []
    got = sorted((t.codim, t.id) for t in s.strata)
    assert got == [(0, "X"), (1, "B1"), (1, "B2"), (2, "B1&B2")]
    assert all(len(t.norm_components) == 1 for t in s.strata)


def test_atlas_two_charts_glued():
    atlas = ChartAtlas(
        (Chart("U", ("b",)), Chart("V", ("c",))),
        (Overlap("U", "V", {"b": "c"}),),
    )
    s = strata_from_atlas(atlas)
    divisors = [t for t in s.strata if t.codim == 1]
    assert len(divisors) == 1
    assert len(divisors[0].norm_components) == 1


def test_atlas_nodal_monodromy():
    # one chart with two crossing branches identified with each other: an
    # irreducible divisor crossing itself, normalized by a single component
    atlas = ChartAtlas(
        (Chart("U", ("b1", "b2")),),
        (Overlap("U", "U", {"b1": "b2"}),),
    )
    s = strata_from_atlas(atlas)
    assert validate(s) == []
    got = sorted((t.codim, t.id) for t in s.strata)
    assert got == [(0, "X"), (1, "B1"), (2, "B1&B1")]
    divisor = next(t for t in s.strata if t.codim == 1)
    assert len(divisor.norm_components) == 1
    node = next(t for t in s.strata if t.codim == 2)
    assert divisor.id in s._closure_rows[node.id]


def test_atlas_simple_nc_single_component_invariant():
    # no self-identifications: every stratum normalizes with one component
    atlas = ChartAtlas(
        (Chart("U", ("b1", "b2")), Chart("V", ("c1", "c2"))),
        (Overlap("U", "V", {"b1": "c1"}),),
    )
    s = strata_from_atlas(atlas)
    assert validate(s) == []
    assert all(len(t.norm_components) == 1 for t in s.strata)


def test_atlas_validation_errors():
    with pytest.raises(InputError):
        Overlap("U", "V", {"b1": "c", "b2": "c"})  # not injective
    with pytest.raises(InputError):
        ChartAtlas(
            (Chart("U", ("b",)),),
            (Overlap("U", "U", {"nope": "b"}),),
        )


def test_atlas_depth_caps_codimension():
    # a chart deeper than the cap is refused, never cut off at the cap
    atlas = ChartAtlas((Chart("U", ("b1", "b2", "b3")),))
    with pytest.raises(CapExceededError, match="^chart 'U' has 3 branches, nerve_depth cap is 2$"):
        strata_from_atlas(atlas, caps=Caps(nerve_depth=2))
    s = strata_from_atlas(atlas, caps=Caps(nerve_depth=3))
    assert max(t.codim for t in s.strata) == 3
    assert validate(s) == []


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_atlas_nerve_depth_on_both_sides_of_the_cap(cap):
    caps = Caps(nerve_depth=cap)
    at_cap = ChartAtlas((Chart("U", tuple(f"b{i}" for i in range(cap))),))
    s = strata_from_atlas(at_cap, caps=caps)
    assert len(s.strata) == 1 + 2**cap - 1
    assert sorted(t.codim for t in s.strata) == sorted(
        k for k in range(cap + 1) for _ in range(math.comb(cap, k))
    )
    over = ChartAtlas(
        (Chart("V", ("a",)), Chart("U", tuple(f"b{i}" for i in range(cap + 1)))),
    )
    with pytest.raises(CapExceededError, match=f"chart 'U' has {cap + 1} branches"):
        strata_from_atlas(over, caps=caps)


def test_atlas_counts_local_strata_before_listing_them(monkeypatch):
    # 2^40 - 1 local strata meet the carrier cap before one subset is listed
    import psodkit.atlas as atlas_module

    def no_combinations(*args):
        raise AssertionError("enumerated a subset")

    monkeypatch.setattr(atlas_module, "itertools", SimpleNamespace(combinations=no_combinations))
    atlas = ChartAtlas((Chart("U", tuple(f"b{i}" for i in range(40))),))
    with pytest.raises(CapExceededError, match="^local strata needs 1099511627775 elements"):
        strata_from_atlas(atlas, caps=Caps(nerve_depth=40))


def test_atlas_output_always_validates():
    import random

    rng = random.Random(9)
    for _ in range(25):
        charts = []
        for ci in range(rng.randint(1, 3)):
            nb = rng.randint(1, 3)
            charts.append(Chart(f"c{ci}", tuple(f"c{ci}b{j}" for j in range(nb))))
        overlaps = []
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(charts)
            b = rng.choice(charts)
            if not a.branches or not b.branches:
                continue
            x, y = rng.choice(a.branches), rng.choice(b.branches)
            if a.id == b.id and x == y:
                continue
            overlaps.append(Overlap(a.id, b.id, {x: y}))
        s = strata_from_atlas(ChartAtlas(tuple(charts), tuple(overlaps)))
        assert validate(s) == []


def test_atlas_of_a_thousand_disjoint_charts():
    # each chart's local strata are scanned per chart, not per atlas: the
    # scan over every local stratum of the atlas took about 1 s here
    atlas = ChartAtlas(tuple(Chart(f"U{i}", (f"a{i}", f"b{i}", f"c{i}")) for i in range(1000)))
    s = strata_from_atlas(atlas)
    assert len(s.strata) == 1 + 1000 * 7
    # per chart: 7 strata over the ambient, and each codimension-2 or -3
    # stratum over the 2 or 6 strata of its proper nonempty subsets
    assert len(s.closure) == 1000 * (7 + 3 * 2 + 6) == 19_000
