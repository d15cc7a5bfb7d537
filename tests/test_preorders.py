import hashlib
import itertools
import random
import tracemalloc

import pytest

from psodkit import preorderdocs
from psodkit.colimits import colimit, coproduct, pushout
from psodkit.errors import CapExceededError, InputError, PreconditionError
from psodkit.preorders import (
    CONTRAVARIANT,
    DiagramArrow,
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    complete_preorder,
    directed_numbering,
    directedness,
    discrete_preorder,
    is_directed,
    is_order_reflecting,
)
from psodkit.preorders import _classes, _gather, _reflection_witness
from psodkit.verify import (
    VerifyResult,
    _posets_on,
    _preorders_on,
    _reflecting_maps_to,
    _set_partitions,
    verify_colimit,
)

from helpers import generated_preorder, identity_map


def chain(*labels):
    pairs = [(a, b) for a, b in zip(labels, labels[1:])]
    return generated_preorder(labels, pairs)


# Readings of a relation that only the tests need.


def lt(p, x, y):
    """Strict comparability: x <= y and x != y (mutual pairs stay strict)."""
    return x != y and p.le(x, y)


def is_total(p):
    """Every pair related one way or the other."""
    full = (1 << len(p.elements)) - 1
    return all(r | c == full for r, c in zip(p.rows, p.columns()))


def relation_pairs(p):
    return {(x, y) for x in p.elements for y in p.elements if p.le(x, y)}


def iso_key(rows):
    """Canonical form of the preorder given by row bitmasks: equal exactly for
    isomorphic preorders.

    Each element is coloured by its up-set, down-set and equivalence-class
    sizes, which any isomorphism preserves.  The form is the least relabelled
    matrix over the relabellings that list the elements in increasing colour,
    so only permutations inside each colour class are tried.
    """
    q = len(rows)
    cols = FinitePreorder(tuple(map(str, range(q))), tuple(rows)).columns()
    colour = [(r.bit_count(), c.bit_count(), (r & c).bit_count()) for r, c in zip(rows, cols)]
    order = sorted(range(q), key=colour.__getitem__)
    classes = [tuple(c) for _, c in itertools.groupby(order, key=colour.__getitem__)]
    perms = (
        sum(choice, ())
        for choice in itertools.product(*map(itertools.permutations, classes))
    )
    return min(tuple(rows[x] >> y & 1 for x in perm for y in perm) for perm in perms)


def constant_diagram(vertices, p, arrows=()):
    """Every vertex carries ``p``, every arrow the identity."""
    return PreorderDiagram(
        tuple(vertices),
        {v: p for v in vertices},
        tuple(DiagramArrow(name, src, tgt, identity_map(p)) for name, src, tgt in arrows),
    )


# ---------------------------------------------------------------------------
# constructors


def test_complete_preorder_all_related():
    p = complete_preorder(["a", "b"])
    assert relation_pairs(p) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_complete_empty_and_singleton():
    assert len(complete_preorder([])) == 0
    p = complete_preorder(["a"])
    assert p.le("a", "a")


def test_discrete_preorder_only_diagonal():
    p = discrete_preorder(["a", "b"])
    assert relation_pairs(p) == {("a", "a"), ("b", "b")}
    q = discrete_preorder(["a", "b", "c"])
    assert all(q.le(x, y) == (x == y) for x in q.elements for y in q.elements)


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        complete_preorder(["a", "a"])
    with pytest.raises(InputError):
        discrete_preorder(["x", "x"])


def test_reflexivity_enforced():
    with pytest.raises(InputError):
        FinitePreorder(("a",), (0,))


def test_rows_must_fit_the_carrier():
    with pytest.raises(InputError):
        FinitePreorder(("a", "b"), (0b01, 0b110))
    with pytest.raises(InputError):
        FinitePreorder(("a", "b"), (0b01,))
    with pytest.raises(InputError):
        FinitePreorder(("a",), (-1,))


def test_large_complete_and_discrete_carriers_stay_small():
    labels = [f"x{i}" for i in range(3000)]
    tracemalloc.start()
    try:
        complete_preorder(labels)
        discrete_preorder(labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_transitivity_is_reported_not_enforced():
    # a <= b <= c without a <= c: storable, flagged
    p = FinitePreorder(("a", "b", "c"), (0b011, 0b110, 0b100))
    assert not p.is_transitive
    assert ("a", "b", "c") in p.transitivity_violations()
    assert chain("a", "b", "c").is_transitive


# ---------------------------------------------------------------------------
# order-reflecting maps


def test_identity_is_order_reflecting():
    for p in (chain("a", "b", "c"), discrete_preorder(["x", "y"])):
        assert is_order_reflecting(p, p, {x: x for x in p.elements})


def test_constant_map_from_discrete_not_reflecting():
    d = discrete_preorder(["a", "b"])
    s = complete_preorder(["s"])
    assert not is_order_reflecting(d, s, {"a": "s", "b": "s"})
    with pytest.raises(InputError):
        OrderReflectingMap(d, s, {"a": "s", "b": "s"})


def test_injective_map_into_discrete_is_reflecting():
    src = chain("a", "b")
    tgt = discrete_preorder(["u", "v"])
    assert is_order_reflecting(src, tgt, {"a": "u", "b": "v"})


def test_map_must_be_total():
    p = chain("a", "b")
    with pytest.raises(InputError):
        is_order_reflecting(p, p, {"a": "a"})


def test_composition_of_reflecting_maps_is_reflecting():
    rng = random.Random(11)
    for _ in range(200):
        n1, n2, n3 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        ps = []
        for n, tag in ((n1, "p"), (n2, "q"), (n3, "r")):
            labels = [f"{tag}{i}" for i in range(n)]
            pairs = [
                (a, b) for a in labels for b in labels if rng.random() < 0.4
            ]
            ps.append(generated_preorder(labels, pairs))
        p, q, r = ps
        f = {x: rng.choice(q.elements) for x in p.elements}
        g = {x: rng.choice(r.elements) for x in q.elements}
        if not (is_order_reflecting(p, q, f) and is_order_reflecting(q, r, g)):
            continue
        fm = OrderReflectingMap(p, q, f)
        gm = OrderReflectingMap(q, r, g)
        # the constructor re-validates reflection
        composed = OrderReflectingMap(p, r, {x: g[y] for x, y in f.items()})
        assert composed.source == p and composed.target == r


def test_fibers_of_reflecting_maps_are_complete():
    rng = random.Random(23)
    found = 0
    while found < 50:
        labels = [f"x{i}" for i in range(rng.randint(1, 5))]
        pairs = [(a, b) for a in labels for b in labels if rng.random() < 0.5]
        p = generated_preorder(labels, pairs)
        q = generated_preorder(["u", "v"], [("u", "v")] if rng.random() < 0.5 else [])
        f = {x: rng.choice(q.elements) for x in labels}
        if not is_order_reflecting(p, q, f):
            continue
        found += 1
        m = OrderReflectingMap(p, q, f)
        for t in q.elements:
            fiber = m.fiber(t)
            sub = p.restrict(fiber)
            assert sub == complete_preorder(fiber)


# ---------------------------------------------------------------------------
# coproducts


def test_coproduct_of_singletons_is_complete_pair():
    out, injections = coproduct([complete_preorder(["a"]), complete_preorder(["b"])])
    assert out == complete_preorder(["a", "b"])
    assert injections[0]("a") == "a" and injections[1]("b") == "b"


def test_coproduct_single_part_is_identity():
    p = chain("a", "b", "c")
    out, injections = coproduct([p])
    assert out == p
    assert injections[0] == identity_map(p)


def test_coproduct_cross_part_rule():
    d = discrete_preorder(["a", "b"])
    c = chain("c", "d")
    out, _ = coproduct([d, c])
    # within parts preserved
    assert not out.le("a", "b") and not out.le("b", "a")
    assert out.le("c", "d") and not out.le("d", "c")
    # across parts related both ways
    for x in ("a", "b"):
        for y in ("c", "d"):
            assert out.le(x, y) and out.le(y, x)
    # the mixed relation is genuinely not transitive (a <= c <= b fails to close)
    assert not out.is_transitive


def test_coproduct_namespaces_on_collision():
    p = complete_preorder(["a"])
    out, injections = coproduct([p, p])
    assert out.elements == ("0:a", "1:a")
    assert injections[0]("a") == "0:a"


# ---------------------------------------------------------------------------
# pushouts


def test_pushout_of_identity_span():
    p = chain("a", "b")
    out, p1, p2 = pushout(identity_map(p), identity_map(p))
    assert out == p
    assert dict(p1.mapping) == {"a": "a", "b": "b"} == dict(p2.mapping)


def test_pushout_over_empty_is_coproduct():
    empty = discrete_preorder([])
    a, b = complete_preorder(["a"]), complete_preorder(["b"])
    out, _, _ = pushout(
        OrderReflectingMap(empty, a, {}), OrderReflectingMap(empty, b, {})
    )
    assert out == complete_preorder(["a", "b"])


def test_pushout_three_element_gluing():
    c1 = chain("a", "b")
    c2 = chain("bp", "c")
    pt = complete_preorder(["s"])
    out, p1, p2 = pushout(
        OrderReflectingMap(pt, c1, {"s": "b"}),
        OrderReflectingMap(pt, c2, {"s": "bp"}),
    )
    assert out.elements == ("a", "b=bp", "c")
    assert out.le("a", "b=bp") and not out.le("b=bp", "a")
    assert out.le("b=bp", "c") and not out.le("c", "b=bp")
    # vacuous quantification relates the outer elements both ways
    assert out.le("a", "c") and out.le("c", "a")
    assert p1("b") == "b=bp" == p2("bp")


def test_pushout_requires_common_source():
    with pytest.raises(InputError):
        pushout(
            OrderReflectingMap(complete_preorder(["s"]), complete_preorder(["a"]), {"s": "a"}),
            OrderReflectingMap(complete_preorder(["t"]), complete_preorder(["b"]), {"t": "b"}),
        )


def test_pushout_shared_labels_merge():
    c1 = chain("a", "m")
    c2 = chain("m", "z")
    pt = complete_preorder(["s"])
    out, _, _ = pushout(
        OrderReflectingMap(pt, c1, {"s": "m"}),
        OrderReflectingMap(pt, c2, {"s": "m"}),
    )
    assert "m" in out.elements  # same label on both sides collapses to itself


# ---------------------------------------------------------------------------
# colimits


def test_colimit_constant_diagram_is_identity():
    p = chain("x", "y", "z")
    diag = constant_diagram(["u", "v"], p, [("f", "u", "v")])
    res = colimit(diag)
    assert res.preorder == p
    assert dict(res.cocones["u"].mapping) == {x: x for x in p.elements}


def test_colimit_discrete_diagram_is_coproduct():
    d = discrete_preorder(["a", "b"])
    c = chain("c", "d")
    diag = PreorderDiagram(("v1", "v2"), {"v1": d, "v2": c})
    res = colimit(diag)
    expected, _ = coproduct([d, c])
    assert res.preorder == expected


def test_colimit_coequalizer_of_equal_maps():
    p = chain("x", "y", "z")
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": p, "v": p},
        (
            DiagramArrow("d0", "u", "v", identity_map(p)),
            DiagramArrow("d1", "u", "v", identity_map(p)),
        ),
    )
    res = colimit(diag)
    assert res.preorder == p


@pytest.mark.parametrize("src, tgt", [("u", "w"), ("w", "u")])
def test_diagram_rejects_an_arrow_with_one_unknown_endpoint(src, tgt):
    p = chain("x", "y")
    with pytest.raises(InputError, match="^arrow 'a' has unknown endpoints$"):
        PreorderDiagram(("u",), {"u": p}, (DiagramArrow("a", src, tgt, identity_map(p)),))


def test_colimit_contravariant_orientation():
    p = chain("x", "y")
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": p, "v": p},
        (DiagramArrow("a", "u", "v", identity_map(p), CONTRAVARIANT),),
    )
    assert colimit(diag).preorder == p


# ---------------------------------------------------------------------------
# verify_colimit


def _singleton_coproduct_fixture():
    s1, s2 = complete_preorder(["a"]), complete_preorder(["b"])
    diag = PreorderDiagram(("v1", "v2"), {"v1": s1, "v2": s2})
    out, _ = coproduct([s1, s2])
    cocone = {"v1": {"a": "a"}, "v2": {"b": "b"}}
    return diag, out, cocone


def test_verify_accepts_true_coproduct():
    diag, out, cocone = _singleton_coproduct_fixture()
    assert verify_colimit(diag, out, cocone).ok


def test_verify_rejects_discrete_union():
    diag, _, cocone = _singleton_coproduct_fixture()
    res = verify_colimit(diag, discrete_preorder(["a", "b"]), cocone)
    assert not res.ok
    assert res.witness is not None


def test_verify_rejects_oversized_candidate():
    p = complete_preorder(["a", "b", "c", "d", "e"])
    diag = PreorderDiagram(("v",), {"v": p})
    with pytest.raises(CapExceededError):
        verify_colimit(diag, p, {"v": {x: x for x in p.elements}})


def test_verify_diagram_cap():
    p = complete_preorder([f"x{i}" for i in range(13)])
    diag = PreorderDiagram(("v",), {"v": p})
    with pytest.raises(CapExceededError):
        verify_colimit(diag, p, {"v": {x: x for x in p.elements}})


def test_verify_rejects_non_commuting_cocone():
    p = discrete_preorder(["x", "y"])
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": p, "v": p},
        (DiagramArrow("a", "u", "v", identity_map(p)),),
    )
    bad_cocone = {"u": {"x": "x", "y": "y"}, "v": {"x": "y", "y": "x"}}
    res = verify_colimit(diag, p, bad_cocone)
    assert not res.ok and res.reason == "cocone does not commute"


def test_verify_rejects_unused_candidate_element():
    s = complete_preorder(["a"])
    diag = PreorderDiagram(("v",), {"v": s})
    padded = complete_preorder(["a", "ghost"])
    res = verify_colimit(diag, padded, {"v": {"a": "a"}})
    assert not res.ok


def test_verify_three_element_gluing():
    c1, c2, pt = chain("a", "b"), chain("bp", "c"), complete_preorder(["s"])
    left = OrderReflectingMap(pt, c1, {"s": "b"})
    right = OrderReflectingMap(pt, c2, {"s": "bp"})
    out, p1, p2 = pushout(left, right)
    diag = PreorderDiagram(
        ("apex", "l", "r"),
        {"apex": pt, "l": c1, "r": c2},
        (
            DiagramArrow("f", "apex", "l", left),
            DiagramArrow("g", "apex", "r", right),
        ),
    )
    cocone = {
        "apex": {"s": p1("b")},
        "l": dict(p1.mapping),
        "r": dict(p2.mapping),
    }
    assert verify_colimit(diag, out, cocone).ok


def test_verify_rejection_witness_is_pinned():
    # the witness names a test preorder by its rows, so it changes if the
    # representatives of _preorders_on or their order change
    parts = [chain("a", "b"), discrete_preorder(["c", "d"])]
    diag = PreorderDiagram(("v0", "v1"), dict(zip(("v0", "v1"), parts)))
    out, _ = coproduct(parts)
    rows = list(out.rows)
    rows[0] &= ~(1 << 1)
    candidate = FinitePreorder(out.elements, tuple(rows))
    cocone = {"v0": {"a": "a", "b": "b"}, "v1": {"c": "c", "d": "d"}}
    res = verify_colimit(diag, candidate, cocone)
    assert preorderdocs.verify_to_doc(res) == {
        "ok": False,
        "reason": "cocone has no order-reflecting factorization",
        "witness": {
            "q_size": 3,
            "q_rows": [1, 2, 5],
            "cocone": {"v0": {"a": 2, "b": 0}, "v1": {"c": 0, "d": 1}},
            "solutions": 0,
        },
    }


def _oracle_verify(diagram, candidate, cocone):
    """verify_colimit by factorizations: each commuting reflecting cocone
    into Q forces h on the images of the cocone, and every value is tried on
    the candidate elements outside them."""
    for v in diagram.vertices:
        p, mp = diagram.preorders[v], cocone[v]
        if set(mp) != set(p.elements):
            return VerifyResult(False, "cocone map not total", {"vertex": v})
        for x, y in itertools.product(p.elements, repeat=2):
            if candidate.le(mp[x], mp[y]) and not p.le(x, y):
                return VerifyResult(
                    False, "cocone map not order-reflecting", {"vertex": v, "pair": [x, y]}
                )
    for u, v, mapping in diagram.actual_maps():
        for x in diagram.preorders[u].elements:
            if cocone[v][mapping[x]] != cocone[u][x]:
                return VerifyResult(
                    False, "cocone does not commute", {"from": u, "to": v, "at": x}
                )
    n = len(candidate)
    vertices = list(diagram.vertices)
    sources = [
        [(i, t) for i, v in enumerate(vertices)
         for t, x in enumerate(diagram.preorders[v].elements) if cocone[v][x] == c]
        for c in candidate.elements
    ]
    free = [c for c, srcs in enumerate(sources) if not srcs]
    commute = [
        (vertices.index(u), t, vertices.index(v), diagram.preorders[v].index(mapping[x]))
        for u, v, mapping in diagram.actual_maps()
        for t, x in enumerate(diagram.preorders[u].elements)
    ]
    for q in range(n + 2):
        for q_rows in _preorders_on(q):
            per_vertex = [_reflecting_maps_to(diagram.preorders[v], q_rows) for v in vertices]
            for family in itertools.product(*per_vertex):
                if any(family[iv][tv] != family[iu][tu] for iu, tu, iv, tv in commute):
                    continue
                forced = [{family[i][t] for i, t in srcs} for srcs in sources]
                if any(len(vals) > 1 for vals in forced):
                    return VerifyResult(
                        False,
                        "cocone has no factorization (forced values conflict)",
                        {"q_size": q, "q_rows": list(q_rows)},
                    )
                h = [min(vals, default=0) for vals in forced]
                count = 0
                for choice in itertools.product(range(q), repeat=len(free)):
                    for slot, val in zip(free, choice):
                        h[slot] = val
                    count += all(
                        candidate.rows[i] >> j & 1
                        for i in range(n)
                        for j in range(n)
                        if q_rows[h[i]] >> h[j] & 1
                    )
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
                                v: dict(zip(diagram.preorders[v].elements, f))
                                for v, f in zip(vertices, family)
                            },
                            "solutions": min(count, 2),
                        },
                    )
    return VerifyResult(True)


def _random_generated_preorder(rng, labels):
    return generated_preorder(
        labels, [(a, b) for a in labels for b in labels if rng.random() < 0.3]
    )


def _random_verify_request(rng):
    """A diagram of at most three vertices with at most two elements each and
    up to three arrows, self-arrows and zigzags included, so that a class of
    the arrows may span several vertices or hold two elements of one vertex;
    and a candidate of at most 4 elements: its colimit, possibly with one
    relation flipped, two elements merged or an element added, or a random
    preorder with a random cocone.  Now and then the cocone misses an
    element."""
    vertices = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
    preorders = {
        v: _random_generated_preorder(rng, [v + c for c in "ab"[: rng.randint(1, 2)]])
        for v in vertices
    }
    arrows = []
    for i in range(rng.randint(0, 3)):
        u, v = rng.choice(vertices), rng.choice(vertices)
        options = _reflecting_maps_to(preorders[u], preorders[v].rows)
        if options:
            images = [preorders[v].elements[k] for k in rng.choice(options)]
            mapping = dict(zip(preorders[u].elements, images))
            arrows.append(
                DiagramArrow(f"a{i}", u, v, OrderReflectingMap(preorders[u], preorders[v], mapping))
            )
    diagram = PreorderDiagram(vertices, preorders, tuple(arrows))
    try:
        res = colimit(diagram)
    except PreconditionError:
        res = None
    kind = rng.choice(["exact", "flip", "merge", "ghost", "random"])
    if res is None or len(res.preorder) > 3:
        kind = "random"
    if kind == "random":
        candidate = _random_generated_preorder(rng, [f"c{i}" for i in range(rng.randint(1, 4))])
        cocone = {
            v: {x: rng.choice(candidate.elements) for x in p.elements}
            for v, p in preorders.items()
        }
    else:
        labels, rows = res.preorder.elements, list(res.preorder.rows)
        cocone = {v: dict(m.mapping) for v, m in res.cocones.items()}
        n = len(rows)
        if kind == "flip" and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i] ^= 1 << j
        elif kind == "merge" and n > 1:
            i, j = rng.sample(range(n), 2)
            cocone = {
                v: {x: labels[i] if y == labels[j] else y for x, y in m.items()}
                for v, m in cocone.items()
            }
            rows[i] |= rows[j]
            rows = [r | (r >> j & 1) << i for r in rows]
            keep = [k for k in range(n) if k != j]
            labels = tuple(labels[k] for k in keep)
            rows = [sum((rows[k] >> l & 1) << t for t, l in enumerate(keep)) for k in keep]
        elif kind == "ghost":
            below = rng.randrange(1 << n)
            rows = [r | (below >> k & 1) << n for k, r in enumerate(rows)]
            rows.append(rng.randrange(1 << n) | 1 << n)
            labels += ("ghost",)
        candidate = FinitePreorder(labels, tuple(rows))
    if rng.random() < 0.05:
        first = cocone[vertices[0]]
        del first[next(iter(first))]
    return diagram, candidate, cocone


def test_verify_matches_factorization_oracle():
    rng = random.Random(20190)
    reasons = set()
    spans_three_vertices = inside_one_vertex = False
    for _ in range(300):
        diagram, candidate, cocone = _random_verify_request(rng)
        got = preorderdocs.verify_to_doc(verify_colimit(diagram, candidate, cocone))
        assert got == preorderdocs.verify_to_doc(_oracle_verify(diagram, candidate, cocone))
        reasons.add(got.get("reason"))
        nodes = [(v, x) for v in diagram.vertices for x in diagram.preorders[v].elements]
        for cls in _classes(nodes, diagram.identifications()):
            owners = [v for v, _ in cls]
            spans_three_vertices |= len(set(owners)) >= 3
            inside_one_vertex |= len(set(owners)) < len(owners)
    assert spans_three_vertices and inside_one_vertex
    assert reasons == {
        None,
        "cocone map not total",
        "cocone map not order-reflecting",
        "cocone does not commute",
        "cocone has no factorization (forced values conflict)",
        "cocone has no order-reflecting factorization",
        "cocone does not factor uniquely",
    }


# ---------------------------------------------------------------------------
# test preorders of verify_colimit


def _oracle_preorders_on(q):
    """Every set partition into classes with every labelled poset on the
    classes, deduplicated by the least relabelled matrix over all q!
    relabellings, first-seen kept."""
    seen = set()
    result = []
    for part in _set_partitions(list(range(q))):
        blocks = sorted(sorted(b) for b in part)
        block_of = {x: bi for bi, b in enumerate(blocks) for x in b}
        for rel in _posets_on(len(blocks)):
            rows = tuple(
                sum(1 << y for y in range(q) if rel[block_of[x]] >> block_of[y] & 1)
                for x in range(q)
            )
            canon = min(
                tuple(
                    sum((rows[perm[i]] >> perm[j] & 1) << j for j in range(q))
                    for i in range(q)
                )
                for perm in itertools.permutations(range(q))
            )
            if canon not in seen:
                seen.add(canon)
                result.append(rows)
    return result


def test_preorder_counts_match_oeis_a001930():
    assert [len(_preorders_on(q)) for q in range(6)] == [1, 1, 3, 9, 33, 139]


def test_preorders_on_matches_brute_force_oracle():
    for q in range(5):
        assert _preorders_on(q) == _oracle_preorders_on(q)


def test_preorders_on_five_points_is_pinned():
    digest = hashlib.sha256(repr(_preorders_on(5)).encode()).hexdigest()
    assert digest == "1b1ac3706972b6972789cbd234b68fc4393a26d90788ec7df3c56454ede29d22"


def test_preorders_on_six_points_are_the_718_classes():
    # OEIS A001930: 718 preorders on 6 points up to isomorphism
    reps = _preorders_on(6)
    assert len(reps) == 718
    assert len({iso_key(rows) for rows in reps}) == 718


def test_preorders_on_five_points_pairwise_non_isomorphic():
    nx = pytest.importorskip("networkx")

    def graph(rows):
        g = nx.DiGraph()
        g.add_nodes_from(range(5))
        g.add_edges_from((i, j) for i in range(5) for j in range(5) if rows[i] >> j & 1)
        return g

    graphs = [graph(rows) for rows in _preorders_on(5)]
    for a, b in itertools.combinations(graphs, 2):
        assert not nx.is_isomorphic(a, b)


def _brute_force_reflecting_maps(p, q_rows, same=()):
    """Every assignment of p's elements to 0..q-1 in lexicographic order,
    kept when ``_reflection_witness`` finds no pair and element t has the
    value of element ``same[t]``."""
    target = FinitePreorder(tuple(map(str, range(len(q_rows)))), tuple(q_rows))
    return [
        values
        for values in itertools.product(range(len(q_rows)), repeat=len(p))
        if _reflection_witness(p, target, dict(zip(p.elements, map(str, values)))) is None
        and all(values[t] == values[s] for t, s in enumerate(same))
    ]


def _labelled(rows):
    return FinitePreorder(tuple(f"e{i}" for i in range(len(rows))), tuple(rows))


def test_reflecting_maps_match_brute_force_on_small_preorders():
    # every preorder with at most 4 elements, up to isomorphism, into every
    # test preorder with at most 4
    small = [rows for q in range(5) for rows in _preorders_on(q)]
    for rows in small:
        p = _labelled(rows)
        for q_rows in small:
            assert _reflecting_maps_to(p, q_rows) == _brute_force_reflecting_maps(p, q_rows)


def test_reflecting_maps_match_brute_force_into_five_points():
    # random reflexive sources, transitive or not, as verify candidates may be;
    # each also under random equalities, each element tied to itself or to an
    # earlier one, as verify ties the elements of a class
    rng, rng_same = random.Random(13), random.Random(17)
    for q_rows in _preorders_on(5):
        n = rng.randint(1, 4)
        p = _labelled(
            [sum(1 << j for j in range(n) if i == j or rng.random() < 0.4) for i in range(n)]
        )
        assert _reflecting_maps_to(p, q_rows) == _brute_force_reflecting_maps(p, q_rows)
        same = [rng_same.choice([t, rng_same.randrange(t + 1)]) for t in range(n)]
        assert _reflecting_maps_to(p, q_rows, same) == _brute_force_reflecting_maps(p, q_rows, same)


# ---------------------------------------------------------------------------
# directedness


def test_directed_examples():
    assert is_directed(chain("0", "1", "2"))
    assert not is_directed(discrete_preorder(["a", "b"]))
    assert is_directed(complete_preorder(["a", "b"]))


def test_directed_witness_pair():
    report = directedness(discrete_preorder(["a", "b"]))
    assert not report.ok
    assert report.witness()["kind"] == "incomparable_pair"


def test_total_but_cyclic_relation_is_not_directed():
    # a 3-cycle is total yet admits no order-reflecting map to the naturals
    p = FinitePreorder(("a", "b", "c"), (0b011, 0b110, 0b101))
    assert is_total(p)
    assert not is_directed(p)
    assert directedness(p).witness()["kind"] == "no_enumeration"


def _brute_force_directed(p: FinitePreorder) -> bool:
    n = len(p.elements)
    for values in itertools.product(range(n), repeat=n):
        ok = True
        for i in range(n):
            for j in range(n):
                if values[i] <= values[j] and not p.rows[i] >> j & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return n == 0


def test_directedness_matches_brute_force_on_small_preorders():
    for q in range(5):
        for rows in _preorders_on(q):
            labels = tuple(f"e{i}" for i in range(q))
            p = FinitePreorder(labels, rows)
            assert is_directed(p) == _brute_force_directed(p)
            # on transitive carriers directedness is exactly totality
            assert is_directed(p) == is_total(p)


def test_directedness_matches_brute_force_on_random_reflexive_relations():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        labels = tuple(f"e{i}" for i in range(n))
        rows = tuple(
            sum(1 << j for j in range(n) if i == j or rng.random() < 0.5) for i in range(n)
        )
        p = FinitePreorder(labels, rows)
        assert is_directed(p) == _brute_force_directed(p)


def _directedness_oracle(p: FinitePreorder):
    """The greedy peel with the remaining set's mask rebuilt at every step:
    (numbering, incomparable pair, stuck-on elements)."""
    n, rows, e = len(p.elements), p.rows, p.elements
    remaining, order = list(range(n)), []
    while remaining:
        mask = sum(1 << j for j in remaining)
        pick = next((i for i in remaining if rows[i] & mask == mask), None)
        if pick is None:
            stuck = tuple(e[k] for k in remaining)
            for i in remaining:
                for j in remaining:
                    if not rows[i] >> j & 1 and not rows[j] >> i & 1:
                        return (), (e[i], e[j]), stuck
            return (), None, stuck
        order.append(pick)
        remaining.remove(pick)
    return tuple(e[i] for i in order), None, ()


def test_directedness_matches_the_rebuilt_mask_peel():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(0, 9)
        density = rng.random()
        rows = tuple(
            sum(1 << j for j in range(n) if i == j or rng.random() < density) for i in range(n)
        )
        p = FinitePreorder(tuple(f"e{i}" for i in range(n)), rows)
        report = directedness(p)
        got = (report.numbering, report.incomparable_pair, report.stuck_on)
        assert got == _directedness_oracle(p)


def _gather_oracle(mask, positions):
    return sum(1 << a for a, j in enumerate(positions) if mask >> j & 1)


def test_gather_matches_the_bit_loop():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 70)
        # none, one, or many positions, repeats included
        positions = [rng.randrange(n) for _ in range(rng.choice([0, 1, rng.randint(2, 80)]))]
        gather = _gather(positions, n)
        for mask in (0, (1 << n) - 1, rng.getrandbits(n)):
            assert gather(mask) == _gather_oracle(mask, positions)
    assert _gather([], 0)(0) == 0


def test_directed_numbering_chain_and_ties():
    assert directed_numbering(chain("a", "b", "c")) == ("a", "b", "c")
    assert directed_numbering(complete_preorder(["a", "b"])) == ("a", "b")


def test_directed_numbering_is_increasing():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 6)
        labels = [f"e{i}" for i in range(n)]
        pairs = [(a, b) for a in labels for b in labels if rng.random() < 0.6]
        p = generated_preorder(labels, pairs)
        if not is_directed(p):
            with pytest.raises(PreconditionError):
                directed_numbering(p)
            continue
        numbering = directed_numbering(p)
        for i in range(len(numbering)):
            for j in range(i + 1, len(numbering)):
                assert lt(p, numbering[i], numbering[j])


def test_constructor_outputs_reflexive_transitive():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(0, 5)
        labels = [f"e{i}" for i in range(n)]
        pairs = [(a, b) for a in labels for b in labels if rng.random() < 0.4]
        p = generated_preorder(labels, pairs)
        assert p.is_transitive
        for x in labels:
            assert p.le(x, x)


def test_caps_validation():
    from psodkit.config import Caps

    with pytest.raises(InputError):
        Caps(carrier=0)


def test_verify_rejects_overcomplete_candidate():
    # adding relations beyond the rule breaks the injections' reflection
    d = discrete_preorder(["a", "b"])
    s = complete_preorder(["c"])
    diag = PreorderDiagram(("v1", "v2"), {"v1": d, "v2": s})
    out, injections = coproduct([d, s])
    cocone = {"v1": {"a": "a", "b": "b"}, "v2": {"c": "c"}}
    assert verify_colimit(diag, out, cocone).ok
    res = verify_colimit(diag, complete_preorder(["a", "b", "c"]), cocone)
    assert not res.ok and res.reason == "cocone map not order-reflecting"


def test_verify_reads_cocone_images_in_source_order():
    # the first row of the reflection scan reads every image: a witness met
    # before an image outside the candidate wins, otherwise that image raises
    diag = PreorderDiagram(("v",), {"v": discrete_preorder(["a", "b", "c"])})
    candidate = complete_preorder(["x", "y"])
    res = verify_colimit(diag, candidate, {"v": {"a": "x", "b": "y", "c": "zzz"}})
    assert res.witness == {"vertex": "v", "pair": ["a", "b"]}
    with pytest.raises(InputError, match="no element labelled 'zzz'"):
        verify_colimit(diag, candidate, {"v": {"a": "x", "b": "zzz", "c": "y"}})


def test_verify_rejects_overmerged_candidate():
    # collapsing a complete vertex to a point loses factorizations
    p = complete_preorder(["p", "q"])
    diag = PreorderDiagram(("v",), {"v": p})
    merged = complete_preorder(["*"])
    res = verify_colimit(diag, merged, {"v": {"p": "*", "q": "*"}})
    assert not res.ok
    assert "no factorization" in res.reason


def test_verify_rejects_split_candidate():
    # a coequalizer of equal maps must actually merge the two copies
    p = chain("x", "y")
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": p, "v": p},
        (
            DiagramArrow("d0", "u", "v", identity_map(p)),
            DiagramArrow("d1", "u", "v", identity_map(p)),
        ),
    )
    split, injections = coproduct([p, p])
    cocone = {
        "u": {x: injections[0](x) for x in p.elements},
        "v": {x: injections[1](x) for x in p.elements},
    }
    res = verify_colimit(diag, split, cocone)
    assert not res.ok and res.reason == "cocone does not commute"


def test_colimit_zigzag_without_reflecting_cocone_raises():
    u = complete_preorder(["a", "b"])
    v = discrete_preorder(["p", "q"])
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": u, "v": v},
        (
            DiagramArrow("m1", "u", "v", OrderReflectingMap(u, v, {"a": "p", "b": "q"})),
            DiagramArrow("m2", "u", "v", OrderReflectingMap(u, v, {"a": "q", "b": "p"})),
        ),
    )
    # p and q both receive a and b, but p, q are not mutually related
    with pytest.raises(PreconditionError):
        colimit(diag)


def test_colimit_merging_coequalizer_of_different_maps():
    u = complete_preorder(["a", "b"])
    v = complete_preorder(["p", "q"])
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": u, "v": v},
        (
            DiagramArrow("m1", "u", "v", OrderReflectingMap(u, v, {"a": "p", "b": "q"})),
            DiagramArrow("m2", "u", "v", OrderReflectingMap(u, v, {"a": "q", "b": "p"})),
        ),
    )
    res = colimit(diag)
    assert len(res.preorder) == 1


def test_empty_preorder_everywhere():
    empty = complete_preorder([])
    assert empty == discrete_preorder([])
    assert is_directed(empty)
    assert directed_numbering(empty) == ()
    out, injections = coproduct([empty, empty])
    assert len(out) == 0 and len(injections) == 2
