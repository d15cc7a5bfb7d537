import hashlib
import itertools
import random
import tracemalloc

import pytest

from psodkit import preorderdocs, verify
from psodkit.documents import dumps, loads, preorder_to_doc
from psodkit.colimits import (
    _certified,
    _class_labels,
    _quotient_preorder,
    colimit,
    coproduct,
    pushout,
)
from psodkit.errors import InputError, InvariantError, PreconditionError
from psodkit.preorders import (
    CONTRAVARIANT,
    DiagramArrow,
    FinitePreorder,
    PreorderDiagram,
    complete_preorder,
    directed_numbering,
    directedness,
    discrete_preorder,
    is_directed,
)
from psodkit.preorders import _bits, _checked_map, _classes, _gather, _reflection_witness
from psodkit.verify import VerifyResult, verify_colimit

from helpers import (
    generated_preorder,
    identity_map,
    posets_on,
    preorders_on,
    reflecting_maps,
    set_partitions,
)


def chain(*labels):
    pairs = [(a, b) for a, b in zip(labels, labels[1:])]
    return generated_preorder(labels, pairs)


def reflects(source, target, mapping):
    return _reflection_witness(source, target, mapping) is None


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
        assert _checked_map(p, p, identity_map(p)) == identity_map(p)


def test_constant_map_from_discrete_not_reflecting():
    d = discrete_preorder(["a", "b"])
    s = complete_preorder(["s"])
    assert _reflection_witness(d, s, {"a": "s", "b": "s"}) == ("a", "b")
    with pytest.raises(InputError, match=r"^map is not order-reflecting: images of \('a', 'b'\)"):
        _checked_map(d, s, {"a": "s", "b": "s"})


def test_injective_map_into_discrete_is_reflecting():
    src = chain("a", "b")
    tgt = discrete_preorder(["u", "v"])
    assert reflects(src, tgt, {"a": "u", "b": "v"})


def test_map_must_be_total():
    p = chain("a", "b")
    with pytest.raises(InputError, match=r"^map not total, missing \['b'\]$"):
        _checked_map(p, p, {"a": "a"})
    with pytest.raises(InputError, match=r"^map defined on unknown labels \['c'\]$"):
        _checked_map(p, p, {"a": "a", "b": "b", "c": "a"})


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
        if not (reflects(p, q, f) and reflects(q, r, g)):
            continue
        # the entry check re-validates reflection
        composed = {x: g[y] for x, y in f.items()}
        assert _checked_map(p, r, composed) == composed


def test_fibers_of_reflecting_maps_are_complete():
    rng = random.Random(23)
    found = 0
    while found < 50:
        labels = [f"x{i}" for i in range(rng.randint(1, 5))]
        pairs = [(a, b) for a in labels for b in labels if rng.random() < 0.5]
        p = generated_preorder(labels, pairs)
        q = generated_preorder(["u", "v"], [("u", "v")] if rng.random() < 0.5 else [])
        f = {x: rng.choice(q.elements) for x in labels}
        if not reflects(p, q, f):
            continue
        found += 1
        for t in q.elements:
            fiber = tuple(x for x in p.elements if f[x] == t)
            sub = p.restrict(fiber)
            assert sub == complete_preorder(fiber)


# ---------------------------------------------------------------------------
# coproducts


def test_coproduct_of_singletons_is_complete_pair():
    out, injections = coproduct([complete_preorder(["a"]), complete_preorder(["b"])])
    assert out == complete_preorder(["a", "b"])
    assert injections == ({"a": "a"}, {"b": "b"})


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
    assert injections == ({"a": "0:a"}, {"a": "1:a"})


# ---------------------------------------------------------------------------
# pushouts


def test_pushout_of_identity_span():
    p = chain("a", "b")
    out, p1, p2 = pushout(p, p, p, identity_map(p), identity_map(p))
    assert out == p
    assert p1 == {"a": "a", "b": "b"} == p2


def test_pushout_over_empty_is_coproduct():
    empty = discrete_preorder([])
    a, b = complete_preorder(["a"]), complete_preorder(["b"])
    out, _, _ = pushout(empty, a, b, {}, {})
    assert out == complete_preorder(["a", "b"])


def test_pushout_three_element_gluing():
    c1 = chain("a", "b")
    c2 = chain("bp", "c")
    pt = complete_preorder(["s"])
    out, p1, p2 = pushout(pt, c1, c2, {"s": "b"}, {"s": "bp"})
    assert out.elements == ("a", "b=bp", "c")
    assert out.le("a", "b=bp") and not out.le("b=bp", "a")
    assert out.le("b=bp", "c") and not out.le("c", "b=bp")
    # vacuous quantification relates the outer elements both ways
    assert out.le("a", "c") and out.le("c", "a")
    assert p1["b"] == "b=bp" == p2["bp"]


def test_pushout_requires_common_source():
    def leg(source, target):
        return {"source": preorder_to_doc(complete_preorder([source])),
                "target": preorder_to_doc(complete_preorder([target])), "map": {source: target}}

    with pytest.raises(InputError, match="^the two legs must share the same source preorder$"):
        preorderdocs.span_from_doc(loads(dumps({"left": leg("s", "a"), "right": leg("t", "b")})))


def test_pushout_checks_both_legs_on_the_apex():
    s, a, b = complete_preorder(["s"]), complete_preorder(["a"]), complete_preorder(["b"])
    with pytest.raises(InputError, match=r"^map defined on unknown labels \['t'\]$"):
        pushout(s, a, b, {"s": "a"}, {"s": "b", "t": "b"})
    with pytest.raises(InputError, match=r"^map not total, missing \['s'\]$"):
        pushout(s, a, b, {}, {"s": "b"})


def test_pushout_shared_labels_merge():
    c1 = chain("a", "m")
    c2 = chain("m", "z")
    pt = complete_preorder(["s"])
    out, _, _ = pushout(pt, c1, c2, {"s": "m"}, {"s": "m"})
    assert "m" in out.elements  # same label on both sides collapses to itself


# ---------------------------------------------------------------------------
# colimits


def test_colimit_constant_diagram_is_identity():
    p = chain("x", "y", "z")
    diag = constant_diagram(["u", "v"], p, [("f", "u", "v")])
    res = colimit(diag)
    assert res.preorder == p
    assert res.cocones["u"] == identity_map(p)


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


def _quotient_oracle(parts, part_order, identifications):
    """``_quotient_preorder`` with each part's preimages read one bit at a
    time: a class loses every class of an element of the part not below all
    of its preimages there."""
    nodes = [(v, x) for v in part_order for x in parts[v].elements]
    classes = _classes(nodes, identifications)
    labels = _class_labels(classes)
    cls_of = {nd: i for i, cls in enumerate(classes) for nd in cls}
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
            for x in range(len(p)):
                if not preim[i] >> x & 1:
                    continue
                bad = preim[i] & ~p.rows[x]
                if bad:
                    y = (bad & -bad).bit_length() - 1
                    raise PreconditionError(
                        f"elements {p.elements[x]!r} and {p.elements[y]!r} "
                        f"of part {v!r} are identified but not mutually related; the "
                        "gluing admits no order-reflecting cocone"
                    )
                common &= p.rows[x]
            for t in range(len(p)):
                if (everything & ~common) >> t & 1:
                    rows[i] &= ~(1 << cls[t])
    carrier = FinitePreorder(tuple(labels), tuple(rows))
    cocones = {v: {x: labels[cls_of[(v, x)]] for x in parts[v].elements} for v in part_order}
    return carrier, cocones


def _random_diagram(rng, sizes):
    """Vertices with random reflexive relations, transitive or not, and up to
    four arrows, self-arrows and contravariant ones included, each with a
    random map kept when it reflects the order (a map out of a complete
    vertex always does, and may merge elements)."""
    vertices = tuple(f"v{i}" for i in range(len(sizes)))
    preorders = {}
    for v, n in zip(vertices, sizes):
        density = rng.choice([0.0, 0.5, 1.0])
        rows = [sum(1 << j for j in range(n) if i == j or rng.random() < density)
                for i in range(n)]
        preorders[v] = FinitePreorder(tuple(f"{v}.{i}" for i in range(n)), tuple(rows))
    arrows = []
    for k in range(rng.randint(0, 4)):
        src, tgt = rng.choice(vertices), rng.choice(vertices)
        orientation = rng.choice(["covariant", CONTRAVARIANT])
        a, b = (src, tgt) if orientation == "covariant" else (tgt, src)
        if preorders[a].elements and not preorders[b].elements:
            continue
        mapping = {x: rng.choice(preorders[b].elements) for x in preorders[a].elements}
        if reflects(preorders[a], preorders[b], mapping):
            arrows.append(DiagramArrow(f"f{k}", src, tgt, mapping, orientation))
    return PreorderDiagram(vertices, preorders, tuple(arrows))


def test_certificate_names_the_part_and_pair_a_built_map_fails_on():
    # the complete carrier on a chain's labels is not its quotient: the
    # identity into it does not reflect, and the certificate says where
    p = chain("a", "b")
    with pytest.raises(InvariantError) as info:
        _certified({"v": p}, complete_preorder(["a", "b"]), {"v": identity_map(p)})
    assert info.value.exit_code == 2
    assert info.value.witness == {"part": "v", "pair": ["b", "a"]}
    assert str(info.value) == "the map from part 'v' does not reflect the order at ('b', 'a')"


def test_quotient_matches_the_bit_loop():
    rng = random.Random(2019)
    seen = set()
    for case in range(600):
        sizes = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        if case % 50 == 0:
            sizes = [rng.randint(30, 70) for _ in range(2)]
        diagram = _random_diagram(rng, sizes)
        args = diagram.preorders, diagram.vertices, list(diagram.identifications())
        try:
            want = _quotient_oracle(*args)
        except PreconditionError as e:
            with pytest.raises(PreconditionError) as got:
                _quotient_preorder(*args)
            assert str(got.value) == str(e)
            seen.add("zigzag")
            continue
        assert _quotient_preorder(*args) == want
        seen.update(a.orientation for a in diagram.arrows if a.src != a.tgt)
        if any(a.src == a.tgt for a in diagram.arrows):
            seen.add("self")
        carrier, cocones = want
        if any(len(set(m.values())) < len(m) for m in cocones.values()):
            seen.add("two preimages in one part")
    assert seen == {"zigzag", "covariant", CONTRAVARIANT, "self", "two preimages in one part"}
    # two classes break in part v, which meets them in the other order: the
    # message names the pair of the class that comes first
    u, v = complete_preorder(["a", "b"]), discrete_preorder(["p", "q", "r", "s"])
    diagram = PreorderDiagram(("u", "v"), {"u": u, "v": v}, (
        DiagramArrow("f", "u", "v", {"a": "r", "b": "p"}),
        DiagramArrow("g", "u", "v", {"a": "s", "b": "q"}),
    ))
    args = diagram.preorders, diagram.vertices, list(diagram.identifications())
    with pytest.raises(PreconditionError, match="elements 'r' and 's' of part 'v'"):
        _quotient_oracle(*args)
    with pytest.raises(PreconditionError, match="elements 'r' and 's' of part 'v'"):
        _quotient_preorder(*args)


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
    # five elements that are not the quotient get a witness like any other
    p = complete_preorder(["a", "b", "c", "d", "e"])
    diag = PreorderDiagram(("v",), {"v": p})
    candidate, cocone = discrete_preorder(p.elements), {"v": {x: x for x in p.elements}}
    res = verify_colimit(diag, candidate, cocone)
    assert preorderdocs.verify_to_doc(res) == {
        "ok": False,
        "reason": "cocone has no order-reflecting factorization",
        "witness": {
            "q_size": 5,
            "q_rows": [3, 2, 4, 8, 16],
            "cocone": {"v": {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}},
            "solutions": 0,
        },
    }
    assert _witness_holds(diag, candidate, cocone, res)
    # a cocone image outside the candidate is an input error at any size
    with pytest.raises(InputError, match="no element labelled 'zzz'"):
        verify_colimit(diag, p, {"v": {x: "zzz" if x == "e" else x for x in p.elements}})


def test_verify_accepts_an_oversized_quotient():
    p = complete_preorder(["a", "b", "c", "d", "e"])
    diag = PreorderDiagram(("v",), {"v": p})
    assert verify_colimit(diag, p, {"v": {x: x for x in p.elements}}) == VerifyResult(True)
    # the coproduct of five points, its elements listed in another order
    points = [complete_preorder([x]) for x in "abcde"]
    diag = PreorderDiagram(tuple("vwxyz"), dict(zip("vwxyz", points)))
    out, _ = coproduct(points)
    shuffled = out.restrict(["c", "a", "e", "b", "d"])
    cocone = {v: {x: x} for v, x in zip("vwxyz", "abcde")}
    assert verify_colimit(diag, shuffled, cocone) == VerifyResult(True)
    # one relation fewer is not the quotient
    rows = list(shuffled.rows)
    rows[0] ^= 1 << 1
    perturbed = FinitePreorder(shuffled.elements, tuple(rows))
    res = verify_colimit(diag, perturbed, cocone)
    assert res.reason == "cocone has no order-reflecting factorization"
    assert res.witness["q_rows"] == [1, 2, 4 | 1, 8, 16]
    assert _witness_holds(diag, perturbed, cocone, res)


def test_verify_diagram_cap():
    # there is none: a diagram of 13 elements verifies, and one relation
    # fewer in the candidate is rejected with a witness
    p = complete_preorder([f"x{i}" for i in range(13)])
    diag = PreorderDiagram(("v",), {"v": p})
    cocone = {"v": {x: x for x in p.elements}}
    assert verify_colimit(diag, p, cocone) == VerifyResult(True)
    rows = list(p.rows)
    rows[12] ^= 1
    candidate = FinitePreorder(p.elements, tuple(rows))
    res = verify_colimit(diag, candidate, cocone)
    assert res.witness["q_rows"] == [1 << i for i in range(12)] + [1 << 12 | 1]
    assert _witness_holds(diag, candidate, cocone, res)


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


def test_verify_names_cocone_labels_outside_the_vertex():
    # a total cocone with an extra label is not "not total"; a cocone that
    # both misses and adds labels is, as missing labels are checked first
    p = discrete_preorder(["a", "b"])
    diag = PreorderDiagram(("u",), {"u": p})
    res = verify_colimit(diag, p, {"u": {"a": "a", "b": "b", "c": "a"}})
    assert preorderdocs.verify_to_doc(res) == {
        "ok": False,
        "reason": "cocone map defined on unknown labels",
        "witness": {"vertex": "u", "labels": ["c"]},
    }
    res = verify_colimit(diag, p, {"u": {"a": "a", "c": "a"}})
    assert preorderdocs.verify_to_doc(res) == {
        "ok": False, "reason": "cocone map not total", "witness": {"vertex": "u"}
    }


def test_verify_rejects_unused_candidate_element():
    s = complete_preorder(["a"])
    diag = PreorderDiagram(("v",), {"v": s})
    padded = complete_preorder(["a", "ghost"])
    res = verify_colimit(diag, padded, {"v": {"a": "a"}})
    assert not res.ok


def test_verify_three_element_gluing():
    c1, c2, pt = chain("a", "b"), chain("bp", "c"), complete_preorder(["s"])
    left, right = {"s": "b"}, {"s": "bp"}
    out, p1, p2 = pushout(pt, c1, c2, left, right)
    diag = PreorderDiagram(
        ("apex", "l", "r"),
        {"apex": pt, "l": c1, "r": c2},
        (
            DiagramArrow("f", "apex", "l", left),
            DiagramArrow("g", "apex", "r", right),
        ),
    )
    cocone = {
        "apex": {"s": p1["b"]},
        "l": p1,
        "r": p2,
    }
    assert verify_colimit(diag, out, cocone).ok


def test_verify_rejection_witness_is_pinned():
    # a bijection onto a candidate that lacks a <= b: the discrete preorder
    # with a <= b added receives the identity cocone, whose one factorization
    # does not reflect
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
            "q_size": 4,
            "q_rows": [3, 2, 4, 8],
            "cocone": {"v0": {"a": 0, "b": 1}, "v1": {"c": 2, "d": 3}},
            "solutions": 0,
        },
    }
    assert _witness_holds(diag, candidate, cocone, res)


def test_verify_witness_may_need_four_points():
    # a reflecting map out of v1 needs four pairwise incomparable points, so no
    # Q with at most 3 points receives a cocone; on the discrete 4 points, a
    # cocone that sends e and a apart has no factorization through the
    # candidate, whose A they share.  The smallest witness has 4 points, and
    # verify gives the discrete preorder on the 5 classes.
    diagram = PreorderDiagram(
        ("v1", "v2"), {"v1": discrete_preorder("abcd"), "v2": discrete_preorder("e")}
    )
    candidate = discrete_preorder("ABCD")
    cocone = {"v1": dict(zip("abcd", "ABCD")), "v2": {"e": "A"}}
    res = verify_colimit(diagram, candidate, cocone)
    assert preorderdocs.verify_to_doc(res) == {
        "ok": False,
        "reason": "cocone has no factorization (forced values conflict)",
        "witness": {"q_size": 5, "q_rows": [1, 2, 4, 8, 16]},
    }
    assert _witness_holds(diagram, candidate, cocone, res)
    smallest = _oracle_verify(diagram, candidate, cocone)
    assert smallest.reason == res.reason
    assert smallest.witness == {"q_size": 4, "q_rows": [1, 2, 4, 8]}


def _oracle_verify(diagram, candidate, cocone):
    """verify_colimit by factorizations: each commuting reflecting cocone
    into Q forces h on the images of the cocone, and every value is tried on
    the candidate elements outside them."""
    for v in diagram.vertices:
        p, mp = diagram.preorders[v], cocone[v]
        if any(x not in mp for x in p.elements):
            return VerifyResult(False, "cocone map not total", {"vertex": v})
        if len(mp) > len(p):
            extra = sorted(x for x in mp if x not in p.elements)
            return VerifyResult(
                False, "cocone map defined on unknown labels", {"vertex": v, "labels": extra}
            )
        for x, y in itertools.product(p.elements, repeat=2):
            if candidate.le(mp[x], mp[y]) and not p.le(x, y):
                return VerifyResult(
                    False, "cocone map not order-reflecting", {"vertex": v, "pair": [x, y]}
                )
    maps = [
        (a.src, a.tgt, a.map) if a.orientation == "covariant" else (a.tgt, a.src, a.map)
        for a in diagram.arrows
    ]
    for u, v, mapping in maps:
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
        for u, v, mapping in maps
        for t, x in enumerate(diagram.preorders[u].elements)
    ]
    for q in range(n + 2):
        for q_rows in preorders_on(q):
            per_vertex = [reflecting_maps(diagram.preorders[v], q_rows) for v in vertices]
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


_FACTORIZATION_REASONS = {
    "cocone has no factorization (forced values conflict)": None,
    "cocone has no order-reflecting factorization": 0,
    "cocone does not factor uniquely": 2,
}


def _reflects(rows, h, q_rows):
    """Whether h(i) <= h(j) in Q implies i <= j in ``rows``."""
    return all(rows[i] >> j & 1 for i in range(len(h)) for j in range(len(h))
               if q_rows[h[i]] >> h[j] & 1)


def _witness_holds(diagram, candidate, cocone, res):
    """Whether the rejection ``res`` of a request that passes steps (0) and
    (a) carries a valid witness, by brute force.  Q must be a preorder.  Its
    cocone, read on the quotient's classes, must reflect out of the
    quotient, and each vertex's part must reflect out of that vertex.  The
    maps h: candidate -> Q that reflect and induce it must number as the
    reason says, at most 2 counted.  For conflicting forced values there is
    no cocone to read: some reflecting map out of the quotient must take two
    values on the classes of one candidate element."""
    w = res.witness
    q_rows = w["q_rows"]
    q = len(q_rows)
    if w["q_size"] != q or not all(
        r >> i & 1 and all(q_rows[j] & ~r == 0 for j in _bits(r)) for i, r in enumerate(q_rows)
    ):
        return False
    quotient, labels = _quotient_preorder(
        diagram.preorders, diagram.vertices, diagram.identifications()
    )
    classes = {label: a for a, label in enumerate(quotient.elements)}
    perm = [0] * len(quotient)
    for v in diagram.vertices:
        for x, y in cocone[v].items():
            perm[classes[labels[v][x]]] = candidate.index(y)
    expected = _FACTORIZATION_REASONS[res.reason]
    if expected is None:
        return set(w) == {"q_size", "q_rows"} and any(
            _reflects(quotient.rows, g, q_rows)
            and len({(k, val) for k, val in zip(perm, g)}) > len(set(perm))
            for g in itertools.product(range(q), repeat=len(quotient))
        )
    g = [None] * len(quotient)
    for v in diagram.vertices:
        p = diagram.preorders[v]
        h = [w["cocone"][v][x] for x in p.elements]
        if not _reflects(p.rows, h, q_rows):
            return False
        for x, val in zip(p.elements, h):
            a = classes[labels[v][x]]
            if g[a] not in (None, val):
                return False
            g[a] = val
    if not _reflects(quotient.rows, g, q_rows):
        return False
    forced = {}
    if any(forced.setdefault(k, val) != val for k, val in zip(perm, g)):
        return False
    free = [k for k in range(len(candidate)) if k not in forced]
    count = 0
    for choice in itertools.product(range(q), repeat=len(free)):
        forced.update(zip(free, choice))
        count += _reflects(candidate.rows, [forced[k] for k in range(len(candidate))], q_rows)
        if count == 2:
            break
    return count == expected == w["solutions"]


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
    element or is defined on a label outside its vertex."""
    vertices = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
    preorders = {
        v: _random_generated_preorder(rng, [v + c for c in "ab"[: rng.randint(1, 2)]])
        for v in vertices
    }
    arrows = []
    for i in range(rng.randint(0, 3)):
        u, v = rng.choice(vertices), rng.choice(vertices)
        options = reflecting_maps(preorders[u], preorders[v].rows)
        if options:
            images = [preorders[v].elements[k] for k in rng.choice(options)]
            mapping = dict(zip(preorders[u].elements, images))
            arrows.append(DiagramArrow(f"a{i}", u, v, mapping))
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
        cocone = {v: dict(m) for v, m in res.cocones.items()}
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
    if rng.random() < 0.05:
        cocone[rng.choice(vertices)]["stray"] = rng.choice(candidate.elements)
    return diagram, candidate, cocone


def test_verify_matches_factorization_oracle():
    rng = random.Random(20190)
    reasons = set()
    spans_three_vertices = inside_one_vertex = False
    for _ in range(300):
        diagram, candidate, cocone = _random_verify_request(rng)
        res = verify_colimit(diagram, candidate, cocone)
        oracle = _oracle_verify(diagram, candidate, cocone)
        # the oracle's witness is the first it finds; verify builds its own
        if res.reason in _FACTORIZATION_REASONS:
            assert oracle.reason in _FACTORIZATION_REASONS
            assert _witness_holds(diagram, candidate, cocone, res)
        else:
            assert res == oracle
        reasons.add(res.reason or None)
        nodes = [(v, x) for v in diagram.vertices for x in diagram.preorders[v].elements]
        for cls in _classes(nodes, diagram.identifications()):
            owners = [v for v, _ in cls]
            spans_three_vertices |= len(set(owners)) >= 3
            inside_one_vertex |= len(set(owners)) < len(owners)
    assert spans_three_vertices and inside_one_vertex
    assert reasons == {
        None,
        "cocone map not total",
        "cocone map defined on unknown labels",
        "cocone map not order-reflecting",
        "cocone does not commute",
        "cocone has no factorization (forced values conflict)",
        "cocone has no order-reflecting factorization",
        "cocone does not factor uniquely",
    }


# ---------------------------------------------------------------------------
# test preorders of the factorization oracle


def _oracle_preorders_on(q):
    """Every set partition into classes with every labelled poset on the
    classes, deduplicated by the least relabelled matrix over all q!
    relabellings, first-seen kept."""
    seen = set()
    result = []
    for part in set_partitions(list(range(q))):
        blocks = sorted(sorted(b) for b in part)
        block_of = {x: bi for bi, b in enumerate(blocks) for x in b}
        for rel in posets_on(len(blocks)):
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
    assert [len(preorders_on(q)) for q in range(6)] == [1, 1, 3, 9, 33, 139]


def test_preorders_on_matches_brute_force_oracle():
    for q in range(5):
        assert preorders_on(q) == _oracle_preorders_on(q)


def test_preorders_on_five_points_is_pinned():
    digest = hashlib.sha256(repr(preorders_on(5)).encode()).hexdigest()
    assert digest == "1b1ac3706972b6972789cbd234b68fc4393a26d90788ec7df3c56454ede29d22"


def test_preorders_on_six_points_are_the_718_classes():
    # OEIS A001930: 718 preorders on 6 points up to isomorphism
    reps = preorders_on(6)
    assert len(reps) == 718
    assert len({iso_key(rows) for rows in reps}) == 718


def test_preorders_on_five_points_pairwise_non_isomorphic():
    nx = pytest.importorskip("networkx")

    def graph(rows):
        g = nx.DiGraph()
        g.add_nodes_from(range(5))
        g.add_edges_from((i, j) for i in range(5) for j in range(5) if rows[i] >> j & 1)
        return g

    graphs = [graph(rows) for rows in preorders_on(5)]
    for a, b in itertools.combinations(graphs, 2):
        assert not nx.is_isomorphic(a, b)


def test_maps_out_of_the_quotient_are_the_tied_maps_out_of_the_union():
    # the step of verify's proof that reads the cocones as reflecting maps
    # out of the quotient: a map g on the classes reflects out of the
    # quotient exactly when g spread to the nodes reflects out of the
    # coproduct of the vertices, into every Q with at most 4 points; a map
    # on the nodes that commutes is constant on each class, so it is spread
    rng = random.Random(26)
    checked = set()
    tied_across = tied_within = False
    while len(checked) < 40 or not (tied_across and tied_within):
        diagram, candidate, cocone = _random_verify_request(rng)
        try:
            if verify._cocone_failure(diagram, candidate, cocone) is not None:
                continue
        except InputError:
            continue
        quotient, labels = _quotient_preorder(
            diagram.preorders, diagram.vertices, diagram.identifications()
        )
        cls = {label: i for i, label in enumerate(quotient.elements)}
        nodes = [(v, x) for v in diagram.vertices for x in diagram.preorders[v].elements]
        union, _ = coproduct([diagram.preorders[v] for v in diagram.vertices])
        spread = [cls[labels[v][x]] for v, x in nodes]
        checked.add(repr((diagram, candidate)))
        for c in _classes(nodes, diagram.identifications()):
            tied_across |= len({v for v, _ in c}) > 1
            tied_within |= len({v for v, _ in c}) < len(c)
        for q in range(5):
            for q_rows in preorders_on(q):
                for g in itertools.product(range(q), repeat=len(quotient)):
                    assert _reflects(quotient.rows, g, q_rows) == _reflects(
                        union.rows, [g[c] for c in spread], q_rows
                    )


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
        for rows in preorders_on(q):
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
        # none, one, or many positions, repeats and the padding position n
        # included
        positions = [rng.randrange(n + 1) for _ in range(rng.choice([0, 1, rng.randint(2, 80)]))]
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
    # every image is looked up before the reflection scan: an image outside
    # the candidate is an input error (exit 2) wherever it sits, even after
    # a pair that would witness a failed reflection
    source = discrete_preorder(["a", "b", "c"])
    diag = PreorderDiagram(("v",), {"v": source})
    candidate = complete_preorder(["x", "y"])
    for mapping in ({"a": "x", "b": "y", "c": "zzz"}, {"a": "x", "b": "zzz", "c": "y"}):
        with pytest.raises(InputError, match="^no element labelled 'zzz'$") as info:
            verify_colimit(diag, candidate, {"v": mapping})
        assert info.value.exit_code == 2
        with pytest.raises(InputError, match="^no element labelled 'zzz'$"):
            _checked_map(source, candidate, mapping)


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
        "u": injections[0],
        "v": injections[1],
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
            DiagramArrow("m1", "u", "v", {"a": "p", "b": "q"}),
            DiagramArrow("m2", "u", "v", {"a": "q", "b": "p"}),
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
            DiagramArrow("m1", "u", "v", {"a": "p", "b": "q"}),
            DiagramArrow("m2", "u", "v", {"a": "q", "b": "p"}),
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
