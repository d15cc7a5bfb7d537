import pytest

pytest.importorskip("hypothesis")

from operator import itemgetter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psodkit import documents as docs
from psodkit import preorderdocs
from psodkit.colimits import _quotient_preorder, colimit, pushout
from psodkit.errors import PreconditionError
from psodkit.preorders import (
    CONTRAVARIANT,
    DiagramArrow,
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    _gather,
    complete_preorder,
    discrete_preorder,
)

from psodkit.verify import VerifyResult, _cocone_failure, _is_quotient, verify_colimit

from helpers import generated_preorder, preorders_on, reflecting_maps
from test_preorders import _oracle_verify, _witness_holds, iso_key


@st.composite
def _relabelled_preorders(draw):
    q = draw(st.integers(0, 5))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=8)
        if q
        else st.just([])
    )
    perm = draw(st.permutations(range(q)))
    labels = [f"e{i}" for i in range(q)]
    rows = generated_preorder(labels, [(labels[x], labels[y]) for x, y in pairs]).rows
    moved = [0] * q
    for x in range(q):
        for y in range(q):
            if rows[x] >> y & 1:
                moved[perm[x]] |= 1 << perm[y]
    return rows, tuple(moved)


@given(_relabelled_preorders())
def test_iso_key_invariant_under_relabelling(pair):
    rows, moved = pair
    assert iso_key(rows) == iso_key(moved)


@st.composite
def _reflexive_relations(draw):
    n = draw(st.integers(0, 7))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n))
    return FinitePreorder(tuple(f"e{i}" for i in range(n)), rows)


@given(_reflexive_relations())
def test_preorder_document_roundtrip(p):
    # non-transitive relations included: the document stores any reflexive one
    doc = docs.loads(docs.dumps(docs.preorder_to_doc(p)))
    assert doc["leq"] == [[p.le(x, y) for y in p.elements] for x in p.elements]
    assert preorderdocs.preorder_from_doc(doc) == p


# Dotted names make vertex-qualified labels collide, as vertex "a" with
# element "b.a" and vertex "a.b" with element "a" do; a name such as "a=2.b"
# reads like the joined label of an element identified across a pushout.
_DOTTED = st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3).map(".".join)
_JOINED = st.sampled_from(["a", "b", "a=b", "a=2.b", "a:b", "a#1"])


def _labels(draw, names):
    return draw(st.lists(names, min_size=1, max_size=4, unique=True))


def _any_map(draw, source, target):
    """A map out of a complete preorder: every one reflects the order."""
    mapping = {x: draw(st.sampled_from(target.elements)) for x in source.elements}
    return OrderReflectingMap(source, target, mapping)


@st.composite
def _named_diagrams(draw):
    """Discrete vertices, and complete ones joined by arrows with any maps."""
    vertices = _labels(draw, _DOTTED)
    preorders = {
        v: draw(st.sampled_from([complete_preorder, discrete_preorder]))(_labels(draw, _DOTTED))
        for v in vertices
    }
    whole = [v for v in vertices if len(set(preorders[v].rows)) == 1]
    arrows = []
    for k in range(draw(st.integers(0, 3)) if whole else 0):
        src, tgt = draw(st.sampled_from(whole)), draw(st.sampled_from(whole))
        arrows.append(DiagramArrow(f"f{k}", src, tgt, _any_map(draw, preorders[src], preorders[tgt])))
    return PreorderDiagram(tuple(vertices), preorders, tuple(arrows))


@settings(max_examples=200)
@given(_named_diagrams())
def test_colimit_labels_are_pairwise_distinct(diagram):
    res = colimit(diagram)
    labels = res.preorder.elements
    assert len(set(labels)) == len(labels)
    for v, cocone in res.cocones.items():
        assert set(cocone.mapping) == set(diagram.preorders[v].elements)


@st.composite
def _named_spans(draw):
    source, left, right = (complete_preorder(_labels(draw, _JOINED)) for _ in range(3))
    return _any_map(draw, source, left), _any_map(draw, source, right)


@settings(max_examples=200)
@given(_named_spans())
def test_pushout_labels_are_pairwise_distinct(span):
    carrier, p1, p2 = pushout(*span)
    assert len(set(carrier.elements)) == len(carrier.elements)
    assert set(p1.mapping.values()) | set(p2.mapping.values()) == set(carrier.elements)


# verify_colimit against the quotient


@st.composite
def _small_diagrams(draw, max_vertices=3, max_size=3):
    """Up to ``max_vertices`` vertices of up to ``max_size`` elements with any
    reflexive relation, transitive or not, and up to four arrows between them,
    self-arrows and contravariant ones included, each with an order-reflecting
    map; such maps may merge mutually related elements, so a class of the
    arrows may hold two elements of one vertex."""
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(1, max_vertices))))
    preorders = {}
    for v in vertices:
        n = draw(st.integers(1, max_size))
        rows = tuple(draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n))
        preorders[v] = FinitePreorder(tuple(f"{v}{c}" for c in "abc"[:n]), rows)
    arrows = []
    for k in range(draw(st.integers(0, 4))):
        src, tgt = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
        orientation = draw(st.sampled_from(["covariant", CONTRAVARIANT]))
        a, b = (src, tgt) if orientation == "covariant" else (tgt, src)
        options = reflecting_maps(preorders[a], preorders[b].rows)
        if options:
            images = draw(st.sampled_from(options))
            mapping = {x: preorders[b].elements[i] for x, i in zip(preorders[a].elements, images)}
            arrows.append(DiagramArrow(f"f{k}", src, tgt,
                                       OrderReflectingMap(preorders[a], preorders[b], mapping),
                                       orientation))
    return PreorderDiagram(vertices, preorders, tuple(arrows))


@st.composite
def _quotient_requests(draw):
    """A diagram with a quotient of at most 4 classes, the quotient with its
    elements listed in any order, and the quotient's cocone."""
    diagram = draw(_small_diagrams())
    try:
        carrier, cocone = _quotient_preorder(
            diagram.preorders, diagram.vertices, diagram.identifications()
        )
    except PreconditionError:
        assume(False)
    assume(len(carrier) <= 4)
    order = draw(st.permutations(carrier.elements))
    return diagram, carrier.restrict(order), cocone


@settings(max_examples=100, deadline=None)
@given(_quotient_requests())
def test_the_enumeration_finds_no_witness_where_the_quotient_criterion_holds(quotient):
    diagram, candidate, cocone = quotient
    assert _cocone_failure(diagram, candidate, cocone) is None
    carrier, labels = _quotient_preorder(
        diagram.preorders, diagram.vertices, diagram.identifications()
    )
    assert labels == cocone
    perm = [candidate.index(x) for x in carrier.elements]
    assert _is_quotient(candidate, carrier, perm)
    assert verify_colimit(diagram, candidate, cocone) == VerifyResult(True)
    # over every Q with at most 3 points, composing with the cocone takes the
    # reflecting maps out of the candidate one to one onto the reflecting
    # maps out of the quotient, which are the cocones
    for q in range(4):
        for q_rows in preorders_on(q):
            induced = sorted(tuple(h[k] for k in perm) for h in reflecting_maps(candidate, q_rows))
            assert induced == reflecting_maps(carrier, q_rows)


@st.composite
def _candidates(draw):
    """A diagram whose quotient has at most 6 classes, and a candidate of up
    to 6 elements: the classes sent one to one onto it, or to any elements
    (merged, or missing some), with every relation the quotient allows
    between their images, or with some of those dropped."""
    diagram = draw(_small_diagrams())
    try:
        quotient, labels = _quotient_preorder(
            diagram.preorders, diagram.vertices, diagram.identifications()
        )
    except PreconditionError:
        assume(False)
    m = len(quotient)
    assume(m <= 6)
    if draw(st.booleans()):
        n, perm = m, draw(st.permutations(range(m)))
    else:
        n = draw(st.integers(1, 6))
        perm = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    preimages = [[a for a, k in enumerate(perm) if k == i] for i in range(n)]
    dropped = draw(st.one_of(st.just(0), st.integers(0, (1 << n * n) - 1)))
    rows = tuple(
        sum(
            1 << j
            for j in range(n)
            if i == j
            or not dropped >> (i * n + j) & 1
            and all(quotient.rows[a] >> b & 1 for a in preimages[i] for b in preimages[j])
        )
        for i in range(n)
    )
    elements = tuple(f"c{i}" for i in range(n))
    cls = {label: a for a, label in enumerate(quotient.elements)}
    cocone = {
        v: {x: elements[perm[cls[label]]] for x, label in ls.items()} for v, ls in labels.items()
    }
    return diagram, FinitePreorder(elements, rows), cocone


@settings(max_examples=200, deadline=None)
@given(_candidates())
def test_verify_accepts_the_quotient_and_its_witnesses_hold(request):
    diagram, candidate, cocone = request
    assume(_cocone_failure(diagram, candidate, cocone) is None)
    quotient, labels = _quotient_preorder(
        diagram.preorders, diagram.vertices, diagram.identifications()
    )
    cls = {label: a for a, label in enumerate(quotient.elements)}
    perm = [0] * len(quotient)
    for v, ls in labels.items():
        for x, label in ls.items():
            perm[cls[label]] = candidate.index(cocone[v][x])
    res = verify_colimit(diagram, candidate, cocone)
    assert res.ok == _is_quotient(candidate, quotient, perm)
    assert res.ok or _witness_holds(diagram, candidate, cocone, res)


@settings(max_examples=60, deadline=None)
@given(_small_diagrams(max_size=2))
def test_colimit_output_passes_verify(diagram):
    # the colimit verifies, by the quotient and by the factorization oracle
    try:
        res = colimit(diagram)
    except PreconditionError:
        assume(False)
    assume(len(res.preorder) <= 3)
    cocone = {v: dict(m.mapping) for v, m in res.cocones.items()}
    assert verify_colimit(diagram, res.preorder, cocone) == VerifyResult(True)
    assert _oracle_verify(diagram, res.preorder, cocone) == VerifyResult(True)


def _string_gather(positions, n):
    """``_gather`` as it read before its identity case: pick one character
    per position from the mask's bits, padding included, and join."""
    if not positions:
        return lambda mask: 0
    pick = itemgetter(*reversed(positions))
    return lambda mask: int("".join(pick(format(mask, f"0{n + 1}b")[::-1])), 2)


@st.composite
def _gathers(draw):
    """A width n, positions in 0..n (n is the padding position), a
    permutation of 0..n-1 or exactly 0..n-1, and an n-bit mask."""
    n = draw(st.integers(0, 70))
    kind = draw(st.sampled_from(["identity", "permutation", "any"]))
    if kind == "identity":
        positions = list(range(n))
    elif kind == "permutation":
        positions = draw(st.permutations(range(n)))
    else:
        positions = draw(st.lists(st.integers(0, n), max_size=80))
    return positions, n, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=300)
@given(_gathers())
def test_gather_matches_the_string_path(case):
    positions, n, mask = case
    assert _gather(positions, n)(mask) == _string_gather(positions, n)(mask)
