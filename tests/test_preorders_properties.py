import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from psodkit import documents as docs
from psodkit import preorderdocs
from psodkit.colimits import colimit, pushout
from psodkit.preorders import (
    DiagramArrow,
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    complete_preorder,
    discrete_preorder,
)

from helpers import generated_preorder
from test_preorders import iso_key


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
