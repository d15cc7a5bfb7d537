"""The character-block builders against pairwise oracles.

Each index is recomputed from its labels or factors with one predicate call
per pair: the rational order of ``Residue.value`` in every coordinate for
finite roots, and for truncations of the infinite root the recursive
definition: factorial levels, then ``cmp_bang_znfact`` in every coordinate.
"""

import functools
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from psodkit.atlas import Chart, ChartAtlas, Overlap, strata_from_atlas
from psodkit.engine import build_infinite_psod, build_root_psod, restrict_to_denominators
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.factorial import EQUAL, LESS, CharTuple, enumerate_characters

from test_engine import smooth_divisor
from test_factorial import build_zdr, build_zdr_stratified, build_zkr, cmp_bang_reference

# the oracle makes (block size)^2 predicate calls, so blocks stay small
MAX_BLOCK = 120
SETTINGS = settings(max_examples=30, deadline=None)


def fraction_le(chi, psi):
    return all(a.value <= b.value for a, b in zip(chi.components, psi.components))


def bang_le(chi, psi):
    return cmp_bang_reference(chi, psi) in (LESS, EQUAL)


def pairwise_rows(entries, same_block_le):
    """Rows of a divisor index from its (block, codim, character) entries:
    deeper codimension below, distinct blocks of equal codimension related
    both ways, one predicate call per pair inside a block."""
    rows = []
    for b, k, c in entries:
        row = 0
        for j, (b2, k2, c2) in enumerate(entries):
            if k > k2 or (k == k2 and (b != b2 or same_block_le(c, c2))):
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def totalized(rows, blocks):
    """Relate same-block pairs both ways where they were incomparable."""
    n = len(rows)
    return tuple(
        rows[i]
        | sum(1 << j for j in range(n) if blocks[j] == blocks[i] and not rows[j] >> i & 1)
        for i in range(n)
    )


def psod_rows(psod, same_block_le):
    factors = [psod.factors[x] for x in psod.index.elements]
    entries = [(f.stratum_id, len(f.character), f.character) for f in factors]
    return pairwise_rows(entries, same_block_le)


@st.composite
def atlases(draw):
    charts = [
        Chart(f"c{ci}", tuple(f"c{ci}b{j}" for j in range(draw(st.integers(1, 3)))))
        for ci in range(draw(st.integers(1, 2)))
    ]
    overlaps = []
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(charts)), draw(st.sampled_from(charts))
        x, y = draw(st.sampled_from(a.branches)), draw(st.sampled_from(b.branches))
        if (a.id, x) != (b.id, y):
            overlaps.append(Overlap(a.id, b.id, {x: y}))
    return strata_from_atlas(ChartAtlas(tuple(charts), tuple(overlaps)))


stratifications = st.one_of(
    st.integers(1, 3).map(simple_crossing),
    st.just(nodal_cubic()),
    atlases(),
)


def max_codim(strat):
    return max(s.codim for s in strat.strata)


@st.composite
def root_cases(draw):
    strat = draw(stratifications)
    d = max_codim(strat)
    r = draw(st.sampled_from([r for r in range(1, 10) if (r - 1) ** d <= MAX_BLOCK]))
    return strat, r, draw(st.booleans())


@st.composite
def infinite_cases(draw):
    strat = draw(stratifications)
    d = max_codim(strat)
    choices = [
        (level, p)
        for level in range(2, 6)
        for p in (None, 2, 3)
        if len(enumerate_characters(1, level, p)) ** d <= MAX_BLOCK
    ]
    level, p = draw(st.sampled_from(choices))
    return strat, level, p, draw(st.booleans())


@functools.cache
def infinite_index(strat, level, coprime_to):
    return build_infinite_psod(strat, level, coprime_to)


@settings(max_examples=20, deadline=None)
@given(st.one_of(
    st.tuples(st.just(smooth_divisor()), st.integers(3, 5), st.sampled_from([None, 2, 3, 5])),
    st.tuples(st.sampled_from([nodal_cubic(), simple_crossing(2)]), st.integers(3, 4),
              st.just(None)),
))
def test_truncations_form_a_directed_system(case):
    # the level-(n-1) truncation is the full sub-preorder of the level-n one
    # on the characters whose denominators divide (n-1)!
    strat, n, p = case
    restricted = restrict_to_denominators(infinite_index(strat, n, p), math.factorial(n - 1))
    lower = infinite_index(strat, n - 1, p)
    assert sorted(restricted.index.elements) == sorted(lower.index.elements)
    assert restricted.index.restrict(lower.index.elements) == lower.index
    assert restricted.factors == lower.factors


@SETTINGS
@given(root_cases())
def test_build_root_psod_matches_pairwise_order(case):
    strat, r, totalize = case
    psod = build_root_psod(strat, r, totalize=totalize)
    want = psod_rows(psod, fraction_le)
    if totalize:
        want = totalized(want, [psod.factors[x].stratum_id for x in psod.index.elements])
    assert psod.index.rows == want


@SETTINGS
@given(infinite_cases())
def test_build_infinite_psod_matches_pairwise_order(case):
    strat, level, p, totalize = case
    psod = build_infinite_psod(strat, level, p, totalize=totalize)
    want = psod_rows(psod, bang_le)
    if totalize:
        want = totalized(want, [psod.factors[x].stratum_id for x in psod.index.elements])
    assert psod.index.rows == want


def parsed_entries(p):
    """(stratum id, codim, character) entries read back from the labels."""
    entries = []
    for x in p.elements:
        sid, _, text = x.rpartition(":")
        chi = CharTuple.parse(text)
        entries.append((sid, len(chi), chi))
    return entries


@SETTINGS
@given(st.integers(0, 3), st.integers(1, 9))
def test_build_zkr_matches_pairwise_order(k, r):
    size = (r - 1) ** k
    if size > MAX_BLOCK:
        return
    p = build_zkr(k, r)
    assert len(p) == size
    assert p.rows == pairwise_rows(parsed_entries(p), fraction_le)


@SETTINGS
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(1, 9))
def test_build_zdr_matches_pairwise_order(codims, r):
    if (r - 1) ** max(codims) > MAX_BLOCK:
        return
    p = build_zdr(codims, r)
    assert p.rows == pairwise_rows(parsed_entries(p), fraction_le)


@SETTINGS
@given(root_cases())
def test_build_zdr_stratified_matches_pairwise_order(case):
    strat, r, _ = case
    p = build_zdr_stratified([(s.id, s.codim) for s in strat.strata], r)
    assert p.rows == pairwise_rows(parsed_entries(p), fraction_le)
