"""Decomposition index structures and their builders.

A ``PsodIndex`` is a preorder whose elements carry factor descriptors: the
source stratum, its character tuple, the rendered target ("Perf of the
stratum's normalization"), and optional K-data.  Builders produce indices for
finite root constructions and truncations of the infinite one;
``filtration`` replays the iterated-projection argument on a graded object.
Gluing over diagrams is in ``gluing`` and K-theory reports in ``kreport``.
The builders import ``factorial`` and ``strata`` when they run; ``filtration``
needs neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from .config import DEFAULT_CAPS, Caps
from .errors import InputError
from .preorders import FinitePreorder, directed_numbering, directedness
from .records import record

if TYPE_CHECKING:
    from .factorial import CharKey
    from .groups import FgAbGroup
    from .residues import CharTuple
    from .strata import Stratification, Stratum


# ---------------------------------------------------------------------------
# factor descriptors and indices


def perf_label(stratum: Stratum) -> str:
    """Rendering of the factor target: a stratum contributes its
    normalization, written without the mark when it is already normal
    (single component labelled like the stratum itself)."""
    if stratum.codim == 0 or stratum.norm_components == (stratum.id,):
        return f"Perf({stratum.id})"
    return f"Perf({stratum.id}~)"


@record
class FactorDescriptor:
    stratum_id: str
    character: CharTuple
    target_label: str
    kdata: Optional[FgAbGroup] = None


@record
class PsodIndex:
    """An index preorder with one factor descriptor per element."""

    index: FinitePreorder
    factors: Mapping[str, FactorDescriptor]
    annotations: Mapping[str, str] = {}

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", dict(self.factors))
        object.__setattr__(self, "annotations", dict(self.annotations))
        if set(self.factors) != set(self.index.elements):
            raise InputError("factor mapping must be total on the index")

    def row_order(self) -> tuple[str, ...]:
        """Deterministic report order: the directed numbering when the index
        is directed, otherwise the construction (linear-extension) order."""
        report = directedness(self.index)
        return report.numbering if report.ok else self.index.elements

    def factor_rows(self) -> list[tuple[str, FactorDescriptor]]:
        return [(x, self.factors[x]) for x in self.row_order()]

    def by_stratum(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for x in self.index.elements:
            out.setdefault(self.factors[x].stratum_id, []).append(x)
        return out

    def stratum_counts(self) -> dict[str, int]:
        return {s: len(xs) for s, xs in self.by_stratum().items()}


def totalize_index(psod: PsodIndex) -> PsodIndex:
    """Add both-way relations between incomparable characters of the same
    stratum (an opt-in coarsening that restores a total layer order)."""
    p = psod.index
    strata = [psod.factors[x].stratum_id for x in p.elements]
    same_stratum: dict[str, int] = {}
    for i, sid in enumerate(strata):
        same_stratum[sid] = same_stratum.get(sid, 0) | 1 << i
    rows = tuple(
        r | (same_stratum[sid] & ~c) for r, c, sid in zip(p.rows, p.columns(), strata)
    )
    return PsodIndex(
        FinitePreorder(p.elements, rows),
        psod.factors,
        dict(psod.annotations) | {"totalized": "true"},
    )


# ---------------------------------------------------------------------------
# root construction builders


def _stratified_psod(
    strat: Stratification,
    characters: Callable[[int], Sequence[CharTuple]],
    key: Callable[[CharTuple], CharKey],
    caps: Caps,
    what: str,
    notes: dict[str, str],
    totalize: bool,
) -> PsodIndex:
    """One character block per stratum, deeper codimension first, with each
    factor targeting the stratum's normalization."""
    from .factorial import stratified_blocks

    index, entries = stratified_blocks(
        [(s.id, s.codim) for s in strat.strata], characters, key, caps, what
    )
    factors = {
        label: FactorDescriptor(sid, chi, perf_label(strat.by_id[sid]))
        for label, (sid, _, chi) in zip(index.elements, entries)
    }
    out = PsodIndex(index, factors, notes)
    return totalize_index(out) if totalize else out


def build_root_psod(
    strat: Stratification, r: int, caps: Caps = DEFAULT_CAPS, totalize: bool = False
) -> PsodIndex:
    """The stratified index for the r-th root construction: one character
    block per stratum ((r-1)^codim starred characters), the ambient stratum
    contributing the single empty character; deeper codimension comes first,
    equal-codimension blocks of distinct strata are mutually related."""
    from .factorial import starred_tuples, zr_key
    from .strata import require_valid

    require_valid(strat)
    if r < 1:
        raise InputError("r must be at least 1")
    notes = {
        "kind": "root",
        "r": str(r),
        # counts follow the starred-character convention; other sources
        # quote r*codim factors per stratum, which is not what this index
        # carries
        "count_convention": "(r-1)^codim factors per stratum",
    }
    return _stratified_psod(
        strat,
        lambda k: starred_tuples(k, r, caps),
        zr_key(r),
        caps,
        "divisor index",
        notes,
        totalize,
    )


def build_infinite_psod(
    strat: Stratification,
    max_level: int,
    coprime_to: Optional[int] = None,
    caps: Caps = DEFAULT_CAPS,
    totalize: bool = False,
) -> PsodIndex:
    """Truncation of the infinite-root index to characters of factorial level
    at most ``max_level``: within a stratum the recursive order on tuples,
    across strata the same codimension rule as the finite case.  The
    untruncated index has countably many characters per positive-codimension
    stratum, recorded symbolically in the annotations."""
    from .factorial import bang_key, enumerate_characters
    from .strata import require_valid

    require_valid(strat)
    notes = {
        "kind": "infinite-truncation",
        "max_level": str(max_level),
        "untruncated": "countably infinite characters per stratum of codimension >= 1",
    }
    if coprime_to is not None:
        notes["kind"] = "kummer-etale-truncation"
        notes["coprime_to"] = str(coprime_to)
    return _stratified_psod(
        strat,
        lambda k: enumerate_characters(k, max_level, coprime_to, caps),
        lambda chi: bang_key(chi, caps),
        caps,
        "truncated index",
        notes,
        totalize,
    )


def restrict_to_denominators(psod: PsodIndex, r: int) -> PsodIndex:
    """Keep only factors whose character denominators divide r (the finite
    sub-index sitting inside a truncation)."""
    keep = [
        x
        for x in psod.index.elements
        if all(r % d == 0 for d in psod.factors[x].character.denominators())
    ]
    return PsodIndex(
        psod.index.restrict(keep),
        {x: psod.factors[x] for x in keep},
        dict(psod.annotations) | {"restricted_to_r": str(r)},
    )


# ---------------------------------------------------------------------------
# the filtration algorithm


@record
class FiltrationStep:
    grade: str
    component: tuple[int, ...]
    residual_support: tuple[str, ...]


def filtration(
    psod: PsodIndex, obj: Mapping[str, Sequence[int]]
) -> tuple[FiltrationStep, ...]:
    """Decompose a graded object by iterated projection: process the directed
    numbering from the top element down, at each step splitting off the
    component in the current grade; the final residual is zero and the
    emitted components sum back to the input."""
    numbering = directed_numbering(psod.index)  # raises when not directed
    unknown = set(obj) - set(psod.index.elements)
    if unknown:
        raise InputError(f"object graded over unknown elements {sorted(unknown)}")
    vectors = {x: tuple(int(c) for c in obj.get(x, ())) for x in psod.index.elements}
    # the grades whose residual is still nonzero, in index order; each grade
    # is split off once, so its component is its input vector
    live = dict.fromkeys(x for x, v in vectors.items() if any(v))
    steps: list[FiltrationStep] = []
    for grade in reversed(numbering):
        live.pop(grade, None)
        steps.append(FiltrationStep(grade, vectors[grade], tuple(live)))
    return tuple(steps)

