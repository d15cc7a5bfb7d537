"""Builders and verifiers for decomposition index structures.

A ``PsodIndex`` is a preorder whose elements carry factor descriptors: the
source stratum, its character tuple, the rendered target ("Perf of the
stratum's normalization"), and optional K-data.  Builders produce indices for
finite root constructions and truncations of the infinite one; ``glue``
assembles an index over a diagram and reports whether the directedness
hypothesis behind the gluing theorem actually holds; ``filtration`` replays
the iterated-projection argument on a graded object; ``ktheory_report``
produces the direct-sum bookkeeping.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from .config import DEFAULT_CAPS, Caps, formed_bits, written
from .errors import CapExceededError, InputError, PreconditionError
from .factorial import (
    CharKey,
    CharTuple,
    bang_key,
    deepest_first,
    enumerate_characters,
    is_prime,
    starred_tuples,
    stratified_blocks,
    zr_key,
)
from .preorders import (
    DirectednessReport,
    FinitePreorder,
    PreorderDiagram,
    colimit,
    directedness,
    directed_numbering,
)
from .records import record
from .strata import Stratification, Stratum, require_valid

if TYPE_CHECKING:
    from .abelian import FgAbGroup, GradedGroup, GradedHom, GradedLimitResult


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
# gluing over diagrams


@record
class GluingScenario:
    """A diagram of indices with their factor data and optional graded data.

    ``diagram`` holds the index preorders and the per-arrow order-reflecting
    maps; ``psods`` the factor descriptors per vertex; ``graded`` optional
    graded groups per vertex; ``graded_homs`` optional block data per arrow
    (identity blocks are synthesized for contravariant arrows when absent).
    """

    diagram: PreorderDiagram
    psods: Mapping[str, PsodIndex]
    graded: Mapping[str, GradedGroup] = {}
    graded_homs: Mapping[str, GradedHom] = {}

    def __post_init__(self) -> None:
        object.__setattr__(self, "psods", dict(self.psods))
        object.__setattr__(self, "graded", dict(self.graded))
        object.__setattr__(self, "graded_homs", dict(self.graded_homs))
        if set(self.psods) != set(self.diagram.vertices):
            raise InputError("exactly one factor table per vertex required")
        for v, psod in self.psods.items():
            if psod.index != self.diagram.preorders[v]:
                raise InputError(f"vertex {v!r}: factor table index differs from the diagram")
        if self.graded and set(self.graded) != set(self.diagram.vertices):
            raise InputError("graded data must cover every vertex when present")
        for v, g in self.graded.items():
            if g.index != self.diagram.preorders[v]:
                raise InputError(f"vertex {v!r}: graded index differs from the diagram")
        arrows = {a.name: a for a in self.diagram.arrows}
        for name, hom in self.graded_homs.items():
            arrow = arrows.get(name)
            if arrow is None:
                raise InputError(f"graded hom for unknown arrow {name!r}")
            if arrow.orientation != "contravariant":
                raise InputError(
                    f"arrow {name!r}: graded data follows the contravariant "
                    "index-map convention"
                )
            if dict(hom.reindex.mapping) != dict(arrow.map.mapping):
                raise InputError(
                    f"arrow {name!r}: graded hom reindex disagrees with the "
                    "arrow's index map"
                )


@record
class GlueResult:
    psod: PsodIndex
    verdict: DirectednessReport
    kind: str  # "psod" when the directedness hypothesis holds, else "pre-psod only"
    fibers: Mapping[str, tuple[tuple[str, str], ...]]  # glued element -> (vertex, element)
    graded: Optional[GradedLimitResult] = None


def _aggregate_descriptor(
    constituents: Sequence[FactorDescriptor],
) -> FactorDescriptor:
    first = constituents[0]
    if all(c == first for c in constituents[1:]):
        return first
    strata = sorted({c.stratum_id for c in constituents})
    targets = sorted({c.target_label for c in constituents})
    return FactorDescriptor(
        "|".join(strata),
        first.character,
        "lim[" + " | ".join(targets) + "]",
    )


def glue(scenario: GluingScenario, caps: Caps = DEFAULT_CAPS) -> GlueResult:
    """Glue the per-vertex indices over the diagram.

    The result is graded by the colimit of the index diagram; the factor at a
    glued element aggregates the fiber of descriptors above it.  The
    directedness of the colimit (the hypothesis under which gluing yields an
    actual decomposition rather than a semiorthogonal family) is reported as
    a verdict with a witness, never as a failure.  With graded data the piece
    at each element is the limit of its fiber sums.
    """
    from .abelian import graded_limit, identity_graded_hom

    col = colimit(scenario.diagram)
    verdict = directedness(col.preorder)
    fibers: dict[str, list[tuple[str, str]]] = {w: [] for w in col.preorder.elements}
    for v in scenario.diagram.vertices:
        for x in scenario.diagram.preorders[v].elements:
            fibers[col.cocones[v](x)].append((v, x))
    factors = {
        w: _aggregate_descriptor([scenario.psods[v].factors[x] for v, x in up])
        for w, up in fibers.items()
    }
    notes = {"kind": "glued", "directed": "true" if verdict.ok else "false"}
    psod = PsodIndex(col.preorder, factors, notes)
    graded_result = None
    if scenario.graded:
        homs = dict(scenario.graded_homs)
        for a in scenario.diagram.arrows:
            if a.name not in homs:
                if a.orientation != "contravariant":
                    raise PreconditionError(
                        f"arrow {a.name!r}: identity blocks need a contravariant arrow"
                    )
                if scenario.graded[a.tgt] != scenario.graded[a.src]:
                    raise PreconditionError(
                        f"arrow {a.name!r}: identity blocks need equal graded data"
                    )
                homs[a.name] = identity_graded_hom(scenario.graded[a.src], a.map)
        graded_result = graded_limit(scenario.diagram, scenario.graded, homs, col)
    return GlueResult(
        psod,
        verdict,
        "psod" if verdict.ok else "pre-psod only",
        {w: tuple(up) for w, up in fibers.items()},
        graded_result,
    )


# ---------------------------------------------------------------------------
# the filtration algorithm


@record
class FiltrationStep:
    grade: str
    component: tuple[int, ...]
    residual_support: tuple[str, ...]


@record
class FiltrationResult:
    steps: tuple[FiltrationStep, ...]


def filtration(
    psod: PsodIndex, obj: Mapping[str, Sequence[int]]
) -> FiltrationResult:
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
    return FiltrationResult(tuple(steps))


# ---------------------------------------------------------------------------
# K-theory reports


@record
class KTheoryMode:
    kind: str  # "finite" | "infinite" | "kummer_etale"
    r: Optional[int] = None
    level: Optional[int] = None
    p: Optional[int] = None

    @classmethod
    def finite(cls, r: int) -> "KTheoryMode":
        if r < 1:
            raise InputError("r must be at least 1")
        return cls("finite", r=r)

    @classmethod
    def infinite(cls, level: int) -> "KTheoryMode":
        if level < 2:
            raise InputError("truncation level must be at least 2")
        return cls("infinite", level=level)

    @classmethod
    def kummer_etale(cls, p: int, level: int) -> "KTheoryMode":
        if not is_prime(p):
            raise InputError("p must be a prime >= 2")
        if level < 2:
            raise InputError("truncation level must be at least 2")
        return cls("kummer_etale", p=p, level=level)


@record
class KTheoryRow:
    stratum_id: str
    codim: int
    summand: FgAbGroup  # K of the stratum's normalization
    multiplicity: int
    symbolic_multiplicity: str  # exact for finite mode, "countably infinite" otherwise
    contribution: FgAbGroup


@record
class KTheoryReport:
    mode: KTheoryMode
    ambient: FgAbGroup
    rows: tuple[KTheoryRow, ...]
    total: FgAbGroup  # exact total (truncated total outside finite mode)
    truncated: bool

    def rank(self) -> int:
        return self.total.rank


def _char_count(codim: int, mode: KTheoryMode, caps: Caps) -> int:
    """(m - 1) ** codim, the characters of one stratum.  The power is at
    least 2 ** low for an m - 1 of b bits, low = codim * (b - 1); past
    2 ** formed_bits() it has far more digits than Python writes and is
    refused unformed.
    Smaller powers form at once; the report checks the exact counts."""
    if mode.kind == "finite":
        m = mode.r
    else:
        caps.check_level(mode.level)
        m = math.factorial(mode.level)
        if mode.kind == "kummer_etale":
            while m % mode.p == 0:
                m //= mode.p
    bits = formed_bits()
    if codim * ((m - 1).bit_length() - 1) >= bits:
        written(10 ** sys.get_int_max_str_digits(), "K-theory multiplicity")  # raises with a limit
        raise CapExceededError(f"K-theory multiplicity has more than {bits} bits")
    return (m - 1) ** codim


def ktheory_report(
    strat: Stratification,
    kdata: Mapping[str, FgAbGroup],
    mode: KTheoryMode,
    caps: Caps = DEFAULT_CAPS,
) -> KTheoryReport:
    """Direct-sum decomposition of the K-theory of a root construction:
    the ambient group plus, for every stratum, one copy of K of its
    normalization per character.  Exact invariant-factor arithmetic; the
    infinite and Kummer-etale modes total a truncation and carry the
    symbolic multiplicity."""
    from .abelian import FgAbGroup

    require_valid(strat)
    missing = [c for c in strat.all_components() if c not in kdata]
    if missing:
        raise InputError(f"kdata missing for normalization components {missing}")
    ambient = strat.ambient()
    ambient_k = FgAbGroup.zero().direct_sum(*(kdata[c] for c in ambient.norm_components))
    counted = []
    for sid, _ in deepest_first((s.id, s.codim) for s in strat.strata if s.codim > 0):
        s = strat.by_id[sid]
        summand = FgAbGroup.zero().direct_sum(*(kdata[c] for c in s.norm_components))
        counted.append((s, summand, _char_count(s.codim, mode, caps)))
    # every copy of a summand lists its torsion; free rank is only a number
    caps.check_carrier(
        sum(count * len(summand.torsion) for _, summand, count in counted),
        "K-theory torsion",
    )
    written(max((count for _, _, count in counted), default=0), "K-theory multiplicity")
    rows = [
        KTheoryRow(s.id, s.codim, summand, count, f"({mode.r}-1)^{s.codim}" if mode.kind == "finite"
                   else f"countably infinite (truncated: {count})", summand.multiple(count))
        for s, summand, count in counted
    ]
    total = ambient_k.direct_sum(*(row.contribution for row in rows))
    # the largest invariant of a group is its last
    groups = (ambient_k, total, *(g for row in rows for g in (row.summand, row.contribution)))
    written(max(n for g in groups for n in (g.rank, *g.torsion[-1:])), "K-theory rank or torsion")
    return KTheoryReport(mode, ambient_k, tuple(rows), total, mode.kind != "finite")
