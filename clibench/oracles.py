"""Reference computations for psodkit's CLI outputs.

Nothing here imports psodkit.  Every expected value is recomputed from the
definitions: residues are ``Fraction``s, the recursive order on Z_{n!} is
followed through the quotient maps Z_{n!} -> Z_n, factor counts come from
closed forms, and group totals from prime-power bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence


# ---------------------------------------------------------------------------
# residues and their text form


def res_str(x: Fraction) -> str:
    return "0" if x == 0 else f"{x.numerator}/{x.denominator}"


def chars_str(t: Sequence[Fraction]) -> str:
    return "(" + ",".join(res_str(c) for c in t) + ")"


def wrap(x: Fraction) -> Fraction:
    """The representative of x mod 1 in (-1, 0]."""
    return x - math.ceil(x)


def starred_zr(r: int) -> list[Fraction]:
    """Z_r without 0, ascending in the rational order."""
    return [Fraction(-p, r) for p in range(r - 1, 0, -1)]


def factorial_level(t: Sequence[Fraction]) -> int:
    """The least n >= 2 with every denominator dividing n!."""
    n = 2
    while any(math.factorial(n) % c.denominator for c in t):
        n += 1
    return n


def bang_key(x: Fraction, n: int) -> tuple[Fraction, ...]:
    """Sort key of x in Z_{n!} under the recursive order: the image in Z_n
    under multiplication by (n-1)! comes first, then the key of the fiber
    coordinate in Z_{(n-1)!}."""
    if n == 1:
        return ()
    image = wrap(math.factorial(n - 1) * x)
    fiber = wrap(x - image / math.factorial(n - 1))
    return (image,) + bang_key(fiber, n - 1)


# ---------------------------------------------------------------------------
# stratifications


class Stratum(NamedTuple):
    id: str
    codim: int
    comps: tuple[str, ...]


class Strat(NamedTuple):
    strata: tuple[Stratum, ...]
    closure: tuple[tuple[str, str], ...]

    def doc(self) -> dict:
        return {
            "strata": [
                {"id": s.id, "codim": s.codim, "norm_components": list(s.comps)}
                for s in self.strata
            ],
            "closure": [list(p) for p in self.closure],
        }


def crossing(ambient: str, branches: Sequence[str], order: Sequence[int]) -> Strat:
    """The coordinate crossing of the given branches: one stratum per nonempty
    branch subset, normalized as '<name>~'; ``order`` permutes the strata in
    the document."""
    strata = [Stratum(ambient, 0, (ambient,))]
    for size in range(1, len(branches) + 1):
        for sub in itertools.combinations(branches, size):
            name = "&".join(sub)
            strata.append(Stratum(name, size, (name + "~",)))
    closure = []
    subsets = {s.id: set(s.id.split("&")) for s in strata[1:]}
    for a, sa in subsets.items():
        closure.append((a, ambient))
        for b, sb in subsets.items():
            if sb < sa:
                closure.append((a, b))
    return Strat(tuple(strata[i] for i in order), tuple(closure))


def nodal(ambient: str, divisor: str, node: str) -> Strat:
    """An irreducible nodal curve in a surface: the divisor is not normal,
    the node is."""
    return Strat(
        (Stratum(ambient, 0, (ambient,)), Stratum(divisor, 1, (divisor + "~",)),
         Stratum(node, 2, (node,))),
        ((node, divisor), (divisor, ambient)),
    )


def smooth_divisor(ambient: str, divisor: str) -> Strat:
    return Strat(
        (Stratum(ambient, 0, (ambient,)), Stratum(divisor, 1, (divisor,))),
        ((divisor, ambient),),
    )


def self_crossing_atlas(chart: str, b1: str, b2: str) -> tuple[dict, Strat]:
    """One simple chart whose two branches are identified: an irreducible
    divisor crossing itself.  Its strata are the ambient X, the divisor class
    B1 and the self-intersection B1&B1, each with one normalization sheet
    named after the global branch class (not after the chart's labels)."""
    atlas = {
        "charts": [{"id": chart, "branches": [b1, b2]}],
        "overlaps": [{"charts": [chart, chart], "map": {b1: b2}}],
    }
    strat = Strat(
        (Stratum("X", 0, ("X",)), Stratum("B1", 1, ("B1~",)),
         Stratum("B1&B1", 2, ("B1&B1~",))),
        (("B1", "X"), ("B1&B1", "B1"), ("B1&B1", "X")),
    )
    return atlas, strat


def perf_label(s: Stratum) -> str:
    if s.codim == 0 or s.comps == (s.id,):
        return f"Perf({s.id})"
    return f"Perf({s.id}~)"


def _stratum_order(strat: Strat) -> list[Stratum]:
    pos = {s.id: i for i, s in enumerate(strat.strata)}
    return sorted(strat.strata, key=lambda s: (-s.codim, pos[s.id]))


# ---------------------------------------------------------------------------
# decomposition indices


@dataclass
class Index:
    """An index: labels in construction order, and per label its stratum and
    character tuple.  Characters of a root index compare componentwise in
    the rational order; those of a truncated index by factorial level, then
    componentwise in the recursive order.  A totalized index also relates
    incomparable characters of one stratum both ways."""

    labels: list[str]
    strata: list[Stratum]
    chars: list[tuple[Fraction, ...]]
    truncated: bool
    totalized: bool = False

    @cached_property
    def leq(self) -> list[list[bool]]:
        n = len(self.labels)
        levels, comps = [], []
        for t in self.chars:
            if self.truncated:
                lvl = factorial_level(t) if t else 0
                levels.append(lvl)
                comps.append([bang_key(c, lvl) for c in t])
            else:
                levels.append(0)
                comps.append(list(t))
        # compare integer ranks of the component values rather than the
        # values themselves: one sort instead of a Fraction compare per pair
        rank = {v: i for i, v in enumerate(sorted({v for c in comps for v in c}))}
        keys = [(lvl, [rank[v] for v in c]) for lvl, c in zip(levels, comps)]
        out = []
        for i in range(n):
            si, (li, ki) = self.strata[i], keys[i]
            row = []
            for j in range(n):
                sj, (lj, kj) = self.strata[j], keys[j]
                if i == j:
                    v = True
                elif si.codim != sj.codim:
                    v = si.codim > sj.codim
                elif si.id != sj.id:
                    v = True
                elif li != lj:
                    v = li > lj
                else:
                    v = all(a <= b for a, b in zip(ki, kj))
                row.append(v)
            out.append(row)
        if self.totalized:
            for i in range(n):
                for j in range(n):
                    if (self.strata[i].id == self.strata[j].id
                            and not out[i][j] and not out[j][i]):
                        out[i][j] = out[j][i] = True
        return out

    def factor_docs(self) -> dict:
        return {
            x: {"stratum": s.id, "character": [res_str(c) for c in t],
                "target": perf_label(s), "kdata": None}
            for x, s, t in zip(self.labels, self.strata, self.chars)
        }

    def index_doc(self) -> dict:
        return {"elements": list(self.labels), "leq": self.leq}


def root_index(strat: Strat, r: int) -> Index:
    labels, strata, chars = [], [], []
    for s in _stratum_order(strat):
        for t in itertools.product(starred_zr(r), repeat=s.codim):
            labels.append(f"{s.id}:{chars_str(t)}")
            strata.append(s)
            chars.append(t)
    return Index(labels, strata, chars, truncated=False)


def level_pool(level: int, coprime_to: Optional[int]) -> list[Fraction]:
    f = math.factorial(level)
    pool = [Fraction(-p, f) for p in range(1, f)]
    if coprime_to is not None:
        pool = [c for c in pool if c.denominator % coprime_to]
    return pool


def truncated_index(strat: Strat, level: int, coprime_to: Optional[int] = None) -> Index:
    pool = level_pool(level, coprime_to)
    labels, strata, chars = [], [], []
    for s in _stratum_order(strat):
        keyed = []
        for t in itertools.product(pool, repeat=s.codim):
            lvl = factorial_level(t) if t else 2
            keyed.append(((-lvl, tuple(bang_key(c, lvl) for c in t)), t))
        keyed.sort(key=lambda kt: kt[0])
        for _, t in keyed:
            labels.append(f"{s.id}:{chars_str(t)}")
            strata.append(s)
            chars.append(t)
    return Index(labels, strata, chars, truncated=True)


def root_count(strat: Strat, r: int) -> int:
    return sum((r - 1) ** s.codim for s in strat.strata)


def truncated_count(strat: Strat, level: int, coprime_to: Optional[int] = None) -> int:
    m = math.factorial(level)
    while coprime_to and m % coprime_to == 0:
        m //= coprime_to
    return sum((m - 1) ** s.codim for s in strat.strata)


def root_annotations(r: int) -> dict:
    return {"kind": "root", "r": str(r),
            "count_convention": "(r-1)^codim factors per stratum"}


def truncated_annotations(level: int, coprime_to: Optional[int]) -> dict:
    out = {"kind": "infinite-truncation", "max_level": str(level),
           "untruncated": "countably infinite characters per stratum of codimension >= 1"}
    if coprime_to is not None:
        out["kind"] = "kummer-etale-truncation"
        out["coprime_to"] = str(coprime_to)
    return out


# ---------------------------------------------------------------------------
# preorders as relation matrices


def is_directed(leq: Sequence[Sequence[bool]]) -> Optional[list[int]]:
    """A numbering with every earlier element below every later one, taking
    at each step the first remaining element below all remaining ones; None
    when some step finds no such element."""
    remaining = list(range(len(leq)))
    out = []
    while remaining:
        pick = next((i for i in remaining if all(leq[i][j] for j in remaining)), None)
        if pick is None:
            return None
        out.append(pick)
        remaining.remove(pick)
    return out


def coproduct_leq(parts: Sequence[Sequence[Sequence[bool]]]) -> list[list[bool]]:
    """Disjoint union: each part keeps its relation, distinct parts are
    related both ways."""
    owner = [k for k, p in enumerate(parts) for _ in p]
    local = [i for p in parts for i in range(len(p))]
    return [
        [parts[owner[a]][local[a]][local[b]] if owner[a] == owner[b] else True
         for b in range(len(owner))]
        for a in range(len(owner))
    ]


def quotient_leq(parts, classes) -> list[list[bool]]:
    """Relation on classes of a disjoint union: z <= z' iff every pair of
    preimages lying in a common part is related there.  ``parts`` maps a
    part name to (labels, leq); a class is a list of (part, label)."""
    pos = {name: {x: i for i, x in enumerate(labels)} for name, (labels, _) in parts.items()}
    m = len(classes)
    out = [[True] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            for pa, xa in classes[a]:
                for pb, xb in classes[b]:
                    if pa == pb and not parts[pa][1][pos[pa][xa]][pos[pa][xb]]:
                        out[a][b] = False
    return out


# ---------------------------------------------------------------------------
# finitely generated abelian groups by prime-power bookkeeping


def prime_powers(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while d > 1:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    return out


class Group(NamedTuple):
    """rank plus, per prime, the multiset of exponents of its cyclic
    prime-power summands as {exponent: count}."""

    rank: int
    powers: dict

    @classmethod
    def of(cls, rank: int, torsion: Sequence[int] = ()) -> "Group":
        powers: dict = {}
        for d in torsion:
            for p, e in prime_powers(d).items():
                powers.setdefault(p, {})
                powers[p][e] = powers[p].get(e, 0) + 1
        return cls(rank, powers)

    @classmethod
    def from_doc(cls, doc: dict) -> "Group":
        return cls.of(doc["rank"], doc.get("torsion", []))

    def plus(self, other: "Group", copies: int = 1) -> "Group":
        powers = {p: dict(es) for p, es in self.powers.items()}
        for p, es in other.powers.items():
            mine = powers.setdefault(p, {})
            for e, c in es.items():
                mine[e] = mine.get(e, 0) + c * copies
        return Group(self.rank + other.rank * copies, powers)

    def times(self, copies: int) -> "Group":
        return Group(0, {}).plus(self, copies)

    def two_torsion(self) -> "Group":
        """The subgroup killed by 2: one C2 per even cyclic summand."""
        return Group.of(0, [2] * sum(self.powers.get(2, {}).values()))

    def invariants(self) -> list[int]:
        """Invariant factors d_1 | d_2 | ...: the i-th largest is the product
        over primes of the i-th largest power of that prime."""
        columns = []
        for p, es in self.powers.items():
            col = sorted((p ** e for e, c in es.items() for _ in range(c)), reverse=True)
            columns.append(col)
        depth = max((len(c) for c in columns), default=0)
        out = []
        for i in range(depth):
            d = 1
            for col in columns:
                if i < len(col):
                    d *= col[i]
            out.append(d)
        return out[::-1]

    def doc(self) -> dict:
        return {"rank": self.rank, "torsion": self.invariants()}


def stratum_group(s: Stratum, kdata: dict) -> Group:
    g = Group(0, {})
    for c in s.comps:
        g = g.plus(Group.from_doc(kdata[c]))
    return g


def ktheory_expected(strat: Strat, kdata: dict, mode: dict) -> dict:
    """The report document: ambient K, one row per positive-codimension
    stratum (deepest first) with its copy count from the closed form, and the
    total."""
    ambient = next(s for s in strat.strata if s.codim == 0)
    ambient_k = stratum_group(ambient, kdata)
    total = ambient_k
    rows = []
    for s in _stratum_order(strat):
        if s.codim == 0:
            continue
        summand = stratum_group(s, kdata)
        if mode["kind"] == "finite":
            count = (mode["r"] - 1) ** s.codim
            symbolic = f"({mode['r']}-1)^{s.codim}"
        else:
            m = math.factorial(mode["level"])
            while mode["kind"] == "kummer_etale" and m % mode["p"] == 0:
                m //= mode["p"]
            count = (m - 1) ** s.codim
            symbolic = "countably infinite (truncated: %d)" % count
        rows.append({
            "stratum": s.id, "codim": s.codim, "summand": summand.doc(),
            "multiplicity": count, "symbolic_multiplicity": symbolic,
            "contribution": summand.times(count).doc(),
        })
        total = total.plus(summand, count)
    return {"mode": mode, "ambient": ambient_k.doc(), "rows": rows,
            "total": total.doc(), "truncated": mode["kind"] != "finite"}
