"""The benchmark's workloads: seeded input documents, CLI jobs, and checks.

Each workload function writes its input documents into a work directory and
returns the fixed list of jobs it runs.  A job is the argument list of one
``psodkit`` invocation and a check that takes the job's standard output and
returns the problems it finds (none when the output is right).  Inputs and
expected outputs both come from ``oracles``; nothing here imports psodkit.

The seed relabels strata, branches and elements, permutes document order
and shuffles K-data within codimension classes.  Label widths and the
multiset of K-groups stay fixed, so every seed asks for the same amount of
work and gets outputs of the same size.
"""

from __future__ import annotations

import dataclasses
import json
import random
import string
from pathlib import Path
from typing import Callable, NamedTuple

import oracles as O


class Job(NamedTuple):
    name: str
    argv: list[str]
    check: Callable[[str], list[str]]


class Namer:
    """Seeded names of one capital and width-1 lower-case letters, never
    handing out a name twice, so that no two documents of a workload share
    labels on one seed and not on another."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self, k: int, width: int = 3) -> list[str]:
        out: list[str] = []
        while len(out) < k:
            name = self.rng.choice(string.ascii_uppercase) + "".join(
                self.rng.choice(string.ascii_lowercase) for _ in range(width - 1))
            if name not in self.used:
                self.used.add(name)
                out.append(name)
        return out


def _write(work: Path, name: str, doc) -> str:
    path = work / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _load(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _differ(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what} differs from the reference"]


def _seeded_crossing(names: Namer, k: int) -> O.Strat:
    ambient, *branches = names(k + 1)
    n_strata = 2 ** k
    order = [0] + names.rng.sample(range(1, n_strata), n_strata - 1)
    return O.crossing(ambient, branches, order)


# ---------------------------------------------------------------------------
# checks shared by several jobs


def check_preorder(doc, labels: list[str], leq: list[list[bool]]) -> list[str]:
    if not isinstance(doc, dict):
        return ["preorder document is not an object"]
    return (_differ("element list", doc.get("elements"), labels)
            + _differ("relation", doc.get("leq"), leq))


def check_index(doc, index: O.Index, count: int) -> list[str]:
    """An index document against the reference: the construction order, the
    closed-form size, and every relation entry recomputed from the elements'
    strata and characters."""
    problems = check_preorder(doc, index.labels, index.leq)
    size = len(doc.get("elements") or ()) if isinstance(doc, dict) else 0
    if size != count:
        problems.append(f"{size} elements, closed form gives {count}")
    return problems


def check_psod(doc, index: O.Index, count: int, annotations: dict) -> list[str]:
    if not isinstance(doc, dict):
        return ["psod document is not an object"]
    return (
        check_index(doc.get("index"), index, count)
        + _differ("factor table", doc.get("factors"), index.factor_docs())
        + _differ("annotations", doc.get("annotations"), annotations)
    )


def psod_check(index: Callable[[], O.Index], count: int, annotations: dict):
    def check(text: str) -> list[str]:
        doc, problems = _load(text)
        return problems or check_psod(doc, index(), count, annotations)
    return check


def human_build_check(index: Callable[[], O.Index], count: int):
    """Human mode lists the factors in the directed numbering when there is
    one, else in construction order."""
    def check(text: str) -> list[str]:
        idx = index()
        lines = text.rstrip("\n").split("\n")
        problems = []
        if lines[0] != f"{count} factors (root)":
            problems.append(f"header {lines[0]!r}")
        numbering = O.is_directed(idx.leq)
        order = numbering if numbering is not None else range(len(idx.labels))
        width = max(len(x) for x in idx.labels)
        want = [
            f"  {pos:>3}  {idx.labels[i]:<{width}}  stratum={idx.strata[i].id}"
            f"  target={O.perf_label(idx.strata[i])}"
            for pos, i in enumerate(order)
        ]
        return problems + _differ("factor rows", lines[1:], want)
    return check


# ---------------------------------------------------------------------------
# root-index: building indices, factorial order, document encoding


def root_index(rng: random.Random, work: Path) -> list[Job]:
    names = Namer(rng)
    nodal = O.nodal(*names(3))
    cross2 = _seeded_crossing(names, 2)
    cross3 = _seeded_crossing(names, 3)
    atlas, atlas_strat = O.self_crossing_atlas(*names(3))
    f_nodal = _write(work, "nodal.json", nodal.doc())
    f_cross2 = _write(work, "cross2.json", cross2.doc())
    f_cross3 = _write(work, "cross3.json", cross3.doc())
    f_atlas = _write(work, "atlas.json", atlas)

    def total_index():
        return dataclasses.replace(O.root_index(cross3, 8), totalized=True)

    m = ["--output", "machine"]
    return [
        Job("nodal_l4", m + ["psod", "infinite", f_nodal, "--level", "4"],
            psod_check(lambda: O.truncated_index(nodal, 4),
                       O.truncated_count(nodal, 4), O.truncated_annotations(4, None))),
        Job("kummer_c2_l4",
            m + ["psod", "infinite", f_cross2, "--level", "4", "--coprime-to", "3"],
            psod_check(lambda: O.truncated_index(cross2, 4, 3),
                       O.truncated_count(cross2, 4, 3), O.truncated_annotations(4, 3))),
        Job("cross3_r8", m + ["psod", "build", f_cross3, "--root", "8"],
            psod_check(lambda: O.root_index(cross3, 8), 8 ** 3, O.root_annotations(8))),
        Job("cross3_r8_human", ["psod", "build", f_cross3, "--root", "8"],
            human_build_check(lambda: O.root_index(cross3, 8), 8 ** 3)),
        Job("cross3_r8_total", m + ["--totalize", "psod", "build", f_cross3, "--root", "8"],
            psod_check(total_index, 8 ** 3,
                       O.root_annotations(8) | {"totalized": "true"})),
        Job("atlas_r12", m + ["psod", "build", f_atlas, "--root", "12"],
            psod_check(lambda: O.root_index(atlas_strat, 12),
                       O.root_count(atlas_strat, 12), O.root_annotations(12))),
    ]


# ---------------------------------------------------------------------------
# glue-ktheory: graded limits and invariant-factor arithmetic

# K-groups handed out to the elements of a glued index, cycled in a seeded
# order, and per codimension class to the components of a stratification.
PIECES = [(1, []), (0, [2]), (1, [4]), (0, [3])]
KDATA_BY_CODIM = {
    0: [(1, [])],
    1: [(0, [2]), (1, []), (0, [4])],
    2: [(1, [2]), (0, [3]), (1, [])],
    3: [(0, [3])],
}


def _group_doc(g) -> dict:
    return {"rank": g[0], "torsion": list(g[1])}


def _ngens(g) -> int:
    return g[0] + len(g[1])


def _seeded_kdata(rng: random.Random, strat: O.Strat) -> dict:
    out = {}
    for k in sorted({s.codim for s in strat.strata}):
        comps = [c for s in strat.strata if s.codim == k for c in s.comps]
        menu = KDATA_BY_CODIM[k]
        groups = [menu[i % len(menu)] for i in range(len(comps))]
        rng.shuffle(groups)
        out.update({c: _group_doc(g) for c, g in zip(comps, groups)})
    return dict(sorted(out.items(), key=lambda kv: rng.random()))


def _cech_scenario(rng, index: O.Index, vertices, arrows, twisted=None):
    """A diagram over which every vertex carries ``index`` with seeded graded
    K-data and every arrow is contravariant with the identity index map.
    Arrow ``twisted`` carries minus the identity on every piece; the others
    get identity blocks."""
    pieces = [PIECES[i % len(PIECES)] for i in range(len(index.labels))]
    rng.shuffle(pieces)
    piece_of = dict(zip(index.labels, pieces))
    ident = {x: x for x in index.labels}
    idoc = index.index_doc()
    psod = {"index": idoc, "factors": index.factor_docs(), "annotations": {}}
    doc = {
        "diagram": {
            "vertices": list(vertices),
            "preorders": {v: idoc for v in vertices},
            "arrows": [{"name": n, "src": s, "tgt": t, "orientation": "contravariant",
                        "map": ident} for n, s, t in arrows],
        },
        "psods": {v: psod for v in vertices},
        "graded": {v: {"index": idoc,
                       "pieces": {x: _group_doc(g) for x, g in piece_of.items()}}
                   for v in vertices},
    }
    if twisted is not None:
        doc["graded_homs"] = {twisted: {"reindex": ident, "blocks": [
            {"source_grade": x, "target_grade": x,
             "matrix": [[-int(i == j) for j in range(_ngens(g))] for i in range(_ngens(g))]}
            for x, g in piece_of.items()]}}
    return doc, piece_of


def glue_check(index: O.Index, vertices, piece_of, twisted: bool):
    """Cech descent: the glued index is the chart index with the chart's
    factors; each graded piece is the chart's piece, or its 2-torsion when
    the two arrows differ by the sign automorphism."""
    def check(text: str) -> list[str]:
        doc, problems = _load(text)
        if problems:
            return problems
        leq = index.leq
        directed = O.is_directed(leq) is not None
        pieces = {}
        total = O.Group(0, {})
        for x, g in piece_of.items():
            grp = O.Group.of(g[0], g[1])
            grp = grp.two_torsion() if twisted else grp
            pieces[x] = grp.doc()
            total = total.plus(grp)
        problems += check_index(doc["psod"]["index"], index, len(index.labels))
        problems += _differ("glued factors", doc["psod"]["factors"], index.factor_docs())
        problems += _differ("glue annotations", doc["psod"]["annotations"],
                            {"kind": "glued", "directed": "true" if directed else "false"})
        problems += _differ("verdict", (doc["kind"], doc["directed"]),
                            ("psod" if directed else "pre-psod only", directed))
        problems += _differ("fibers", doc["fibers"],
                            {x: [[v, x] for v in vertices] for x in index.labels})
        if not directed:
            a, b = (index.labels.index(w) for w in doc["witness"]["pair"])
            if leq[a][b] or leq[b][a]:
                problems.append("witness pair is comparable")
        problems += check_index(doc["graded"]["index"], index, len(index.labels))
        problems += _differ("graded pieces", doc["graded"]["pieces"], pieces)
        problems += _differ("ungraded total", doc["ungraded_total"], total.doc())
        return problems
    return check


def ktheory_check(strat: O.Strat, kdata: dict, mode: dict):
    def check(text: str) -> list[str]:
        doc, problems = _load(text)
        return problems or _differ("K-theory report", doc, O.ktheory_expected(strat, kdata, mode))
    return check


def glue_ktheory(rng: random.Random, work: Path) -> list[Job]:
    names = Namer(rng)
    m = ["--output", "machine"]
    jobs = []
    chart = O.root_index(_seeded_crossing(names, 2), 8)
    for name, twisted in (("glue_identity", None), ("glue_sign", "d1")):
        vertices = names(2)
        arrows = [("d0", *vertices), ("d1", *vertices)]
        doc, piece_of = _cech_scenario(rng, chart, vertices, arrows, twisted)
        path = _write(work, name + ".json", doc)
        jobs.append(Job(name, m + ["psod", "glue", path],
                        glue_check(chart, vertices, piece_of, twisted is not None)))
    # charts U_i and double overlaps U_ij, restriction arrows chart -> overlap
    small = O.root_index(O.nodal(*names(3)), 5)
    charts = names(3)
    pairs = ((0, 1), (0, 2), (1, 2))
    overlaps = [charts[i] + charts[j] for i, j in pairs]
    arrows = []
    for n, pair in enumerate(pairs):
        for i in pair:
            arrows.append((f"r{len(arrows)}", charts[i], overlaps[n]))
    vertices = charts + overlaps
    doc, piece_of = _cech_scenario(rng, small, vertices, arrows)
    path = _write(work, "glue_3chart.json", doc)
    jobs.append(Job("glue_3chart", m + ["psod", "glue", path],
                    glue_check(small, vertices, piece_of, False)))

    cross3 = _seeded_crossing(names, 3)
    kdata3 = _seeded_kdata(rng, cross3)
    f3 = _write(work, "kt_cross3.json", cross3.doc())
    k3 = _write(work, "kt_kdata3.json", kdata3)
    jobs.append(Job("ktheory_finite",
                    m + ["psod", "ktheory", f3, "--kdata", k3, "--mode", "finite", "--root", "7"],
                    ktheory_check(cross3, kdata3, {"kind": "finite", "r": 7})))
    cross2 = _seeded_crossing(names, 2)
    kdata2 = _seeded_kdata(rng, cross2)
    f2 = _write(work, "kt_cross2.json", cross2.doc())
    k2 = _write(work, "kt_kdata2.json", kdata2)
    jobs.append(Job("ktheory_kummer",
                    m + ["psod", "ktheory", f2, "--kdata", k2, "--mode", "kummer",
                         "--p", "2", "--level", "5"],
                    ktheory_check(cross2, kdata2,
                                  {"kind": "kummer_etale", "level": 5, "p": 2})))
    return jobs


# ---------------------------------------------------------------------------
# colimit-queries: reading large documents, colimits, universal properties


def _chain_leq(n: int) -> list[list[bool]]:
    return [[i <= j for j in range(n)] for i in range(n)]


def _verify_check(ok: bool):
    def check(text: str) -> list[str]:
        doc, problems = _load(text)
        if problems:
            return problems
        if doc.get("ok") is not ok:
            return [f"verify answered {doc.get('ok')!r}, expected {ok!r}"]
        if not ok and not doc.get("reason"):
            return ["rejection carries no reason"]
        return []
    return check


def colimit_queries(rng: random.Random, work: Path) -> list[Job]:
    names = Namer(rng)
    m = ["--output", "machine"]
    jobs = []

    # a 4-element coproduct candidate: a discrete pair and a 2-chain
    a, b, c, d = names(4)
    disc, chain2 = [[True, False], [False, True]], _chain_leq(2)
    parts = {"u": ([a, b], disc), "v": ([c, d], chain2)}
    cand_leq = O.coproduct_leq([disc, chain2])
    diagram = {"vertices": ["u", "v"],
               "preorders": {v: {"elements": ls, "leq": lq} for v, (ls, lq) in parts.items()},
               "arrows": []}
    cocones = {v: {x: x for x in ls} for v, (ls, _) in parts.items()}
    cand = {"elements": [a, b, c, d], "leq": cand_leq}
    path = _write(work, "verify_coproduct.json",
                  {"diagram": diagram, "candidate": cand, "cocones": cocones})
    jobs.append(Job("verify_coproduct", m + ["preorder", "verify", path], _verify_check(True)))

    # the same candidate with one cross-part relation removed
    i, j = rng.choice([(i, j) for i in range(4) for j in range(4) if (i < 2) != (j < 2)])
    bad = [row[:] for row in cand_leq]
    bad[i][j] = False
    path = _write(work, "verify_perturbed.json",
                  {"diagram": diagram, "candidate": {"elements": [a, b, c, d], "leq": bad},
                   "cocones": cocones})
    jobs.append(Job("verify_perturbed", m + ["preorder", "verify", path], _verify_check(False)))

    # a Cech candidate: a 3-chain over two parallel identity arrows
    labels = names(3)
    ident = {x: x for x in labels}
    p3 = {"elements": labels, "leq": _chain_leq(3)}
    cech = {"vertices": ["l0", "l1"], "preorders": {"l0": p3, "l1": p3},
            "arrows": [{"name": n, "src": "l0", "tgt": "l1", "map": ident} for n in ("d0", "d1")]}
    path = _write(work, "verify_cech.json",
                  {"diagram": cech, "candidate": p3, "cocones": {"l0": ident, "l1": ident}})
    jobs.append(Job("verify_cech", m + ["preorder", "verify", path], _verify_check(True)))

    # colimit of a Cech diagram of a 225-element index: the index itself
    big = O.root_index(_seeded_crossing(names, 2), 15)
    big_leq = big.leq
    ident = {x: x for x in big.labels}
    vs = names(2)
    path = _write(work, "colimit.json", {
        "vertices": vs,
        "preorders": {v: {"elements": big.labels, "leq": big_leq} for v in vs},
        "arrows": [{"name": n, "src": vs[0], "tgt": vs[1], "orientation": "contravariant",
                    "map": ident} for n in ("d0", "d1")]})

    def colimit_check(text: str) -> list[str]:
        doc, problems = _load(text)
        return problems or (
            check_preorder(doc["preorder"], big.labels, big_leq)
            + _differ("cocones", doc["cocones"], {v: ident for v in vs}))
    jobs.append(Job("colimit_cech", m + ["preorder", "colimit", path], colimit_check))

    # coproduct of two indices with 133 and 144 elements; their labels are
    # disjoint, so the coproduct keeps them
    p1 = O.root_index(O.nodal(*names(3)), 12)
    p2 = O.root_index(_seeded_crossing(names, 2), 12)
    f1 = _write(work, "coproduct_1.json", p1.index_doc())
    f2 = _write(work, "coproduct_2.json", p2.index_doc())

    def coproduct_check(text: str) -> list[str]:
        doc, problems = _load(text)
        return problems or (
            check_preorder(doc["preorder"], p1.labels + p2.labels,
                           O.coproduct_leq([p1.leq, p2.leq]))
            + _differ("injections", doc["injections"],
                      [{x: x for x in p.labels} for p in (p1, p2)]))
    jobs.append(Job("coproduct", m + ["preorder", "coproduct", f1, f2], coproduct_check))

    # pushout of two 144-element crossing indices along their 121-element
    # codimension-2 blocks; a glued class is labelled by its members' labels
    s1, s2 = _seeded_crossing(names, 2), _seeded_crossing(names, 2)
    q1, q2 = O.root_index(s1, 12), O.root_index(s2, 12)
    blk1 = [x for x, s in zip(q1.labels, q1.strata) if s.codim == 2]
    blk2 = [x for x, s in zip(q2.labels, q2.strata) if s.codim == 2]
    apex_labels = [f"w{k:03d}" for k in range(len(blk1))]
    pos1 = {x: i for i, x in enumerate(q1.labels)}
    apex_leq = [[q1.leq[pos1[x]][pos1[y]] for y in blk1] for x in blk1]
    apex = {"elements": apex_labels, "leq": apex_leq}
    path = _write(work, "pushout.json", {
        "left": {"source": apex, "target": q1.index_doc(), "map": dict(zip(apex_labels, blk1))},
        "right": {"source": apex, "target": q2.index_doc(), "map": dict(zip(apex_labels, blk2))},
    })

    def pushout_check(text: str) -> list[str]:
        doc, problems = _load(text)
        if problems:
            return problems
        to2 = dict(zip(blk1, blk2))
        classes = [[("1", x)] + ([("2", to2[x])] if x in to2 else []) for x in q1.labels]
        classes += [[("2", y)] for y in q2.labels if y not in to2.values()]
        labels = ["=".join(sorted(x for _, x in cls)) for cls in classes]
        leq = O.quotient_leq({"1": (q1.labels, q1.leq), "2": (q2.labels, q2.leq)}, classes)
        maps = [{}, {}]
        for lbl, cls in zip(labels, classes):
            for p, x in cls:
                maps[int(p) - 1][x] = lbl
        return check_preorder(doc["preorder"], labels, leq) + _differ("maps", doc["maps"], maps)
    jobs.append(Job("pushout", m + ["preorder", "pushout", path], pushout_check))

    # numbering of a shuffled 600-chain
    chain = names(600, width=4)
    shown = rng.sample(range(600), 600)
    path = _write(work, "chain600.json", {
        "elements": [chain[i] for i in shown],
        "leq": [[i <= j for j in shown] for i in shown]})

    def number_check(text: str) -> list[str]:
        doc, problems = _load(text)
        return problems or _differ("numbering", doc.get("numbering"), chain)
    jobs.append(Job("number_chain", m + ["preorder", "number", path], number_check))

    # directedness of the level-4 truncated index of a nodal curve
    nodal_idx = O.truncated_index(O.nodal(*names(3)), 4)
    nodal_leq = nodal_idx.leq
    path = _write(work, "nodal_l4_index.json", {"elements": nodal_idx.labels, "leq": nodal_leq})

    def directed_check(text: str) -> list[str]:
        doc, problems = _load(text)
        want = O.is_directed(nodal_leq) is not None
        return problems or _differ("directedness", doc, {"directed": want})
    jobs.append(Job("directed_nodal", m + ["preorder", "directed", path], directed_check))

    # filtration of a graded object over the 400-factor index of a smooth
    # divisor at r = 400: a chain, processed from its top element down
    div = O.smooth_divisor(*names(2))
    filt = O.root_index(div, 400)
    obj = {x: [rng.randint(1, 9), rng.randint(1, 9)] for x in filt.labels}
    path = _write(work, "filtrate.json", {
        "psod": {"index": filt.index_doc(), "factors": filt.factor_docs(),
                 "annotations": O.root_annotations(400)},
        "object": dict(sorted(obj.items(), key=lambda kv: rng.random()))})

    def filtrate_check(text: str) -> list[str]:
        doc, problems = _load(text)
        if problems:
            return problems
        numbering = O.is_directed(filt.leq)
        if numbering is None:
            return ["reference index is not directed"]
        remaining = set(filt.labels)
        steps = []
        for i in reversed(numbering):
            grade = filt.labels[i]
            remaining.discard(grade)
            steps.append({"grade": grade, "component": obj[grade],
                          "residual_support": [x for x in filt.labels if x in remaining]})
        return _differ("filtration steps", doc, {"steps": steps})
    jobs.append(Job("filtrate", m + ["psod", "filtrate", path], filtrate_check))
    return jobs


WORKLOADS = {
    "root-index": root_index,
    "glue-ktheory": glue_ktheory,
    "colimit-queries": colimit_queries,
}
