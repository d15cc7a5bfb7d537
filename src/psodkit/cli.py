"""Command-line front end.

Documents are JSON (see documents.py); inputs come from file paths or '-'
for standard input.  Exit codes: 0 success, 1 parse error or a failed write to
stdout, 2 precondition, input or internal-invariant error, 3 resource cap
exceeded.  Directedness violations during gluing are reported in-band and
exit 0: the semiorthogonal family is still valid output, it just is not
known to generate.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Any, Callable, Sequence

from .config import Caps
from .errors import InputError, ParseError, PsodkitError
from .records import fields

# Each handler imports the modules it runs, so preorder commands load
# neither factorial, strata, engine nor abelian, and human-mode order
# commands load neither documents nor preorders.


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> Any:
    from .documents import loads

    return loads(_read(path))


def _emit(args: argparse.Namespace, doc: Callable[[Any], Any], human: Callable[[], str]) -> None:
    """Print the document or the human text; only the one printed is built.

    ``doc`` is called with the ``documents`` module, which human mode never
    loads.  A document is streamed, so its text never exists as one string.
    The flush makes a failed write raise here, not at interpreter exit."""
    if sys.stdout is None:  # started with file descriptor 1 closed
        raise OSError(errno.EBADF, "standard output is closed")
    if args.output == "machine":
        from . import documents

        sys.stdout.writelines(documents.chunks(doc(documents)))
        sys.stdout.write("\n")
    else:
        print(human())
    sys.stdout.flush()


# -- preorder ----------------------------------------------------------------


def _cmd_preorder(caps: Caps, args: argparse.Namespace) -> int:
    from . import preorderdocs as docs

    sub = args.subcommand
    if sub == "coproduct":
        from .colimits import coproduct

        out, injections = coproduct([docs.preorder_from_doc(_load(p)) for p in args.inputs])
        extra = {"injections": [dict(i.mapping) for i in injections]}
    elif sub == "pushout":
        from .colimits import pushout

        body = _load(args.inputs[0])
        if not isinstance(body, dict) or "left" not in body or "right" not in body:
            raise ParseError("pushout document needs 'left' and 'right' maps")
        out, p1, p2 = pushout(docs.map_from_doc(body["left"]), docs.map_from_doc(body["right"]))
        extra = {"maps": [dict(p1.mapping), dict(p2.mapping)]}
    elif sub == "colimit":
        from .colimits import colimit

        res = colimit(docs.diagram_from_doc(_load(args.inputs[0])))
        out = res.preorder
        extra = {"cocones": {v: dict(m.mapping) for v, m in res.cocones.items()}}
    elif sub == "verify":
        from .verify import verify_colimit

        diagram, candidate, cocones = docs.verify_request_from_doc(_load(args.inputs[0]))
        res = verify_colimit(diagram, candidate, cocones, caps)
        human = "verified" if res.ok else f"failed: {res.reason}"
        _emit(args, lambda _: docs.verify_to_doc(res), lambda: human)
        return 0
    elif sub == "directed":
        from .preorders import is_directed

        ok = is_directed(docs.preorder_from_doc(_load(args.inputs[0])))
        _emit(args, lambda _: {"directed": ok}, lambda: "true" if ok else "false")
        return 0
    elif sub == "number":
        from .preorders import directed_numbering

        numbering = directed_numbering(docs.preorder_from_doc(_load(args.inputs[0])))
        _emit(args, lambda _: {"numbering": list(numbering)}, lambda: " < ".join(numbering))
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown preorder subcommand {sub!r}")
    _emit(
        args,
        lambda documents: {"preorder": documents.preorder_to_doc(out)} | extra,
        lambda: _render_preorder(out),
    )
    return 0


def _render_preorder(p) -> str:
    lines = ["elements: " + ", ".join(p.elements)]
    for i, (x, r) in enumerate(zip(p.elements, p.rows)):
        above = [y for j, y in enumerate(p.elements) if r >> j & 1 and j != i]
        if above:
            lines.append(f"  {x} <= " + ", ".join(above))
    lines.append(f"transitive: {'yes' if p.is_transitive else 'no'}")
    return "\n".join(lines)


# -- order -------------------------------------------------------------------


def _cmd_order(caps: Caps, args: argparse.Namespace) -> int:
    from .factorial import CharTuple, cmp_bang, enumerate_characters, to_factorial_form

    sub = args.subcommand
    if sub == "factform":
        chi = CharTuple.parse(args.inputs[0])
        form = to_factorial_form(chi, caps)
        _emit(
            args,
            lambda documents: documents.factorial_form_to_doc(form),
            lambda: f"level {form.level}, numerators ({', '.join(map(str, form.numerators))})",
        )
    elif sub == "cmp":
        a = CharTuple.parse(args.inputs[0])
        b = CharTuple.parse(args.inputs[1])
        verdict = cmp_bang(a, b, caps)
        _emit(args, lambda _: {"comparison": verdict}, lambda: verdict)
    elif sub == "enumerate":
        chars = enumerate_characters(args.arity, args.level, args.coprime_to, caps)
        _emit(
            args,
            lambda documents: {"characters": [documents.char_tuple_to_doc(c) for c in chars]},
            lambda: "\n".join(str(c) for c in chars) if chars else "(none)",
        )
    else:  # pragma: no cover
        raise InputError(f"unknown order subcommand {sub!r}")
    return 0


# -- psod --------------------------------------------------------------------


def _load_stratification(path: str, caps: Caps):
    from .documents import atlas_from_doc, stratification_from_doc

    body = _load(path)
    if isinstance(body, dict) and "charts" in body:
        from .atlas import strata_from_atlas

        return strata_from_atlas(atlas_from_doc(body), caps)
    return stratification_from_doc(body)


def _render_psod(psod) -> str:
    rows = psod.factor_rows()
    width = max((len(x) for x, _ in rows), default=0)
    lines = [f"{len(rows)} factors" + (f" ({psod.annotations['kind']})" if "kind" in psod.annotations else "")]
    for pos, (x, f) in enumerate(rows):
        lines.append(f"  {pos:>3}  {x:<{width}}  stratum={f.stratum_id}  target={f.target_label}")
    return "\n".join(lines)


def _cmd_psod(caps: Caps, args: argparse.Namespace) -> int:
    # Each branch imports the function it runs after reading its input, as
    # the readers compile the value modules first: compiling abelian after
    # engine once raised glue's peak resident set by about 1 MB.
    sub = args.subcommand
    if sub == "build":
        strat = _load_stratification(args.inputs[0], caps)
        from .engine import build_root_psod

        psod = build_root_psod(strat, args.root, caps, totalize=args.totalize)
        _emit(args, lambda documents: documents.psod_to_doc(psod), lambda: _render_psod(psod))
    elif sub == "infinite":
        strat = _load_stratification(args.inputs[0], caps)
        from .engine import build_infinite_psod

        psod = build_infinite_psod(
            strat, args.level, args.coprime_to, caps, totalize=args.totalize
        )
        _emit(args, lambda documents: documents.psod_to_doc(psod), lambda: _render_psod(psod))
    elif sub == "glue":
        from .psoddocs import glue_result_to_doc, scenario_from_doc

        scenario = scenario_from_doc(_load(args.inputs[0]))
        from .gluing import glue

        res = glue(scenario, caps)

        def human() -> str:
            lines = [_render_psod(res.psod), f"verdict: {res.kind}"]
            if not res.verdict.ok:
                lines.append(f"witness: {res.verdict.witness()}")
            elif res.psod.index == scenario.diagram.preorders[scenario.diagram.vertices[0]]:
                lines.append("index preserved")
            return "\n".join(lines)

        _emit(args, lambda _: glue_result_to_doc(res), human)
    elif sub == "filtrate":
        from .psoddocs import filtration_request_from_doc, filtration_to_doc

        psod, obj = filtration_request_from_doc(_load(args.inputs[0]))
        from .engine import filtration

        res = filtration(psod, obj)
        _emit(
            args,
            lambda _: filtration_to_doc(res),
            lambda: "\n".join(
                f"  step {t}: grade {s.grade} component {list(s.component)}"
                for t, s in enumerate(res.steps)
            )
            + "\n  residual: zero",
        )
    elif sub == "ktheory":
        from .psoddocs import kdata_from_doc, ktheory_to_doc

        strat = _load_stratification(args.inputs[0], caps)
        kdata = kdata_from_doc(_load(args.kdata))
        from .kreport import KTheoryMode, ktheory_report

        if args.mode == "finite":
            mode = KTheoryMode.finite(args.root)
        elif args.mode == "infinite":
            mode = KTheoryMode.infinite(args.level)
        else:
            mode = KTheoryMode.kummer_etale(args.p, args.level)
        rep = ktheory_report(strat, kdata, mode, caps)

        def human() -> str:
            lines = [f"K-theory decomposition ({rep.mode.kind})", f"  ambient: {rep.ambient}"]
            for row in rep.rows:
                lines.append(
                    f"  {row.stratum_id} (codim {row.codim}): {row.multiplicity} x [{row.summand}]"
                    + (f"  [{row.symbolic_multiplicity}]" if rep.truncated else "")
                )
            lines.append(f"  total: {rep.total} (rank {rep.total.rank})")
            return "\n".join(lines)

        _emit(args, lambda _: ktheory_to_doc(rep), human)
    else:  # pragma: no cover
        raise InputError(f"unknown psod subcommand {sub!r}")
    return 0


# -- driver ------------------------------------------------------------------


def _parse_caps(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        if key not in fields(Caps):
            raise InputError(f"unknown cap {key!r}")
        try:
            out[key] = int(val)
        except ValueError as exc:
            raise InputError(f"cap {key!r} needs an integer value") from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psodkit",
        description="Exact combinatorics of preordered semi-orthogonal decompositions.",
    )
    parser.add_argument("--output", choices=("human", "machine"), default="human")
    parser.add_argument("--totalize", action="store_true",
                        help="relate incomparable same-stratum characters both ways")
    parser.add_argument("--caps", default="",
                        help="comma-separated caps, e.g. carrier=1000,factorial_level=6")
    sub = parser.add_subparsers(dest="group", required=True)

    pre = sub.add_parser("preorder", help="preorder constructions and checks")
    pre.add_argument("subcommand",
                     choices=("coproduct", "pushout", "colimit", "verify", "directed", "number"))
    pre.add_argument("inputs", nargs="+", help="document paths ('-' for stdin)")

    order = sub.add_parser("order", help="factorial forms and character order")
    order.add_argument("subcommand", choices=("factform", "cmp", "enumerate"))
    order.add_argument("inputs", nargs="*", help="residue or tuple expressions")
    order.add_argument("--arity", type=int, default=1)
    order.add_argument("--level", type=int, default=2)
    order.add_argument("--coprime-to", type=int, default=None, dest="coprime_to")

    psod = sub.add_parser("psod", help="decomposition indices and reports")
    psod.add_argument("subcommand",
                      choices=("build", "infinite", "glue", "filtrate", "ktheory"))
    psod.add_argument("inputs", nargs="+", help="document paths ('-' for stdin)")
    psod.add_argument("--root", type=int, default=2, help="root order r")
    psod.add_argument("--level", type=int, default=2, help="factorial truncation level")
    psod.add_argument("--coprime-to", type=int, default=None, dest="coprime_to")
    psod.add_argument("--kdata", help="path to a {component: group} document")
    psod.add_argument("--mode", choices=("finite", "infinite", "kummer"), default="finite")
    psod.add_argument("--p", type=int, default=2, help="residue characteristic for kummer mode")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = Caps(**_parse_caps(args.caps)) if args.caps else Caps()
        if args.group == "preorder":
            return _cmd_preorder(caps, args)
        if args.group == "order":
            if args.subcommand == "factform" and not args.inputs:
                raise InputError("factform needs an expression")
            if args.subcommand == "cmp" and len(args.inputs) != 2:
                raise InputError("cmp needs exactly two expressions")
            return _cmd_order(caps, args)
        if args.group == "psod":
            if args.subcommand == "ktheory" and not args.kdata:
                raise InputError("ktheory needs --kdata")
            return _cmd_psod(caps, args)
        raise InputError(f"unknown command group {args.group!r}")
    except PsodkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        # _read turns read failures into ParseError, so this is a write to
        # stdout: a closed pipe or a full device.  The unwritten text stays
        # buffered; point stdout at /dev/null so that the interpreter's flush
        # at exit does not fail again.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
