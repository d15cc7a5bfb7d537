"""Run one psodkit command with a span around every public psodkit function.

    python traced_cli.py SPANS_FILE JOB_ID -- CLI_ARGUMENTS...

Before calling ``psodkit.cli.main`` this wraps the public functions of every
psodkit module, plus the few methods and helpers the per-layer counters
need, and rebinds each wrapper at every module attribute that held the
original, since callers resolve ``from .x import f`` through their own
module.  Spans (name, start, end, parent span) are kept in flat arrays and
written to SPANS_FILE at exit, behind one JSON header line that names the
job and carries the size counters.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

# Private names and methods wrapped besides the public functions, with what
# each counter adds per call: (module, dotted attribute, size of the call).
EXTRA = [
    ("preorders", "FinitePreorder.__post_init__",
     lambda args, result: len(args[0].elements) ** 2),
    ("preorders", "_reflection_witness", None),
    ("abelian", "IntMatrix.mul", None),
]
SIZES = {
    ("abelian", "snf"): lambda args, result: args[0].rows * args[0].cols,
    ("documents", "dumps"): lambda args, result: len(result.encode("utf-8")),
    ("documents", "loads"): lambda args, result: len(args[0].encode("utf-8")),
}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.sizes: dict[str, int] = {}
        self.stack = [-1]

    def wrap(self, name: str, fn, size=None):
        nid = len(self.names)
        self.names.append(name)
        if size is not None:
            self.sizes[name] = 0
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        sizes = self.sizes

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t
                stack.pop()
            if size is not None:
                sizes[name] += size(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def write(self, path: str, job: str, code) -> None:
        header = {"job": job, "exit": code, "names": self.names, "sizes": self.sizes,
                  "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def instrument(rec: Recorder):
    import psodkit

    modules = {m.name: importlib.import_module(f"psodkit.{m.name}")
               for m in pkgutil.iter_modules(psodkit.__path__)}
    wrapped: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, val in list(vars(mod).items()):
            if (attr.startswith("_") or inspect.isclass(val) or not callable(val)
                    or getattr(val, "__module__", None) != mod.__name__):
                continue
            wrapped[id(val)] = rec.wrap(f"{short}.{attr}", val, SIZES.get((short, attr)))
    for short, dotted, size in EXTRA:
        owner = modules[short]
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            continue
        fn = getattr(owner, attr)
        wrapper = rec.wrap(f"{short}.{dotted}", fn, size)
        if path:
            setattr(owner, attr, wrapper)
        else:
            wrapped[id(fn)] = wrapper
    for mod in [psodkit, *modules.values()]:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped:
                setattr(mod, attr, wrapped[id(val)])
    return modules["cli"]


def main() -> int:
    spans_path, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    rec = Recorder()
    cli = instrument(rec)
    code = None
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        rec.write(spans_path, job, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
