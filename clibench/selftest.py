"""Self-test of the benchmark's output checks.

    python3 clibench/selftest.py

Run from the root of a checkout.  For every job of every workload (seed 0)
it runs psodkit once, requires the check to pass the real output, then
feeds the check copies of that output with one thing changed: a relation
entry flipped, a torsion invariant altered, two positions of a numbering,
element list or step list swapped, a verdict negated, or two rows of a
human-mode listing swapped.  Every altered copy must be rejected, and every
job must offer at least one thing to alter.  Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from typing import Iterator

from run import SRC, WORK, child_env, cli_cmd
from workloads import WORKLOADS, Job

LISTS = ("numbering", "elements", "steps")
VERDICTS = ("ok", "directed")
PER_KIND = 2  # altered copies tried per kind of site and job


def _sites(doc, path=()) -> Iterator[tuple[str, tuple]]:
    if isinstance(doc, dict):
        for key, val in doc.items():
            here = path + (key,)
            if key == "leq" and isinstance(val, list) and len(val) > 1:
                yield "relation entry", here
            elif key == "torsion" and val:
                yield "torsion invariant", here
            elif key in LISTS and isinstance(val, list) and len(val) > 1:
                yield "numbering position", here
            elif key in VERDICTS and isinstance(val, bool):
                yield "verdict", here
            yield from _sites(val, here)
    elif isinstance(doc, list):
        for i, val in enumerate(doc[:4]):
            yield from _sites(val, path + (i,))


def _alter(doc, kind: str, path: tuple, rng: random.Random):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    val = parent[path[-1]]
    if kind == "relation entry":
        i, j = rng.sample(range(len(val)), 2)
        val[i][j] = not val[i][j]
    elif kind == "torsion invariant":
        val[0] *= 2
    elif kind == "numbering position":
        i = rng.randrange(len(val) - 1)
        val[i], val[i + 1] = val[i + 1], val[i]
    else:
        parent[path[-1]] = not val
    return out


def altered_outputs(text: str, rng: random.Random) -> Iterator[tuple[str, str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        lines = text.split("\n")
        for _ in range(PER_KIND):
            i = rng.randrange(1, len(lines) - 2)
            lines2 = lines[:]
            lines2[i], lines2[i + 1] = lines2[i + 1], lines2[i]
            yield "listing rows", "\n".join(lines2)
        return
    seen: dict[str, int] = {}
    for kind, path in _sites(doc):
        if seen.get(kind, 0) < PER_KIND:
            seen[kind] = seen.get(kind, 0) + 1
            yield kind, json.dumps(_alter(doc, kind, path, rng))


def selftest_job(job: Job, rng: random.Random) -> list[str]:
    out = subprocess.run(cli_cmd(job.argv), capture_output=True, text=True, env=child_env())
    if out.returncode != 0:
        return [f"{job.name}: exit {out.returncode}: {out.stderr.strip()[-200:]}"]
    if job.check(out.stdout):
        return [f"{job.name}: the real output fails its check"]
    misses, tried = [], 0
    for kind, text in altered_outputs(out.stdout, rng):
        tried += 1
        if not job.check(text):
            misses.append(f"{job.name}: a changed {kind} passes the check")
    if not tried:
        misses.append(f"{job.name}: nothing in the output to change")
    print(f"{job.name:<18} {tried} altered outputs, {tried - len(misses)} rejected")
    return misses


def main() -> int:
    if not (SRC / "psodkit" / "cli.py").is_file():
        print(f"error: no psodkit sources under {SRC}", file=sys.stderr)
        return 2
    rng = random.Random(0)
    misses = []
    for name, build in WORKLOADS.items():
        work = WORK / f"selftest-{name}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        for job in build(random.Random(0), work):
            misses += selftest_job(job, rng)
    for m in misses:
        print("MISS", m)
    print("selftest", "failed" if misses else "passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
