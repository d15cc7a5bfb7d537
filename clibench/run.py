"""End-to-end benchmark of the psodkit command line.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness writes the workload's seeded
input documents under clibench/work/, then runs the workload's jobs one at a
time, each as a fresh ``python -m psodkit.cli`` process on the checkout's own
src/, timed from spawn to exit.  It makes whole passes over the job list, at
least three, until S seconds have gone by, checks every output against the
reference oracles, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, peak_rss_mb and
output_mb.  --trace 1 reports the per-layer metrics: it runs untraced passes
for per-job times, then one traced pass whose jobs wrap every public psodkit
function in a span (traced_cli.py); see README.md for what each one means.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / "work"

from workloads import WORKLOADS, Job  # noqa: E402

SETUPS = 5
# a job's median over three passes or more is not moved by one slow pass
MIN_PASSES = 3
JOB_TIMEOUT_S = 120
STARTUP_ARGV = ["order", "cmp", "--", "0", "0"]
STARTUP_SAMPLES = 5


class Outcome(NamedTuple):
    seconds: float
    rss_mb: float
    code: int
    out_bytes: int
    digest: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a fixed hash seed keeps set iteration, and so call counts, repeatable
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """The small process that starts every job and reports its time from
    spawn to exit and its peak resident set (see launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def run(self, cmd: list[str], out_path: Path, err_path: Path) -> Outcome:
        req = {"cmd": cmd, "env": child_env(), "cwd": str(ROOT), "out": str(out_path),
               "err": str(err_path), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher ended early")
        rep = json.loads(line)
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        return Outcome(rep["seconds"], rep["rss_kb"] / 1024, rep["status"],
                       out_path.stat().st_size, digest)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.proc.stdin.close()
            self.proc.wait(timeout=JOB_TIMEOUT_S)
        else:
            # the launcher leads its own process group, with any running job
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "psodkit.cli", *argv]


def traced_cmd(spans: Path, job: str, argv: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), job, "--", *argv]


def setup(launcher: Launcher, workload: str, seed: int, work: Path) -> tuple[float, list[Job]]:
    """Write the seeded inputs and run one untimed warm-up invocation."""
    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    (work / "out").mkdir(parents=True)
    jobs = WORKLOADS[workload](random.Random(seed), work)
    launcher.run(cli_cmd(STARTUP_ARGV), work / "out" / "warmup.out", work / "out" / "warmup.err")
    return time.perf_counter() - t0, jobs


def run_pass(launcher: Launcher, jobs: list[Job], work: Path,
             spans: Path | None = None) -> dict[str, Outcome]:
    out = {}
    for job in jobs:
        stdout, stderr = work / "out" / f"{job.name}.out", work / "out" / f"{job.name}.err"
        if spans is None:
            cmd = cli_cmd(job.argv)
        else:
            cmd = traced_cmd(spans / f"{job.name}.spans", job.name, job.argv)
        out[job.name] = launcher.run(cmd, stdout, stderr)
    return out


def measure(launcher: Launcher, jobs: list[Job], work: Path,
            seconds: float) -> tuple[list[dict], dict[str, str]]:
    """Whole passes, at least MIN_PASSES, until ``seconds`` have gone by; the
    first pass's outputs are kept for checking."""
    passes: list[dict[str, Outcome]] = []
    texts: dict[str, str] = {}
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(launcher, jobs, work))
        if len(passes) == 1:
            for job in jobs:
                texts[job.name] = (work / "out" / f"{job.name}.out").read_text("utf-8")
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            return passes, texts


def check_outputs(jobs: list[Job], passes: list[dict],
                  texts: dict[str, str]) -> tuple[int, list[str]]:
    """The number of job runs that exited non-zero, and the problems found in
    the outputs of the others.  A later pass must repeat the first pass's
    output byte for byte."""
    failed = 0
    problems: list[str] = []
    for job in jobs:
        first = passes[0][job.name]
        for p in passes:
            o = p[job.name]
            if o.code != 0:
                failed += 1
            elif o.digest != first.digest:
                problems.append(f"{job.name}: output differs between passes")
        if first.code != 0:
            continue
        try:
            found = job.check(texts[job.name])
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            found = [f"malformed output ({type(exc).__name__}: {exc})"]
        problems += [f"{job.name}: {p}" for p in found]
    return failed, problems


def end_to_end(setup_times: list[float], passes: list[dict]) -> dict:
    """wall_s sums each job's median over the passes; peak_rss_mb is the
    largest of the per-job medians; output_mb counts one pass's stdout."""
    names = list(passes[0])
    med = {n: statistics.median(p[n].seconds for p in passes) for n in names}
    rss = {n: statistics.median(p[n].rss_mb for p in passes) for n in names}
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(med.values()), "s"),
        "peak_rss_mb": (max(rss.values()), "MB"),
        "output_mb": (sum(o.out_bytes for o in passes[0].values()) / 1e6, "MB"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from span files

SELF_LAYERS = ("engine", "factorial", "preorders", "strata", "abelian")
# inclusive times: outermost spans of any of the named functions
INCLUSIVE = {
    "engine.build_root_psod_s": ["engine.build_root_psod"],
    "engine.build_infinite_psod_s": ["engine.build_infinite_psod"],
    "engine.glue_s": ["engine.glue"],
    "engine.ktheory_report_s": ["engine.ktheory_report"],
    "engine.filtration_s": ["engine.filtration"],
    "factorial.enumerate_characters_s": ["factorial.enumerate_characters"],
    "preorders.colimit_s": ["preorders.colimit", "preorders.pushout", "preorders.coproduct"],
    "preorders.directedness_s": ["preorders.directedness", "preorders.is_directed",
                                 "preorders.directed_numbering"],
    "preorders.verify_colimit_s": ["preorders.verify_colimit"],
    "abelian.snf_s": ["abelian.snf"],
    "abelian.hnf_s": ["abelian.hnf"],
    "abelian.solve_columns_s": ["abelian.solve_columns"],
    "abelian.matmul_s": ["abelian.IntMatrix.mul"],
    "abelian.graded_limit_s": ["abelian.graded_limit"],
}
CALLS = {
    "factorial.cmp_bang_calls": ["factorial.cmp_bang"],
    "factorial.to_factorial_form_calls": ["factorial.to_factorial_form"],
    "preorders.carriers": ["preorders.FinitePreorder.__post_init__"],
    "preorders.reflecting_map_checks": ["preorders._reflection_witness",
                                        "preorders.is_order_reflecting"],
    "strata.validate_calls": ["strata.validate"],
    "abelian.snf_calls": ["abelian.snf"],
    "abelian.hnf_calls": ["abelian.hnf"],
}
SIZE_METRICS = {
    "documents.bytes_out": "documents.dumps",
    "documents.bytes_in": "documents.loads",
    "preorders.carrier_cells": "preorders.FinitePreorder.__post_init__",
    "abelian.snf_cells": "abelian.snf",
}


def _doc_groups(names: list[str]) -> dict[str, list[str]]:
    enc = [n for n in names if n.startswith("documents.")
           and (n.endswith("_to_doc") or n == "documents.dumps")]
    dec = [n for n in names if n.startswith("documents.")
           and (n.endswith("_from_doc") or n == "documents.loads")]
    return {"documents.encode_s": enc, "documents.decode_s": dec}


def span_metrics(path: Path) -> dict[str, float]:
    """Per-layer figures of one traced job.  A layer's self time is the time
    of its spans minus the time of their direct child spans."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "q", "q"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    name, parent, start, end = arrays
    names = header["names"]
    nid = {x: i for i, x in enumerate(names)}
    layer = [x.split(".")[0] for x in names]
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_ns = dict.fromkeys(SELF_LAYERS, 0)
    calls = [0] * len(names)
    for i in range(n):
        calls[name[i]] += 1
        lay = layer[name[i]]
        if lay in self_ns:
            self_ns[lay] += dur[i] - child[i]
    groups = dict(INCLUSIVE) | _doc_groups(names)
    # bit g of mask[name] marks membership of group g; an outermost span of a
    # group has no ancestor in it
    metric_names = list(groups)
    mask = [0] * len(names)
    for g, metric in enumerate(metric_names):
        for x in groups[metric]:
            if x in nid:
                mask[nid[x]] |= 1 << g
    incl = [0] * len(metric_names)
    above = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            above[i] = above[p] | mask[name[p]]
        fresh = mask[name[i]] & ~above[i]
        g = 0
        while fresh:
            if fresh & 1:
                incl[g] += dur[i]
            fresh >>= 1
            g += 1
    out = {f"{lay}.self_s": ns / 1e9 for lay, ns in self_ns.items()}
    out |= {metric: incl[g] / 1e9 for g, metric in enumerate(metric_names)}
    out |= {metric: sum(calls[nid[x]] for x in xs if x in nid) for metric, xs in CALLS.items()}
    out |= {metric: header["sizes"].get(x, 0) for metric, x in SIZE_METRICS.items()}
    return out


def per_layer(launcher: Launcher, jobs: list[Job], work: Path, passes: list[dict],
              traced: dict) -> dict:
    """Sums of the span figures over the traced pass, the per-job medians of
    the untraced passes, and the cost of tracing."""
    spans = work / "spans"
    totals: dict[str, float] = {}
    for job in jobs:
        for metric, value in span_metrics(spans / f"{job.name}.spans").items():
            totals[metric] = totals.get(metric, 0) + value
    out = dict(totals)
    startup = []
    for _ in range(STARTUP_SAMPLES):
        startup.append(launcher.run(cli_cmd(STARTUP_ARGV), work / "out" / "startup.out",
                             work / "out" / "startup.err").seconds)
    out["cli.startup_s"] = statistics.median(startup)
    untraced = 0.0
    for name in passes[0]:
        med = statistics.median(p[name].seconds for p in passes)
        out[f"cli.{name}_s"] = med
        untraced += med
    out["trace.overhead_s"] = sum(o.seconds for o in traced.values()) - untraced
    return out


def declared_per_layer() -> list[tuple[str, str]]:
    """Name and unit of every per-layer metric in BENCHMARK.json.  A run
    reports all of them; the job times of other workloads read 0."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "psodkit" / "cli.py").is_file():
        print(f"error: no psodkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    with Launcher() as launcher:
        setup_times = []
        for _ in range(SETUPS):
            seconds, jobs = setup(launcher, args.workload, args.seed, work)
            setup_times.append(seconds)
        passes, texts = measure(launcher, jobs, work, args.seconds)
        attempted = len(passes) * len(jobs)
        checked = passes
        if args.trace:
            (work / "spans").mkdir()
            traced = run_pass(launcher, jobs, work, spans=work / "spans")
            attempted += len(jobs)
            checked = passes + [traced]
            values = per_layer(launcher, jobs, work, passes, traced)
    failed, problems = check_outputs(jobs, checked, texts)

    for job in jobs:
        times = [p[job.name].seconds for p in passes]
        o = passes[0][job.name]
        print(f"{job.name:<18} median {statistics.median(times):8.3f} s over {len(times)}"
              f"  rss {o.rss_mb:7.1f} MB  out {o.out_bytes / 1e6:8.3f} MB")
    for p in problems:
        print(f"PROBLEM {p}")
    if failed:
        print(f"{failed} job runs exited non-zero")

    if args.trace:
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in declared_per_layer()}
    else:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in end_to_end(setup_times, passes).items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
