"""Benchmark of the vqcontrast training and retrieval pipeline.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree. Each workload runs in its own process;
``--workload all`` (the default) runs every workload, one process each.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json when ``--trace 0``, its per-layer metrics when ``--trace 1``.
The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread (never more than nproc), set before numpy is imported, so
# that timings measure the program and not how the scheduler shares cores.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

WORKLOAD_NAMES = ("desk-train", "paper-train", "retrieval-eval")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str:
    """The commit of the source tree, read from .git without leaving ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, config) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "geometry": config.to_dict(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": NPROC, "python": platform.python_version(), "commit": git_commit(),
    }


def run_all(args) -> int:
    """Every workload, each in a fresh process; output relayed as it comes."""
    worst = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        worst = max(worst, child.returncode)
    return worst


def declared_metrics(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def end_to_end(setup_figures: dict, outcome) -> dict[str, float]:
    return {
        "setup_s": setup_figures["setup_s"],
        "op_s": statistics.median(outcome.plain_op_s),
        "rows_per_s": outcome.rows_per_op * len(outcome.plain_op_s) / sum(outcome.plain_op_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setup_figures: dict, outcome, declared) -> tuple[dict[str, float], str | None]:
    """Per-layer figures, and why they do not add up (or None)."""
    layers = dict(outcome.layers)
    rows = layers.pop("encoders.image.rows", 0.0)
    distinct = layers.pop("encoders.image.distinct_rows", 0.0)
    layers.pop("harness.epoch_end", None)
    problem = None
    unknown = sorted(set(layers) - set(declared))
    if unknown:
        problem = f"trace has spans outside the declared layers: {unknown}"
    times = sum(v for k, v in layers.items() if k.endswith("_s"))
    traced_op = statistics.fmean(outcome.traced_op_s)
    if abs(times - traced_op) > 1e-9 * traced_op:
        problem = f"layer self times add up to {times!r}, traced op_s is {traced_op!r}"
    out = dict.fromkeys(declared, 0.0)
    out.update(layers)
    out.update((k, v) for k, v in setup_figures.items() if k in declared)
    out["encoders.image.unique_row_frac"] = distinct / rows if rows else 0.0
    out["trace.overhead_s"] = (statistics.median(outcome.traced_op_s)
                               - statistics.median(outcome.plain_op_s))
    return out, problem


def run_one(args) -> int:
    if not (SRC / "vqcontrast" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'vqcontrast'}; run from a full source tree")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    sys.path.insert(0, str(SRC))
    import vqcontrast

    if Path(vqcontrast.__file__).resolve().parent != SRC / "vqcontrast":
        fail(f"imported vqcontrast from {vqcontrast.__file__}, not from {SRC}")
    from workloads import run_workload

    traced = args.trace == 1
    declared = declared_metrics(traced)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_figures, outcome, problem, tracer, config = run_workload(
            args.workload, args.seed, args.seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        metrics, trace_problem = per_layer(setup_figures, outcome, declared)
        problem = problem or trace_problem
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(setup_figures, outcome)
    if set(metrics) != set(declared):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    if problem:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    print(json.dumps({"env": environment(args.workload, args.seed, config)}))
    print(json.dumps({
        "correct": problem is None,
        "attempted": outcome.attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
