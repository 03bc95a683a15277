"""Benchmark of the bzloop verification pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The package is imported from ./src.  One run measures one workload for
--seconds seconds in whole passes; a pass runs every operation of the
workload once and checks each output.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 passes
alternate between untraced and traced (see layers.py) and the JSON holds
the per-layer metrics.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("gf2", "words", "algebra", "nq", "bl", "oracle", "char2", "analyze", "cli")
SETUPS = 9  # set-up repeats; setup_s is their median
# Nominal duration of reference_loop, about its time on an idle 2-core x86-64
# VM under CPython 3.11.  Measured times are scaled to it.
REFERENCE_S = 0.02


def reference_loop() -> int:
    """Fixed pure-Python work, timed just before every measured step.

    On a shared host the machine's speed drifts by tens of percent within
    minutes, and every step slows with it.  Scaling a step's wall time by
    REFERENCE_S / (this loop's time just before it) cancels most of that
    drift.  The loop allocates no gc-tracked objects, so the size of the
    package's heap does not change its time.
    """
    table: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        key = (i * 7919) & 4095
        v = table.get(key)
        if v is None:
            v = table[key] = (i * 0x9E3779B97F4A7C15) >> 7
        acc ^= v << (i & 255)
    return acc


def speed_scale() -> float:
    """REFERENCE_S over the reference loop's wall time now."""
    t0 = time.perf_counter()
    reference_loop()
    return REFERENCE_S / (time.perf_counter() - t0)


class OpStats:
    def __init__(self):
        self.times: list[float] = []  # wall seconds scaled to the reference speed
        self.wall: list[float] = []  # wall seconds as measured
        self.ok = 0
        self.failures: Counter = Counter()
        self.wrong = False  # an output came back and was wrong


def import_bzloop() -> SimpleNamespace:
    """Import the package from ./src afresh and return its modules."""
    for name in [n for n in sys.modules if n == "bzloop" or n.startswith("bzloop.")]:
        del sys.modules[name]
    package = importlib.import_module("bzloop")
    if Path(package.__file__).resolve().parent != SRC / "bzloop":
        raise ImportError(f"bzloop was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"bzloop.{m}") for m in MODULES})


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """The interpreter settings the run found; the benchmark changes none of them."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "recursion_limit": sys.getrecursionlimit(),
        "gc_enabled": gc.isenabled(),
        "gc_thresholds": list(gc.get_threshold()),
    }


def run_pass(ops, stats: dict[str, OpStats]) -> list[float]:
    """Run and check every op once; return the speed scales used."""
    scales = []
    for op in ops:
        st = stats[op.name]
        scales.append(speed_scale())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            st.wall.append(time.perf_counter() - t0)
            st.times.append(scales[-1] * st.wall[-1])
            st.failures[type(exc).__name__] += 1
            continue
        st.wall.append(time.perf_counter() - t0)
        st.times.append(scales[-1] * st.wall[-1])
        error = op.check(out)
        if error is None:
            st.ok += 1
        else:
            st.failures["wrong output: " + error] += 1
            st.wrong = True
    return scales


def verified_rate(ops, stats: dict[str, OpStats], wall: bool = False) -> float:
    """Degrees certified per second over a pass of per-operation median times."""
    credit = sum(op.credit * stats[op.name].ok / len(stats[op.name].times) for op in ops)
    seconds = sum(statistics.median(stats[op.name].wall if wall else stats[op.name].times) for op in ops)
    return credit / seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bzloop" / "__init__.py").is_file():
        print(f"error: no bzloop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    refs = json.loads(workloads.REFS_PATH.read_text())
    OUT.mkdir(exist_ok=True)

    setup_times = []
    for _ in range(SETUPS):
        scale = speed_scale()
        t0 = time.perf_counter()
        mods = import_bzloop()
        work = workloads.build(args.workload, mods, args.seed, refs, OUT)
        setup_times.append(scale * (time.perf_counter() - t0))
    work.prepare()

    untraced = {op.name: OpStats() for op in work.ops}
    traced = {op.name: OpStats() for op in work.ops}
    tracer = layers.Tracer()
    layer_passes: list[dict] = []
    passes = 0
    deadline = time.perf_counter() + args.seconds
    while passes < 1 + args.trace or time.perf_counter() < deadline:
        if args.trace and passes % 2:
            tracer.reset()
            tracer.install(mods)
            try:
                scale = statistics.median(run_pass(work.ops, traced))
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.metrics(scale))
        else:
            run_pass(work.ops, untraced)
        passes += 1
    final_errors = work.final()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_stats = [untraced] + ([traced] if args.trace else [])
    attempted = sum(len(st.times) for s in all_stats for st in s.values())
    failed = attempted - sum(st.ok for s in all_stats for st in s.values())
    wrong = any(st.wrong for s in all_stats for st in s.values())
    failures = Counter()
    for s in all_stats:
        for name, st in s.items():
            failures.update({f"{name} {reason}": k for reason, k in st.failures.items()})
    rate = verified_rate(work.ops, untraced)

    print(f"bzloop benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={passes}")
    print("environment: " + json.dumps(env))
    for op in work.ops:
        st = untraced[op.name]
        reasons = ", ".join(f"{r} x{k}" for r, k in st.failures.items())
        print(f"op {op.name}: credit {op.credit}, {st.ok}/{len(st.times)} ok, "
              f"median {statistics.median(st.times):.4f} s scaled, {statistics.median(st.wall):.4f} s wall"
              + (f"; failed: {reasons}" if reasons else ""))
    for (fmt, key), digest in sorted(work.digests.items()):
        print(f"digest {fmt} {key} sha256:{digest}")
    for error in final_errors:
        print(f"final check failed: {error}")
    print(f"fail_frac {failed / attempted:.4f} frac ({failed} of {attempted} operations failed"
          + "".join(f"; {what} x{k}" for what, k in failures.items()) + ")")
    print(f"unscaled verified_deg_per_s {verified_rate(work.ops, untraced, wall=True):.6g} deg/s (wall clock)")

    if args.trace:
        traced_rate = verified_rate(work.ops, traced)
        # median_low picks a measured pass, so counts stay whole numbers
        values = {name: statistics.median_low(p[name] for p in layer_passes) for name, _ in layers.METRICS}
        values["trace.overhead_frac"] = rate / traced_rate - 1 if traced_rate else 0.0
        units = dict(layers.METRICS, **{"trace.overhead_frac": "frac"})
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump(), indent=1) + "\n")
        print(f"trace of the last traced pass: {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "verified_deg_per_s": rate,
            "pass_frac": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = {"verified_deg_per_s": "deg/s", "pass_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"}
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not wrong and not final_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
