"""hooksq benchmark: seeded workloads against the public API, every answer checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep_exact --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``bench/child.py``), one at a
time: a closed loop of one process and one thread.  Repetitions continue until
``--seconds`` have passed (at least three, so set-up time is a median).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced runs of repetition 0's item list (at least one
pair) and reports the per-layer metrics of ``bench/tracing.py`` plus the
tracing overhead: untraced over traced ``items_per_s``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the environment, goes to ``bench/results/``.  The exit
code is 0 when every answer was correct, 1 when some answer was wrong, and 2
when the benchmark could not run (no ``src/hooksq`` beside it, a repetition
that crashed or overran); those two print no JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
sys.path.insert(0, BENCH_DIR)

from tracing import DETERMINISTIC, PER_LAYER  # noqa: E402

WORKLOADS = {
    "sweep_exact": "exact skew-symmetry checks on the n=8 even-tail double hooks: column antisymmetrizer bound, no projection",
    "sweep_modk": "projected (mod-K) skew-symmetry checks on the n=7 hooks: long row blocks plus project_to_standard",
    "tables": "decompose --engine both for every n<=14: character oracle and closed form, no tableau engine",
}

# End-to-end metrics: name -> (unit, better).  error_rate is reported too but
# reads 0 on a correct program, so it lives in the JSON line's failed/attempted
# counts rather than among the bounded metrics.
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "item_ms.p50": ("ms", "lower"),
    "item_ms.p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

MIN_REPS = 3
# Keep a run inside three minutes even if repetitions become slow.
DEADLINE_S = 165.0
NOTE = "process-local timers only; no system-wide tracing"


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "note": NOTE,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def spawn(workload, seed, rep, size, deadline, spans=None) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    cmd = [sys.executable, "-I", CHILD, "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--size", size]
    if spans is not None:
        cmd += ["--trace-spans", spans]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for another repetition")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {rep} overran the {DEADLINE_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise BenchError(f"repetition {rep} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _timings(reps, latency_key, setup_key) -> dict:
    latencies = sorted(ns for rep in reps for ns in rep[latency_key])
    return {
        "items_per_s": len(latencies) / (sum(latencies) / 1e9),
        "item_ms.p50": percentile(latencies, 0.50) / 1e6,
        "item_ms.p90": percentile(latencies, 0.90) / 1e6,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_s": statistics.median(rep[setup_key] for rep in reps),
    }


def summarize(reps) -> dict:
    """End-to-end metrics (at reference speed, and raw wall clock) and counts."""
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "metrics": _timings(reps, "latencies_ns", "setup_s"),
        "wall_clock": _timings(reps, "raw_latencies_ns", "raw_setup_s"),
        "samples": sum(len(rep["latencies_ns"]) for rep in reps),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": [msg for rep in reps for msg in rep["failures"]][:10],
        "problems": sorted({p for rep in reps for p in rep["problems"]}),
        "repetitions": len(reps),
    }


def repeat(run_one, seconds, min_runs, start, deadline) -> list:
    """Call run_one(i) for i = 0, 1, ... until ``seconds`` have passed and
    ``min_runs`` are done, or until the next call would pass the deadline."""
    done = []
    while True:
        before = perf_counter()
        done.append(run_one(len(done)))
        now = perf_counter()
        if now - start >= seconds and len(done) >= min_runs:
            return done
        if now + (now - before) > deadline:
            return done


def traced_layers(pairs) -> tuple[dict, list]:
    """Per-layer metrics of (untraced, traced) repetition pairs of one item
    list: counts from the first traced run (every traced run must agree),
    times as medians, and the tracing overhead."""
    first = pairs[0][1]["layers"]
    layers = {}
    problems = []
    for name in first:
        values = [traced["layers"][name] for _, traced in pairs]
        if name in DETERMINISTIC:
            layers[name] = first[name]
            if any(v != first[name] for v in values):
                problems.append(f"traced count {name} differs between repetitions: {values}")
        else:
            layers[name] = statistics.median(values)
    rates = [
        (summarize([plain])["metrics"]["items_per_s"], summarize([traced])["metrics"]["items_per_s"])
        for plain, traced in pairs
    ]
    layers["trace.untraced_items_per_s"] = statistics.median(u for u, _ in rates)
    layers["trace.traced_items_per_s"] = statistics.median(t for _, t in rates)
    layers["trace.overhead_ratio"] = statistics.median(u / t for u, t in rates)
    return layers, problems


def measure(workload, seed, seconds, trace, size="full") -> dict:
    """Run the workload and return the full record (not yet printed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hooksq", "__init__.py")):
        raise BenchError(f"no hooksq sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    start = perf_counter()
    deadline = start + DEADLINE_S
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "environment": environment(seed)}
    stem = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}" + ("" if size == "full" else f"-{size}"))
    if trace:
        # The same item list (repetition 0) every time, so counts repeat exactly.
        spans = f"{stem}-spans.jsonl"
        pairs = repeat(
            lambda _: (spawn(workload, seed, 0, size, deadline),
                       spawn(workload, seed, 0, size, deadline, spans=spans)),
            seconds, 1, start, deadline,
        )
        layers, problems = traced_layers(pairs)
        record.update(summarize([rep for pair in pairs for rep in pair]))
        record["problems"] += problems
        record["spans_file"] = os.path.relpath(spans, ROOT)
        record["end_to_end"] = record["metrics"]
        record["metrics"] = {name: layers[name] for name in PER_LAYER}
        record["units"] = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        reps = repeat(
            lambda rep: spawn(workload, seed, rep, size, deadline),
            seconds, MIN_REPS, start, deadline,
        )
        record.update(summarize(reps))
        record["units"] = {name: unit for name, (unit, _) in END_TO_END.items()}
    record["correct"] = record["failed"] == 0 and not record["problems"]
    record["elapsed_s"] = perf_counter() - start
    path = f"{stem}-trace{trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["results_file"] = os.path.relpath(path, ROOT)
    return record


def report(record) -> None:
    """Print the human-readable lines, then the JSON result line."""
    env = record["environment"]
    print(f"hooksq benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"environment: python={env['python']} nproc={env['nproc']} "
          f"commit={env['git_commit']} seed={env['seed']} note={env['note']}")
    print(f"load: closed loop, one process, one thread; {record['repetitions']} "
          f"fresh-interpreter repetitions, {record['samples']} items timed")
    units = record["units"]
    for name, value in record["metrics"].items():
        print(f"  {name:<48} {value!r} {units[name]}")
    if not record["trace"]:
        wall = ", ".join(f"{k} {v:.6g}" for k, v in record["wall_clock"].items())
        print(f"  raw wall clock (not rescaled): {wall}")
    print(f"  {'error_rate':<48} {record['error_rate']!r} ratio "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for msg in record["failures"] + record["problems"]:
        print(f"  FAILED: {msg}")
    print(f"results: {record['results_file']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
