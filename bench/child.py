"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

A fresh interpreter per repetition means the ``functools.cache`` state in
``hooksq.characters`` and ``hooksq.partitions`` starts cold, as it does for
every CLI call.  The repetition imports ``hooksq`` from the checkout's
``src/``, builds its item list from the seed, runs every item, checks every
answer, and prints one JSON line describing what happened.

Usage: python3 bench/child.py --workload W --seed S --rep R --size full|tiny
       [--trace-spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
from time import perf_counter, perf_counter_ns

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Even-tail double hooks of n = 8, written out as (q, p, 2^d2, 1^d1).
EXACT_SHAPES = (
    (6, 2), (5, 3), (4, 4), (4, 2, 2), (3, 3, 2), (2, 2, 2, 2),
    (4, 2, 1, 1), (3, 3, 1, 1), (2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1),
)
# Colorings with the first row blank, one per swap pair, over EXACT_SHAPES.
EXACT_CANDIDATES = 11032
# The 7 hooks (7-m, 1^m) of n = 7 share the balanced colorings of [7]:
# 1,780 per hook, one per swap pair.
MODK_N = 7
MODK_CANDIDATES = 12460
TABLES_MAX_N = 14

# Items per repetition: colorings per shape for the sweeps, the largest n for
# tables.  "tiny" is the self-test size.
SIZES = {
    "sweep_exact": {"full": 30, "tiny": 2},
    "sweep_modk": {"full": 60, "tiny": 2},
    "tables": {"full": TABLES_MAX_N, "tiny": 8},
}

TABLE1_PATH = os.path.join(BENCH_DIR, "table1_n8_k2.json")

# On a shared 2-vCPU virtual machine (CPython 3.11), other tenants of the host
# changed the speed by up to 1.8x for tens of seconds at a time: the same sweep
# took 0.61 s to 1.12 s.  So a fixed pure-Python loop, independent of hooksq,
# is timed every CALIBRATE_EVERY_NS of item time, and each item's time is
# rescaled to the speed at which that loop takes CALIBRATION_NOMINAL_S
# ("reference speed").  On the same work the rescaled time varied 2.7%
# (coefficient of variation) where wall time varied 12.8%.  Raw wall-clock
# times are kept beside the rescaled ones.
CALIBRATION_NOMINAL_S = 0.004
CALIBRATE_EVERY_NS = 200_000_000


def _calibration_loop():
    table = {}
    for i in range(4000):
        key = (i % 97, i % 13, i & 7)
        table[key] = table.get(key, 0) + i
    return sum(v for _, v in sorted(table.items()))


def calibrate() -> float:
    """Seconds the calibration loop takes now (best of two).

    The cyclic garbage collector is paused meanwhile, so the loop's time does
    not depend on how large the heap of hooksq has grown.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            _calibration_loop()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Rescales item times by calibrations taken before and after them."""

    def __init__(self, before: float):
        self.before = before
        self.pending: list[int] = []
        self.pending_ns = 0
        self.scaled_ns: list[float] = []

    def add(self, ns: int) -> None:
        self.pending.append(ns)
        self.pending_ns += ns
        if self.pending_ns >= CALIBRATE_EVERY_NS:
            self.flush()

    def flush(self) -> None:
        after = calibrate()
        factor = CALIBRATION_NOMINAL_S / ((self.before + after) / 2)
        self.scaled_ns += [ns * factor for ns in self.pending]
        self.pending, self.pending_ns, self.before = [], 0, after


def exact_sign(lam) -> int:
    """The sign (-1)^(d1/2) that Prop. 3.2 predicts for the even-tail double
    hook (q, p, 2^d2, 1^d1), compared exactly."""
    return -1 if lam.count(1) // 2 % 2 else 1


def hook_sign(lam) -> int:
    """The sign (-1)^floor(m/2) predicted for the hook (n-m, 1^m), compared
    after projection (mod K)."""
    return -1 if (len(lam) - 1) // 2 % 2 else 1


def build_items(workload: str, seed: int, rep: int, size: str, hooksq_verify):
    """The repetition's item list and the set-up problems found.

    Sweep items are drawn stratified by shape: every shape gets the same
    number of colorings, chosen by the seed, so the seed never changes the
    shape mix.  Tables items are every (n, k) in seeded order.
    """
    rng = random.Random(f"{workload}:{seed}:{rep}")
    per = SIZES[workload][size]
    problems = []
    items = []
    if workload == "sweep_exact":
        from hooksq.partitions import Partition

        total = 0
        for lam in EXACT_SHAPES:
            pool = [
                x
                for x in hooksq_verify.first_row_constrained_colorings(Partition(lam))
                if not x.swap_colors() < x
            ]
            total += len(pool)
            sign = exact_sign(lam)
            items += [(lam, x, sign, "exact") for x in rng.sample(pool, per)]
        if total != EXACT_CANDIDATES:
            problems.append(f"sweep_exact has {total} candidates, expected {EXACT_CANDIDATES}")
    elif workload == "sweep_modk":
        pool = [x for x in hooksq_verify.balanced_colorings(MODK_N) if not x.swap_colors() < x]
        if len(pool) * MODK_N != MODK_CANDIDATES:
            problems.append(
                f"sweep_modk has {len(pool) * MODK_N} candidates, expected {MODK_CANDIDATES}"
            )
        for m in range(MODK_N):
            lam = (MODK_N - m,) + (1,) * m
            sign = hook_sign(lam)
            items += [(lam, x, sign, "mod-K") for x in rng.sample(pool, per)]
    else:
        items = [(n, k) for n in range(1, per + 1) for k in range(n)]
    rng.shuffle(items)
    return items, problems


def run_sweep(items, tracer, gauge):
    """Time verify_skew_symmetry per item; a failure is an unverified report
    or an exception."""
    import hooksq.tableaux as tableaux

    latencies, failures = [], []
    for index, (lam, x, sign, mode) in enumerate(items):
        if tracer is not None:
            tracer.item = index
        start = perf_counter_ns()
        try:
            report = tableaux.verify_skew_symmetry(lam, x, sign, mode)
            problem = None if report.verified else "not verified"
        except Exception as exc:  # an item that raises is counted, never fatal
            problem = f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter_ns() - start)
        if tracer is not None:
            tracer.item = None
        gauge.add(latencies[-1])
        if problem:
            failures.append(f"lambda={lam} x={tuple(x)} sign={sign} mode={mode}: {problem}")
    return latencies, failures


def _load_table1():
    with open(TABLE1_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_tables(items, tracer, gauge):
    """Time ``hooksq.cli.main`` per table; a failure is an exception, a
    non-zero exit, JSON that ``MultiplicityTable.from_json_dict`` rejects, or
    (8, 2) rows that differ from the paper's Table 1."""
    import hooksq.cli as cli
    from hooksq.characters import MultiplicityTable

    table1 = _load_table1()
    latencies, failures = [], []
    for index, (n, k) in enumerate(items):
        argv = ["decompose", "--n", str(n), "--k", str(k), "--engine", "both", "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.item = index
        start = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            problem = None
        except (Exception, SystemExit) as exc:  # counted, never fatal
            code, problem = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter_ns() - start)
        if tracer is not None:
            tracer.item = None
        gauge.add(latencies[-1])
        if problem is None and code != 0:
            problem = f"exit {code}: {err.getvalue().strip()}"
        if problem is None:
            problem = _check_table(n, k, out.getvalue(), MultiplicityTable, table1)
        if problem:
            failures.append(f"decompose n={n} k={k}: {problem}")
    return latencies, failures


def _check_table(n, k, text, table_cls, table1):
    try:
        data = json.loads(text)
        table = table_cls.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        return f"rejected JSON: {type(exc).__name__}: {exc}"
    if (table.n, table.k) != (n, k):
        return f"table is for n={table.n} k={table.k}"
    if (n, k) == (table1["n"], table1["k"]) and data["rows"] != table1["rows"]:
        return f"rows differ from the paper's Table 1: {data['rows']}"
    return None


def run_repetition(workload, seed, rep, size, trace_spans=None, flip_sign_of=None):
    """Set up, run and check one repetition; returns the JSON-able record.

    ``flip_sign_of`` inverts the expected sign of that sweep item, which the
    self-test uses to show a wrong answer is counted as a failure.
    """
    before_setup = calibrate()
    start = perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hooksq  # noqa: F401  (the import is part of set-up)
    import hooksq.verify as hooksq_verify

    tracer = None
    if trace_spans is not None:
        if BENCH_DIR not in sys.path:
            sys.path.insert(0, BENCH_DIR)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        items, problems = build_items(workload, seed, rep, size, hooksq_verify)
        setup_s = perf_counter() - start
        gauge = SpeedGauge(calibrate())
        setup_scale = CALIBRATION_NOMINAL_S / ((before_setup + gauge.before) / 2)
        if flip_sign_of is not None:
            lam, x, sign, mode = items[flip_sign_of]
            items[flip_sign_of] = (lam, x, -sign, mode)
        if workload == "tables":
            latencies, failures = run_tables(items, tracer, gauge)
        else:
            latencies, failures = run_sweep(items, tracer, gauge)
        gauge.flush()
        layers = None
        if tracer is not None:
            import hooksq.characters as characters

            cache = characters.irreducible_character.__wrapped__.cache_info()
            layers = tracer.layer_metrics(len(items), cache)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write_spans(trace_spans)
    return {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "setup_s": setup_s * setup_scale,
        "raw_setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_ns": gauge.scaled_ns,
        "raw_latencies_ns": latencies,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "problems": problems,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace-spans", default=None, help="write spans here (traced run)")
    args = parser.parse_args(argv)
    record = run_repetition(args.workload, args.seed, args.rep, args.size, args.trace_spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
