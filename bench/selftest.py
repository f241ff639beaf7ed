"""Self-test of the benchmark at a tiny size (a few seconds).

    python3 bench/selftest.py

It checks that ``BENCHMARK.json`` matches the metrics the code prints, that
every end-to-end and per-layer metric is printed with its unit on every
workload, that the traced counts repeat exactly on one seed, that a sweep
item given the wrong expected sign is counted in ``error_rate`` (not raised,
not dropped), and that the benchmark refuses to run without ``src/hooksq``.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import child  # noqa: E402
import run  # noqa: E402
from tracing import DETERMINISTIC, PER_LAYER  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def printed(record) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(record)
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    check(
        [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]]
        == [(name, unit, better) for name, (unit, better) in run.END_TO_END.items()],
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
        == [(name, unit, better) for name, (unit, better) in PER_LAYER.items()],
        "BENCHMARK.json per_layer matches tracing.PER_LAYER",
    )
    check(
        [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads match run.WORKLOADS",
    )


def check_untraced(workload) -> None:
    record = run.measure(workload, SEED, 1, 0, size="tiny")
    text, result = printed(record)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result line has exactly the contract keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: every answer correct")
    metrics = result["metrics"]
    for name, (unit, _) in run.END_TO_END.items():
        check(metrics.get(name, {}).get("unit") == unit and metrics[name]["value"] > 0,
              f"{workload}: {name} printed in {unit}")
    check(" error_rate " in text and " ratio (" in text, f"{workload}: error_rate printed in ratio")
    env = record["environment"]
    check(all(env.get(k) is not None for k in ("python", "nproc", "git_commit", "seed", "note")),
          f"{workload}: environment recorded")


def check_traced(workload) -> dict:
    record = run.measure(workload, SEED, 1, 1, size="tiny")
    _, result = printed(record)
    metrics = result["metrics"]
    check(all(metrics.get(name, {}).get("unit") == unit for name, (unit, _) in PER_LAYER.items()),
          f"{workload}: every per-layer metric printed with its unit")
    with open(os.path.join(ROOT, record["spans_file"]), encoding="utf-8") as fh:
        names = {json.loads(line)["name"] for line in fh}
    if workload == "tables":
        check(not any(n.startswith("tableaux.") for n in names), "tables: no tableaux spans")
        check(metrics["characters.inner_product.calls"]["value"] > 0, "tables: oracle traced")
    else:
        check(metrics["tableaux.apply_symmetrizer.calls_per_item"]["value"] == 2.0,
              f"{workload}: apply_symmetrizer.calls_per_item is 2.0")
        check(not any(n.startswith("characters.") for n in names), f"{workload}: no oracle spans")
    if workload == "sweep_exact":
        check(metrics["tableaux.project_to_standard.calls"]["value"] == 0,
              "sweep_exact: project_to_standard never called")
    if workload == "sweep_modk":
        check(metrics["tableaux.project_to_standard.calls"]["value"] > 0,
              "sweep_modk: project_to_standard called")
    return {name: metrics[name]["value"] for name in DETERMINISTIC}


def check_wrong_sign() -> None:
    rep = child.run_repetition("sweep_exact", SEED, 0, "tiny", flip_sign_of=0)
    summary = run.summarize([rep])
    check(rep["attempted"] == len(rep["latencies_ns"]) and summary["failed"] == 1,
          "wrong expected sign: item kept and counted as one failure")
    check(summary["error_rate"] == 1 / summary["attempted"], "wrong expected sign: error_rate is 1/attempted")
    check("not verified" in summary["failures"][0], "wrong expected sign: reported as not verified")
    record = {**summary, "workload": "sweep_exact", "seed": SEED, "seconds": 1, "trace": 0,
              "environment": run.environment(SEED), "results_file": "-",
              "units": {name: unit for name, (unit, _) in run.END_TO_END.items()}}
    record["correct"] = False
    _, result = printed(record)
    check(result["correct"] is False and result["failed"] == 1, "wrong expected sign: result line says incorrect")


def check_refuses_without_sources() -> None:
    scratch = os.path.join(run.RESULTS_DIR, "selftest-bare")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(scratch, "bench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(scratch)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/hooksq: non-zero exit and no result line")


def main() -> int:
    check_manifest()
    for workload in run.WORKLOADS:
        check_untraced(workload)
        check(check_traced(workload) == check_traced(workload),
              f"{workload}: two traced runs of one seed give identical counts")
    check_wrong_sign()
    check_refuses_without_sources()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
