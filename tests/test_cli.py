import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hooksq
import hooksq.characters as characters
from hooksq import BudgetError, MultiplicityTable, Partition, full_table, verify_skew_symmetry
from hooksq.cli import main
from hooksq.verify import SUITES, sweep_colorings
from oracles import TABLE_8_2, TABLE_8_2_ORDER


def run_cli(argv):
    """(exit code, out, err) of ``main(argv)``; an argparse rejection, which
    raises SystemExit, is read as its exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_text_table(text):
    lines = text.strip().splitlines()
    assert lines[0].split() == ["lambda", "tensor", "sym", "ext"]
    rows = []
    for line in lines[1:]:
        lam, tensor, sym, ext = line.split()
        rows.append((tuple(int(v) for v in lam.split(",")), (int(tensor), int(sym), int(ext))))
    return rows


def test_decompose_text_golden():
    code, out, err = run_cli(["decompose", "--n", "8", "--k", "2"])
    assert code == 0 and not err
    assert parse_text_table(out) == [(lam, TABLE_8_2[lam]) for lam in TABLE_8_2_ORDER]


def test_decompose_engines_agree():
    for args in (["--n", "5", "--k", "0"], ["--n", "9", "--k", "3"]):
        code, out, err = run_cli(["decompose", *args, "--engine", "both"])
        assert code == 0, err
    code, out, _ = run_cli(["decompose", "--n", "5", "--k", "0", "--engine", "both"])
    assert parse_text_table(out) == [((5,), (1, 1, 0))]


def test_decompose_json_roundtrip():
    code, out, err = run_cli(["decompose", "--n", "8", "--k", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["v"] == 1 and data["n"] == 8 and data["k"] == 2
    assert [tuple(row["lambda"]) for row in data["rows"]] == TABLE_8_2_ORDER
    assert MultiplicityTable.from_json_dict(data) == full_table(8, 2)


def test_decompose_is_deterministic():
    first = run_cli(["decompose", "--n", "9", "--k", "4", "--format", "json"])
    second = run_cli(["decompose", "--n", "9", "--k", "4", "--format", "json"])
    assert first == second


def test_decompose_argument_errors(monkeypatch):
    code, _, err = run_cli(["decompose", "--n", "5", "--k", "5"])
    assert code == 2 and err
    # the oracle runs up to the one size cap, n <= 20, and refuses n = 21 at once
    code, out, _ = run_cli(
        ["decompose", "--n", "15", "--k", "2", "--engine", "oracle", "--format", "json"]
    )
    assert code == 0 and MultiplicityTable.from_json_dict(json.loads(out)) == full_table(15, 2)
    start = time.perf_counter()
    code, out, err = run_cli(["decompose", "--n", "21", "--k", "2", "--engine", "oracle"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out and "n <= 20" in err
    # --budget, --force and --jobs are gone: argparse rejects them like any
    # unknown option, before any engine runs
    built = []
    monkeypatch.setattr(hooksq.cli, "full_table", lambda *args: built.append(args))
    for extra in (["--budget", "15"], ["--budget", "-3"], ["--force"], ["--jobs", "0"]):
        code, out, err = run_cli(["decompose", "--n", "8", "--k", "2", *extra])
        assert code == 2 and not out
        assert f"unrecognized arguments: {' '.join(extra)}" in err
    assert built == []



def test_decompose_engine_mismatch(monkeypatch):
    # (3,1) and (2,1,1) both have dimension 3, so moving the symmetric
    # copy between them leaves a table that passes every table check
    rows = dict(full_table(4, 1).rows)
    rows[Partition((3, 1))] = (0, 0, 0)
    rows[Partition((2, 1, 1))] = (2, 1, 1)
    spoiled = MultiplicityTable(4, 1, rows)
    monkeypatch.setattr(hooksq.cli, "decompose_oracle", lambda n, k: spoiled)
    code, out, err = run_cli(["decompose", "--n", "4", "--k", "1", "--engine", "both"])
    assert code == 3 and not out
    assert err.splitlines() == [
        "mismatch at 3,1: closed=(1, 1, 0), oracle=(0, 0, 0)",
        "mismatch at 2,1,1: closed=(1, 0, 1), oracle=(2, 1, 1)",
    ]

def test_decompose_closed_engine_reaches_larger_n():
    code, out, _ = run_cli(["decompose", "--n", "17", "--k", "2"])
    assert code == 0
    rows = parse_text_table(out)
    assert ((17,), (1, 1, 0)) in rows


def test_verify_empty_report():
    code, out, err = run_cli(["verify", "--max-n", "0"])
    assert code == 0 and out == "" and err == ""


def test_verify_single_suite():
    code, out, _ = run_cli(["verify", "--max-n", "6", "--suites", "lemma31"])
    assert code == 0
    assert out.startswith("lemma31:")
    assert "0 failures" in out and "[pass]" in out



def test_verify_failing_suite(monkeypatch):
    # every lemma31 check expects the opposite sign; it still holds where
    # the symmetrizer image is zero, and fails on the other 96
    expected = hooksq.verify.expected_skew_sign

    def flipped(lam):
        sign, mode = expected(lam)
        return -sign, mode

    monkeypatch.setattr(hooksq.verify, "expected_skew_sign", flipped)
    code, out, _ = run_cli(["verify", "--max-n", "6", "--suites", "lemma31"])
    assert code == 1
    assert out.splitlines() == [
        "lemma31: 768 checks, 96 failures [FAIL]",
        "  first counterexample: lam=(2, 2, 2), x=(0, 0, 1, 3, 2, 3), expected -1",
    ]


def test_verify_swaps_witness_line():
    # the swaps suite also reports the unbalanced swaps whose sign is -1,
    # with the first one found
    code, out, _ = run_cli(["verify", "--max-n", "3", "--suites", "swaps"])
    assert code == 0
    assert out.splitlines() == [
        "swaps: 27 checks, 0 failures [pass]",
        "  recorded 4 unbalanced sign flips, e.g. x=(1, 1, 2), s=Permutation[3](1,3)",
    ]


def test_verify_suite_list_parsing_and_color():
    code, out, _ = run_cli(["verify", "--max-n", "4", "--suites", "psi,tables", "--color"])
    assert code == 0
    assert out.splitlines()[0].startswith("psi:")
    assert "tables:" in out
    assert "\x1b[32m" in out


def test_verify_tables_to_n12():
    code, out, _ = run_cli(["verify", "--max-n", "12", "--suites", "tables"])
    assert code == 0
    assert out.startswith("tables:") and "0 failures" in out
    # the oracle is not clamped below the size cap: n <= 16 is 136 tables
    code, out, _ = run_cli(["verify", "--max-n", "16", "--suites", "tables"])
    assert code == 0 and out.startswith("tables: 136 checks, 0 failures")


def test_verify_max_n_out_of_range():
    # rejected before any suite runs: prop32 would otherwise sweep every
    # n <= 20 before failing at n = 21
    for max_n in ("21", "-1"):
        start = time.perf_counter()
        code, out, err = run_cli(["verify", "--max-n", max_n, "--suites", "prop32"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out and f"--max-n must lie in 0..20, got {max_n}" in err
    code, out, _ = run_cli(["verify", "--max-n", "20", "--suites", "lemma31"])
    assert code == 0 and out.startswith("lemma31: 768 checks")


def test_verify_unknown_suite():
    choices = "choose from " + ", ".join(SUITES)
    for suites, reason in (("nonsense", "unknown suites: nonsense"), (",", "no suites named")):
        code, out, err = run_cli(["verify", "--max-n", "8", "--suites", suites])
        assert code == 2 and not out and reason in err and choices in err


def test_character_values():
    code, out, _ = run_cli(["character", "--lambda", "7,1", "--ct", "8"])
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run_cli(["character", "--lambda", "8", "--ct", "2,2,2,2"])
    assert code == 0 and out.strip() == "1"


def test_character_full_row():
    code, out, _ = run_cli(["character", "--lambda", "6,1,1"])
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["1,1,1,1,1,1,1,1"] == "21"
    assert len(rows) == 22


def test_character_size_cap_before_bead_mask(monkeypatch):
    # an earlier test may have cached (20); the count below needs a first call
    characters.irreducible_character.cache_clear()
    built = []
    beads = characters._beads

    def spy(lam):
        built.append(lam.n)
        return beads(lam)

    monkeypatch.setattr(characters, "_beads", spy)
    code, out, err = run_cli(["character", "--lambda", "21"])
    assert code == 2 and not out and "n <= 20, got 21" in err
    assert built == []
    code, _, _ = run_cli(["character", "--lambda", "20"])
    assert code == 0 and built == [20]


def test_character_size_mismatch():
    code, _, err = run_cli(["character", "--lambda", "7,1", "--ct", "7"])
    assert code == 2 and err


def test_symcheck_single_coloring():
    code, out, _ = run_cli(["symcheck", "--lambda", "2,2,1,1", "--x", "0,0,1,3,3,2"])
    assert code == 0
    assert "sign=-1" in out and "verified" in out and "mode=exact" in out


def test_symcheck_sweep_222():
    code, out, _ = run_cli(["symcheck", "--lambda", "2,2,2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 172
    assert all("verified" in line and "sign=+1" in line for line in lines)
    fields = [line.split()[1] for line in lines]
    assert fields == ["x=" + ",".join(map(str, x)) for x in sweep_colorings((2, 2, 2))]


def test_symcheck_hook_mode_default():
    code, out, _ = run_cli(["symcheck", "--lambda", "3,1,1", "--x", "0,1,0,2,0"])
    assert code == 0
    assert "mode=mod-K" in out and "sign=-1" in out


def test_symcheck_hook_sweep_literal_example():
    code, out, _ = run_cli(["symcheck", "--lambda", "5,1,1", "--mode", "mod-K"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all("verified" in line and "sign=-1" in line for line in lines)


def test_symcheck_exact_hook_sweep_fails():
    # 3,1,1 compared exactly, not mod K, fails 48 of its 142 checks; the
    # sweep ends on a verified line, so the exit code is that of every check
    code, out, err = run_cli(["symcheck", "--lambda", "3,1,1", "--mode", "exact"])
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert len(lines) == 142 and lines[-1].endswith(" verified")
    assert sum(line.endswith(" FAILED") for line in lines) == 48


def test_symcheck_rejects_bad_inputs():
    # odd tail has no predicted sign
    code, _, err = run_cli(["symcheck", "--lambda", "3,2,1"])
    assert code == 2 and err
    # not balanced
    code, _, err = run_cli(["symcheck", "--lambda", "2,2", "--x", "1,0,0,0"])
    assert code == 2
    # painted first row in exact double-hook mode
    code, _, err = run_cli(["symcheck", "--lambda", "2,2", "--x", "1,2,0,0"])
    assert code == 2


def test_symcheck_budget_exceeded():
    x = ",".join(["0"] * 11)
    code, _, err = run_cli(["symcheck", "--lambda", "11", "--x", x])
    assert code == 5 and "budget" in err.lower()
    code, out, err = run_cli(["symcheck", "--lambda", "3,1", "--budget", "-1"])
    assert code == 2 and not out and "--budget must be >= 0, got -1" in err


def test_verify_over_budget_exits_before_any_verdict(monkeypatch):
    # (11,) is the first swept shape over the default pair budget; the exit
    # and its message are those of its own check, raised before any suite
    # computes a verdict, whichever skew suites run before it
    with pytest.raises(BudgetError) as refused:
        verify_skew_symmetry((11,), (0,) * 11, 1, "mod-K")
    calls = []
    monkeypatch.setattr("hooksq.verify.verify_skew_symmetry", lambda *args: calls.append(args))
    for suites in (["hooks"], ["lemma31", "prop32", "hooks"], ["tables", "hooks"]):
        start = time.perf_counter()
        code, out, err = run_cli(["verify", "--max-n", "11", "--suites", *suites])
        assert time.perf_counter() - start < 1.0, suites
        assert (code, out, err, calls) == (5, "", f"budget exceeded: {refused.value}\n", [])
    assert "symmetrizer for (11,) needs 39916800 (row, column) pairs" in err


def test_kernel_guard_exits_4(monkeypatch):
    # with the orbit sums skipped, the row block sum of 3,1 receives the
    # cancelling colors (1, 1, 2); its guard is an IntegrityError, which the
    # CLI maps to exit 4 with one line, not a traceback.  The verdict memo is
    # cleared on both sides so no verdict is read from, or left in, it
    monkeypatch.setattr(hooksq.tableaux, "_orbit_sums", lambda terms, blocks, signed: terms)
    hooksq.tableaux._skew_holds.cache_clear()
    try:
        code, out, err = run_cli(["symcheck", "--lambda", "3,1", "--x", "1,1,2,2"])
    finally:
        hooksq.tableaux._skew_holds.cache_clear()
    assert (code, out) == (4, "")
    assert err.startswith("integrity error: block sum received an annihilated term")


def test_input_errors_exit_2():
    cases = [
        (["character", "--lambda", "3,x"], "bad partition"),
        (["symcheck", "--lambda", "2,2", "--x", "0,9,0,0"], "bad coloring"),
        (["symcheck", "--lambda", "2,2", "--x", "0,0,0"], "coloring has 3 cells"),
        # unbalanced, with a blank first row: only the balance rule refuses it
        (["symcheck", "--lambda", "4,2", "--x", "0,0,0,0,1,1"], "equally many 1-cells and 2-cells"),
        (["symcheck", "--lambda", "3,1", "--budget", "10000001"], "pass --force"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(argv)
        assert code == 2 and not out and message in err, argv
    code, out, err = run_cli(["symcheck", "--lambda", "3,1", "--budget", "10000001", "--force"])
    assert code == 0 and not err and len(out.splitlines()) == 43

def test_symcheck_size_cap():
    # rejected before any coloring or factorial: the pair count 5000! has
    # more digits than int-to-str conversion allows, 200000! takes seconds
    for n in (21, 5000):
        start = time.perf_counter()
        code, out, err = run_cli(["symcheck", "--lambda", str(n)])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out and f"symcheck requires n <= 20, got {n}" in err
    code, _, err = run_cli(["symcheck", "--lambda", "20", "--x", ",".join(["0"] * 20)])
    assert code == 5 and "budget" in err.lower()


# ---------------------------------------------------------------------------
# the parser is built once per process: calls through it must not leak state


def fresh_env():
    """The environment of a new interpreter that imports this ``hooksq``."""
    src = str(Path(hooksq.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_fresh(argv):
    """``python -m hooksq argv`` in a new interpreter: (exit code, out, err)."""
    proc = subprocess.run(
        [sys.executable, "-m", "hooksq", *argv],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_matches_fresh_processes():
    sequence = [
        ["decompose", "--n", "8", "--k", "2", "--format", "json"],
        ["decompose", "--n", "8", "--k", "2"],
        ["symcheck", "--lambda", "2,2,1,1", "--x", "0,0,1,3,3,2"],
        ["decompose", "--n", "x", "--k", "2"],
        ["decompose", "--n", "6", "--k", "1"],
    ]
    in_process = [run_cli(argv) for argv in sequence]
    assert in_process == [run_fresh(argv) for argv in sequence]
    assert in_process[1][1].startswith("lambda")
    assert in_process[3][0] == 2 and "invalid int value" in in_process[3][2]


def test_closed_pipe_exits_without_traceback():
    # the reader is gone before the first write, as with ``| head`` on a long report
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hooksq", "symcheck", "--lambda", "3,1,1", "--mode", "exact"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=fresh_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    # no traceback, nor any other message
    assert (proc.returncode, proc.stderr) == (hooksq.cli.EXIT_BROKEN_PIPE, "")
