import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import hooksq
from hooksq import MultiplicityTable, full_table
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


def test_decompose_argument_errors():
    code, _, err = run_cli(["decompose", "--n", "5", "--k", "5"])
    assert code == 2 and err
    code, _, err = run_cli(["decompose", "--n", "15", "--k", "2", "--engine", "oracle"])
    assert code == 2 and "budget" in err
    code, _, err = run_cli(
        ["decompose", "--n", "15", "--k", "2", "--engine", "oracle", "--budget", "15"]
    )
    assert code == 2 and "--force" in err
    # --jobs is gone: argparse rejects it like any unknown option
    code, out, err = run_cli(["decompose", "--n", "8", "--k", "2", "--jobs", "0"])
    assert code == 2 and not out and "unrecognized arguments: --jobs 0" in err


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


# ---------------------------------------------------------------------------
# the parser is built once per process: calls through it must not leak state


def run_fresh(argv):
    """``python -m hooksq argv`` in a new interpreter: (exit code, out, err)."""
    src = str(Path(hooksq.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "hooksq", *argv],
        capture_output=True,
        text=True,
        env=env,
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
