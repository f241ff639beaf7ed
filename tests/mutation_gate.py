"""Mutation gate: every listed mutant of ``src/`` must fail its pytest selection.

Each entry of ``MUTANTS`` is (file, exact old text, new text, pytest
selection).  Every selection first runs on the tree as it is and must pass
(one pytest run of all of them).  Then, for each entry, ``src/`` and
``tests/`` are copied to a temporary directory, the old text, which must
occur exactly once in the file, is replaced by the new text, and the same
selection must fail there with failing tests (pytest exit code 1, not an
import or collection error).

    python3 tests/mutation_gate.py

prints one line per mutant with the tests that killed it, and exits 0 when
every mutant is killed, 1 otherwise.  Only the standard library and pytest are
needed.  Pytest does not collect this file: its name does not start with
``test_``.  A mutant that survives gets a new test and stays on the list.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TABLEAUX = "src/hooksq/tableaux.py"

MUTANTS = [
    # Remmel's double-hook rule: on the edge |k - l| = d1 + 1 the window is
    # halved, so its inside gives 1 and its rim 0
    (
        "src/hooksq/closed_form.py",
        "            return window // 2\n",
        "            return window\n",
        ["tests/test_acceptance.py::test_c03_remmel_equals_oracle"],
    ),
    # the Lemma 3.1 cases of (2,2,1,1) are balanced; dropping the condition
    # changes the pinned count of 768 checks
    (
        "src/hooksq/verify.py",
        "not balanced or colors.count(1) == colors.count(2)",
        "True",
        ["tests/test_cli.py::test_verify_failing_suite"],
    ),
    # every factor sums its terms per orbit of its blocks before any block
    # sum; without that a block sum receives unsorted (and annihilated) terms
    (
        TABLEAUX,
        "    terms = _orbit_sums(w.packed, blocks, signed)\n",
        "    terms = w.packed\n",
        [
            "tests/test_tableaux.py::test_block_sum_matches_literal_sum",
            "tests/test_tableaux.py::test_orbit_sums_cancel_as_the_literal_sums",
        ],
    ),
    # putting color c first inverts it with the remaining smaller colors,
    # not the larger ones
    (
        TABLEAUX,
        "for d in range(c) if _ODD[c & d] ^ signed",
        "for d in range(c + 1, 4) if _ODD[c & d] ^ signed",
        ["tests/test_tableaux.py::test_multiset_entries_equal_recursion"],
    ),
    # a cancelling multiset raises rather than getting an entry ...
    (
        TABLEAUX,
        "    if any(count[c] >= 2 for c in cancel):\n",
        "    if False:\n",
        ["tests/test_tableaux.py::test_block_sum_rejects_an_annihilated_term"],
    ),
    # ... and so does an unsorted one
    (
        TABLEAUX,
        "    if list(ordered) != sorted(ordered):\n",
        "    if False:\n",
        ["tests/test_tableaux.py::test_block_sum_rejects_an_annihilated_term"],
    ),
    # a block sum takes consecutive cells only: a block with gaps raises
    # rather than writing its arrangements over the fixed cells
    (
        TABLEAUX,
        "    if inner:\n        cells = ",
        "    if False:\n        cells = ",
        ["tests/test_tableaux.py::test_block_sum_rejects_a_block_with_gaps"],
    ),
    # the column sums run in the column reading: relabelled in ...
    (
        TABLEAUX,
        "    if tau is not None:\n        rows = rows.act(tau)\n",
        "",
        ["tests/test_tableaux.py::test_verify_skew_symmetry_matches_two_sided_verdicts"],
    ),
    # ... and, outside the mod-K verdict, relabelled back
    (
        TABLEAUX,
        "    return _apply_blocks(w.act(tau), blocks, signed=True).act(back)\n",
        "    return _apply_blocks(w.act(tau), blocks, signed=True)\n",
        ["tests/test_tableaux.py::test_apply_symmetrizer_matches_brute_force"],
    ),
    # the block sort: each adjacent exchange carries the transposition's -1
    # of sgn(t) in the signed (column) sum ...
    (
        TABLEAUX,
        "            odd ^= signed ^ _ODD[a & b]\n",
        "            odd ^= _ODD[a & b]\n",
        [
            "tests/test_tableaux.py::test_column_sorts_equal_literal_block_sums",
            "tests/test_tableaux.py::test_exact_verdicts_sampled_n8",
        ],
    ),
    # ... and not in the plain (row) sum ...
    (
        TABLEAUX,
        "            odd ^= signed ^ _ODD[a & b]\n",
        "            odd ^= 1 ^ _ODD[a & b]\n",
        [
            "tests/test_tableaux.py::test_column_sorts_equal_literal_block_sums",
            "tests/test_tableaux.py::test_orbit_sums_cancel_as_the_literal_sums",
        ],
    ),
    # ... and the parity of the fixed cells each gap's exchanges cross ...
    (
        TABLEAUX,
        "        crossing |= functools.reduce(operator.xor, colors[i + 1 :] + ordered[i + 1 :])"
        " * low\n",
        "        pass\n",
        [
            "tests/test_tableaux.py::test_column_sorts_equal_literal_block_sums",
            "tests/test_tableaux.py::test_exact_verdicts_sampled_n8",
        ],
    ),
    # ... and a block with two cells of one cancelling color drops the term
    # from the orbit sums, where w_y B = 0
    (
        TABLEAUX,
        "    if any(colors.count(c) > 1 for c in _CANCELLING[signed]):\n        return None\n",
        "",
        [
            "tests/test_tableaux.py::test_column_sorts_equal_literal_block_sums",
            "tests/test_tableaux.py::test_exact_verdicts_sampled_n8",
        ],
    ),
    # the half-pair vector keeps a self-swapped term only for the sign -1
    (
        TABLEAUX,
        "        elif sign == -1:\n",
        "        elif sign == 1:\n",
        ["tests/test_tableaux.py::test_verify_skew_symmetry_matches_two_sided_verdicts"],
    ),
    # the verdict memo's key sorts each row of a run of equal rows on its
    # own; sorting the run as one group merges orbits
    (
        TABLEAUX,
        "        runs.append((a, b, length if length > 1 and count > 1 else b - a))\n",
        "        runs.append((a, b, b - a))\n",
        [
            "tests/test_tableaux.py::test_distinct_orbits_keep_their_own_verdicts",
            "tests/test_tableaux.py::test_warm_verdicts_equal_verdicts_on_x_n6",
        ],
    ),
    # the key keeps each run in its own slice; sorting the whole coloring
    # merges orbits across rows of different lengths, which the memo's entry
    # count in test_distinct_orbits_keep_their_own_verdicts sees
    (
        TABLEAUX,
        "    for a, b, r in geometry[5]:\n",
        "    for a, b, r in ((0, lam.n, lam.n),):\n",
        ["tests/test_tableaux.py::test_distinct_orbits_keep_their_own_verdicts"],
    ),
    # the key puts the rows of a run in ascending order; keeping their order
    # splits orbits without changing any verdict, and the application and
    # entry counts pinned by test_sweeps_apply_the_symmetrizer_once_per_orbit
    # and test_warm_verdicts_equal_verdicts_on_x_n6 see the extra entries
    (
        TABLEAUX,
        "for row in sorted([sorted(x[i : i + r]) for i in range(a, b, r)]):",
        "for row in [sorted(x[i : i + r]) for i in range(a, b, r)]:",
        [
            "tests/test_tableaux.py::test_sweeps_apply_the_symmetrizer_once_per_orbit",
            "tests/test_tableaux.py::test_warm_verdicts_equal_verdicts_on_x_n6",
        ],
    ),
    # the key is the orbit's least coloring; its greatest gives the same
    # entries and verdicts, so only the brute-force orbit minimum of
    # test_memo_key_is_the_orbits_least_coloring sees it
    (
        TABLEAUX,
        "            least += sorted(x[a:b])\n",
        "            least += sorted(x[a:b], reverse=True)\n",
        ["tests/test_tableaux.py::test_memo_key_is_the_orbits_least_coloring"],
    ),
    # the parity split: slot s of E - O is the conjugate's n! <chi, f>;
    # test_decompose_oracle_equals_literal_table compares each column with
    # its own literal sum
    (
        "src/hooksq/characters.py",
        "minus = _slots(e - o, len(pairs), words)",
        "minus = _slots(e + o, len(pairs), words)",
        ["tests/test_characters.py::test_decompose_oracle_equals_literal_table"],
    ),
    # E - O belongs to the earlier member of each pair and E + O to the later
    (
        "src/hooksq/characters.py",
        "        source[i] = len(pairs) + s\n        source[j] = s\n",
        "        source[j] = len(pairs) + s\n        source[i] = s\n",
        ["tests/test_characters.py::test_packed_multiplicities_equal_inner_products"],
    ),
    # a slot one word narrower than the bound asks for: the sums of the square
    # scaled by 10^40 reach 2^170 and overflow two-word slots
    (
        "src/hooksq/characters.py",
        ".bit_length() // 64 + 1",
        ".bit_length() // 64",
        ["tests/test_characters.py::test_packed_multiplicities_widen_their_slots"],
    ),
    # Murnaghan-Nakayama: a border strip of odd leg height subtracts; the
    # trivial character's value 1 on a 6-cycle in test_mn_character_examples
    # becomes -1
    (
        "src/hooksq/characters.py",
        "op = sub if (beads >> (target + 1) & between).bit_count() & 1 else add",
        "op = add if (beads >> (target + 1) & between).bit_count() & 1 else sub",
        ["tests/test_characters.py::test_mn_character_examples"],
    ),
]


def run_pytest(root: Path, selection) -> subprocess.CompletedProcess:
    """Pytest on ``selection`` with ``root/src`` importable, leaving no cache
    and no bytecode behind."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *selection],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )


def summary(result: subprocess.CompletedProcess) -> str:
    """Pytest's last output line, such as ``1 failed, 3 passed in 0.5s``."""
    lines = result.stdout.strip().splitlines()
    return lines[-1] if lines else f"exit code {result.returncode}"


def mutate(tmp: Path, file: str, old: str, new: str) -> None:
    """Copy ``src/`` and ``tests/`` into ``tmp`` and apply the mutant there."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{file}: the old text occurs {count} times, not once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    start = time.perf_counter()
    # one unmutated run of every selection: each passes when their union does
    selected = list(dict.fromkeys(test for *_, selection in MUTANTS for test in selection))
    clean = run_pytest(ROOT, selected)
    if clean.returncode:
        print(f"the unmutated selections fail ({summary(clean)}):")
        print(clean.stdout)
        return 1
    survivors = 0
    for file, old, new, selection in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            mutate(Path(tmp), file, old, new)
            result = run_pytest(Path(tmp), selection)
        verdict = "killed" if result.returncode == 1 else "SURVIVED"
        survivors += verdict != "killed"
        print(f"{verdict} ({summary(result)}): {file}: {old.strip()!r} -> {new.strip()!r}")
        for test in re.findall(r"^FAILED (\S+)", result.stdout, re.M):
            print(f"    by {test}")
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {elapsed:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
