import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hooksq
import hooksq.closed_form as closed_form
from hooksq import (
    IntegrityError,
    Partition,
    decompose_oracle,
    dimension,
    enumerate_partitions,
    full_table,
    hook_rep_character,
    inner_product,
    irreducible_character,
    psi,
    remmel_multiplicity,
    sym_ext_multiplicity,
)
from hooksq.cli import EXIT_INTEGRITY, main
from oracles import TABLE_8_2


def test_psi_values():
    assert psi(0, 1) == 2
    assert psi(3, 3) == 1
    assert psi(5, 2) == 0
    assert psi(-4, 4) == 1
    assert psi(-1, 3) == 2


def test_psi_recurrences():
    for a in range(-30, 31):
        for b in range(2, 31):
            assert psi(a, b) - psi(a - 1, b - 1) == psi(a + b - 1, 1)
    for v in range(-30, 31):
        assert psi(v, 2) - psi(v - 1, 1) - psi(v + 1, 1) == 0


def test_remmel_examples():
    assert remmel_multiplicity(8, 2, 2, (6, 2)) == 2
    assert remmel_multiplicity(8, 2, 2, (4, 1, 1, 1, 1)) == 1
    assert remmel_multiplicity(6, 2, 1, (3, 2, 1)) == 1


def test_remmel_mixed_degree_against_oracle():
    n, k, l = 6, 2, 1
    tensor = hook_rep_character(n, k) * hook_rep_character(n, l)
    for lam in enumerate_partitions(n):
        got = inner_product(irreducible_character(lam), tensor)
        assert remmel_multiplicity(n, k, l, lam) == got


def test_remmel_argument_errors():
    with pytest.raises(ValueError):
        remmel_multiplicity(6, 6, 1, (3, 2, 1))
    with pytest.raises(ValueError):
        remmel_multiplicity(6, 1, -1, (3, 2, 1))
    with pytest.raises(ValueError):
        remmel_multiplicity(6, 1, 1, (3, 2))


def test_sym_ext_examples():
    assert sym_ext_multiplicity(8, 2, (5, 2, 1)) == (1, 1)
    assert sym_ext_multiplicity(8, 2, (6, 1, 1)) == (0, 1)
    for n in range(2, 10):
        for k in range(n):
            assert sym_ext_multiplicity(n, k, (n,)) == (1, 0)


@pytest.mark.parametrize("n", range(1, 11))
def test_sym_ext_sums_to_tensor(n):
    for k in range(n):
        for lam in enumerate_partitions(n):
            sym, ext = sym_ext_multiplicity(n, k, lam)
            assert sym + ext == remmel_multiplicity(n, k, k, lam)


def test_full_table_golden():
    table = full_table(8, 2)
    for lam in enumerate_partitions(8):
        assert table.multiplicity(lam) == TABLE_8_2.get(tuple(lam), (0, 0, 0))


def test_full_table_k0():
    for n in (1, 5, 9, 14):
        table = full_table(n, 0)
        for lam in enumerate_partitions(n):
            expected = (1, 1, 0) if lam == Partition((n,)) else (0, 0, 0)
            assert table.multiplicity(lam) == expected


def test_full_table_9_4_sym_dimension():
    table = full_table(9, 4)
    total = sum(s * dimension(lam) for lam, (_, s, _) in table.rows.items())
    assert math.comb(8, 4) == 70
    assert total == 70 * 71 // 2 == 2485


@pytest.mark.parametrize("n", range(1, 13))
def test_full_table_degree_reflection(n):
    for k in range(n):
        assert full_table(n, k).rows == full_table(n, n - 1 - k).rows


@pytest.mark.parametrize("n", range(1, 21))
def test_full_table_rows_equal_single_row_formulas(n):
    # every n up to the cap: the table, which classifies each shape once,
    # against the public one-row functions
    for k in range(n):
        table = full_table(n, k)
        for lam in enumerate_partitions(n):
            expected = (remmel_multiplicity(n, k, k, lam), *sym_ext_multiplicity(n, k, lam))
            assert table.rows[lam] == expected


@pytest.mark.parametrize("n", [*range(1, 11), *range(15, 21)])
def test_closed_equals_oracle_small(n):
    for k in range(n):
        assert full_table(n, k) == decompose_oracle(n, k)


# ---------------------------------------------------------------------------
# invariant guards: IntegrityError, never a bare assert, so they hold under -O

ODD_TAIL = (5, 2, 1)  # a double hook with tail length 1
OTHER_SHAPE = (3, 3, 3)  # neither a hook nor a double hook

# sym_ext_multiplicity and full_table classify lam once and call the
# shape-level Remmel formula, so the faults are injected there.  full_table
# calls it only on hooks and double hooks, so through ``decompose`` the
# injected 1 trips the odd-tail guard of a double hook; the guard on a shape
# that is neither is reached only through sym_ext_multiplicity


def test_sym_ext_guard_odd_tail_parity(monkeypatch):
    monkeypatch.setattr(closed_form, "_remmel", lambda n, k, l, shape: 3)
    with pytest.raises(IntegrityError, match="odd tensor multiplicity 3"):
        sym_ext_multiplicity(8, 2, ODD_TAIL)


def test_sym_ext_guard_other_shape_tensor(monkeypatch):
    monkeypatch.setattr(closed_form, "_remmel", lambda n, k, l, shape: 1)
    with pytest.raises(IntegrityError, match="neither a hook nor a double hook"):
        sym_ext_multiplicity(9, 2, OTHER_SHAPE)


def test_sym_ext_guard_violation_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(closed_form, "_remmel", lambda n, k, l, shape: 1)
    assert main(["decompose", "--n", "9", "--k", "2", "--engine", "closed"]) == EXIT_INTEGRITY == 4
    assert "integrity error" in capsys.readouterr().err


GUARD_SCRIPT = f"""
import hooksq.closed_form as cf
from hooksq import IntegrityError

print("debug", __debug__)
for value, lam in ((3, {ODD_TAIL}), (1, {OTHER_SHAPE})):
    cf._remmel = lambda n, k, l, shape, value=value: value
    try:
        cf.sym_ext_multiplicity(sum(lam), 2, lam)
    except IntegrityError:
        print("raised")
    else:
        print("passed")
"""


def test_sym_ext_guards_survive_python_O():
    src = str(Path(hooksq.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", GUARD_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["debug False", "raised", "raised"]
