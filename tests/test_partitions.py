import ast
import math
from pathlib import Path

import pytest

import hooksq
import hooksq.characters
import hooksq.closed_form
import hooksq.partitions
import hooksq.tableaux

from hooksq import (
    DoubleHook,
    Hook,
    MAX_N,
    OtherShape,
    Partition,
    Permutation,
    add_box_column,
    branch_up,
    class_size,
    classify_shape,
    dimension,
    enumerate_partitions,
    power_square,
    transpose,
)
from oracles import (
    brute_branch_up,
    brute_class_sizes,
    brute_partitions,
    brute_standard_tableaux,
    brute_transpose,
    representative_permutation,
)


def test_partition_validation():
    assert Partition((3, 2, 2)).n == 7
    assert Partition(()).n == 0
    # an existing Partition is returned unchanged; anything else is checked
    lam = Partition((3, 2, 2))
    assert Partition(lam) is lam
    assert Partition([3, 2, 2]) == lam and type(Partition([3, 2, 2])) is Partition
    assert Partition("322") == lam
    for bad in ((2, 3), (1, 0), (1, 2), (0,), [2, 3], "12"):
        with pytest.raises(ValueError):
            Partition(bad)


def test_enumerate_partitions_small():
    assert enumerate_partitions(1) == (Partition((1,)),)
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(8)) == 22


@pytest.mark.parametrize("n", range(9))
def test_enumerate_partitions_against_brute(n):
    got = enumerate_partitions(n)
    assert set(map(tuple, got)) == brute_partitions(n)
    assert len(set(got)) == len(got)
    assert list(got) == sorted(got, reverse=True)


def test_enumerate_partitions_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(MAX_N + 1)
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_classify_shape_examples():
    assert classify_shape((6, 1, 1)) == Hook(m=2)
    assert classify_shape((5, 2, 1)) == DoubleHook(q=5, p=2, d2=0, d1=1)
    assert classify_shape((3, 3, 3)) == OtherShape()
    with pytest.raises(ValueError):
        classify_shape(())


@pytest.mark.parametrize("n", range(1, 11))
def test_classify_shape_total_and_reconstructs(n):
    for lam in enumerate_partitions(n):
        shape = classify_shape(lam)
        if isinstance(shape, Hook):
            assert lam == Partition((n - shape.m,) + (1,) * shape.m)
        elif isinstance(shape, DoubleHook):
            assert shape.q >= shape.p >= 2
            rebuilt = (shape.q, shape.p) + (2,) * shape.d2 + (1,) * shape.d1
            assert lam == Partition(rebuilt)
        else:
            assert lam.row(2) >= 2 and lam.row(3) >= 3


def test_transpose_examples():
    assert transpose((2, 2, 2)) == Partition((3, 3))
    assert transpose((7,)) == Partition((1,) * 7)
    assert transpose((5, 3, 2)) == Partition(brute_transpose((5, 3, 2)))


@pytest.mark.parametrize("n", range(9))
def test_transpose_involution_and_brute(n):
    for lam in enumerate_partitions(n):
        assert tuple(transpose(lam)) == brute_transpose(lam)
        assert transpose(transpose(lam)) == lam


def test_class_size_examples():
    assert class_size((1, 1, 1, 1)) == 1
    for n in range(2, 8):
        assert class_size((n,)) == math.factorial(n - 1)
    assert class_size((2, 1)) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_class_size_against_group_census(n):
    census = brute_class_sizes(n)
    for ct, size in census.items():
        assert class_size(ct) == size


@pytest.mark.parametrize("n", range(1, 13))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(ct) for ct in enumerate_partitions(n)) == math.factorial(n)


def test_power_square_examples():
    assert power_square((2,)) == Partition((1, 1))
    assert power_square((4, 3)) == Partition((3, 2, 2))
    assert power_square((1,) * 5) == Partition((1,) * 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_power_square_against_composition(n):
    for ct in enumerate_partitions(n):
        g = representative_permutation(ct)
        g2 = g * g
        assert power_square(ct) == g2.cycle_type()
        assert power_square(power_square(ct)) == (g2 * g2).cycle_type()


def test_dimension_examples():
    for n in range(1, 9):
        assert dimension((n,)) == 1
    for n in range(2, 9):
        assert dimension((n - 1, 1)) == n - 1
    assert dimension((6, 1, 1)) == 21


@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_counts_standard_tableaux(n):
    for lam in enumerate_partitions(n):
        assert dimension(lam) == brute_standard_tableaux(lam)


@pytest.mark.parametrize("n", range(1, 11))
def test_dimension_transpose_invariant(n):
    for lam in enumerate_partitions(n):
        assert dimension(lam) == dimension(transpose(lam))


def test_branch_up_examples():
    assert branch_up((1,)) == (Partition((2,)), Partition((1, 1)))
    assert branch_up((2, 2)) == (Partition((3, 2)), Partition((2, 2, 1)))
    assert len(branch_up((3, 2, 1))) == 4


@pytest.mark.parametrize("n", range(10))
def test_branch_up_against_brute_and_columns(n):
    for mu in enumerate_partitions(n):
        grown = branch_up(mu)
        assert set(map(tuple, grown)) == brute_branch_up(mu)
        width = mu[0] if mu else 0
        by_columns = {
            add_box_column(mu, i)
            for i in range(1, width + 2)
            if add_box_column(mu, i) is not None
        }
        by_columns.add(Partition(tuple(mu) + (1,)))
        assert by_columns == set(grown)


def test_add_box_column_examples():
    mu = Partition((5, 2, 2, 1))  # (q, p, 2^1, 1^1)
    assert add_box_column(mu, 1) == Partition((5, 2, 2, 1, 1))
    assert add_box_column(mu, 2) == Partition((5, 2, 2, 2))
    assert add_box_column((2, 2), 2) is None
    assert add_box_column((2, 2), 3) == Partition((3, 2))


def test_permutation_basics():
    s = Permutation.from_cycles(4, [(1, 2, 3)])
    t = Permutation.transposition(4, 3, 4)
    assert (s * t)(1) == 2
    assert (s * t)(2) == 4
    assert s.inverse() * s == Permutation.identity(4)
    assert s.sign() == 1
    assert t.sign() == -1
    assert t.cycle_type() == Partition((2, 1, 1))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])


# ---------------------------------------------------------------------------
# the three engines cross-check each other, so they share only this module


def test_engines_import_only_partitions():
    for module in (hooksq.closed_form, hooksq.characters, hooksq.tableaux):
        tree = ast.parse(Path(module.__file__).read_text())
        # a relative import names its module, or None for ``from . import x``
        imported = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        }
        assert imported == {"partitions"}, (module.__name__, imported)


def test_table_and_error_have_one_home():
    for name in ("MultiplicityTable", "IntegrityError"):
        home = getattr(hooksq.partitions, name)
        assert getattr(hooksq, name) is home
        assert getattr(hooksq.characters, name) is home
        assert getattr(hooksq.closed_form, name) is home
