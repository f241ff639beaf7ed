import ast
import copy
import math
import operator
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hooksq
import hooksq.characters
import hooksq.closed_form
import hooksq.partitions
import hooksq.tableaux

from hooksq import (
    Coloring,
    DoubleHook,
    Hook,
    MAX_N,
    OtherShape,
    Partition,
    Permutation,
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
    # an integral number is read as its int, a fraction is refused (below)
    assert Partition((3.0, 2, 2)) == lam and type(Partition((3.0, 2, 2))[0]) is int
    for bad in ((2, 3), (1, 0), (1, 2), (0,), [2, 3], "12"):
        with pytest.raises(ValueError):
            Partition(bad)


@pytest.mark.parametrize(
    "build, entries",
    [
        (Partition, (2.5, 1)),
        (dimension, (2.7, 1)),
        (Coloring, (1.9, 0)),
        (Permutation, (1.0, 2.5)),
    ],
    ids=["Partition", "dimension", "Coloring", "Permutation"],
)
def test_non_integral_entries_are_rejected(build, entries):
    # int() would truncate 2.5 to 2; the entry is refused instead
    with pytest.raises(ValueError, match="entries must be integers"):
        build(entries)



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


@pytest.mark.parametrize("n", range(MAX_N + 1))
def test_walk_equals_single_partition_helpers(n):
    walk = hooksq.partitions._walk(n)
    assert walk.parts == enumerate_partitions(n) and len(walk.index) == len(walk.parts)
    for i, lam in enumerate(walk.parts):
        assert type(lam) is Partition and all(type(p) is int for p in lam)
        assert walk.index[lam] == i
        assert walk.parts[walk.conjugates[i]] == transpose(lam)
        assert walk.sizes[i] == class_size(lam)
        assert walk.parts[walk.squares[i]] == power_square(lam)
        assert walk.dims[i] == dimension(lam)
        assert type(transpose(lam)) is type(power_square(lam)) is Partition
    if n:
        assert walk.shapes == tuple(map(classify_shape, walk.parts))
    else:
        # the empty partition has no shape class
        assert walk.shapes is None
        with pytest.raises(ValueError, match="cannot classify the empty partition"):
            classify_shape(())


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
    # a box added to a row of mu is a box added to a column of its
    # conjugate, so conjugation carries branch_up(mu) onto branch_up of the
    # conjugate
    for mu in enumerate_partitions(n):
        grown = branch_up(mu)
        assert set(map(tuple, grown)) == brute_branch_up(mu)
        assert set(map(transpose, grown)) == set(branch_up(transpose(mu)))


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
    # equal permutations hash alike, so they key one dict entry
    assert hash(s) == hash(Permutation((2, 3, 1, 4))) != hash(t)
    assert len({s: 1, Permutation((2, 3, 1, 4)): 2, t: 3}) == 2


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


IMPORT_GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hooksq, hooksq.cli, hooksq.verify
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_or_inspect():
    # ``python -I`` ignores PYTHONPATH and user site packages; the modules
    # are compared before and after the import, so whatever the interpreter
    # loads at start-up does not count
    src = str(Path(hooksq.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_GUARD, src], capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert {"hooksq.cli", "hooksq.verify"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}, loaded


def test_table_and_error_have_one_home():
    for name in ("MultiplicityTable", "IntegrityError"):
        home = getattr(hooksq.partitions, name)
        assert getattr(hooksq, name) is home
        assert getattr(hooksq.characters, name) is home
        assert getattr(hooksq.closed_form, name) is home


# ---------------------------------------------------------------------------
# every input guard raises ValueError, not an assert, so it holds under -O


def _pair_of_groups():
    """Class functions of S_2 and of S_3."""
    return hooksq.hook_rep_character(2, 0), hooksq.hook_rep_character(3, 0)


COLORING_SIZE = "permutation size does not match coloring size"
OTHER_GROUP = "class functions live on different groups"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: Coloring((0, 1)).act(Permutation.identity(3)), COLORING_SIZE, id="Coloring.act"
        ),
        pytest.param(
            lambda: hooksq.action_sign(Coloring((0, 1)), Permutation.identity(3)),
            COLORING_SIZE,
            id="action_sign",
        ),
        pytest.param(
            lambda: hooksq.TensorVector.basis((0, 1)).act(Permutation.identity(3)),
            "permutation size does not match vector size",
            id="TensorVector.act",
        ),
        pytest.param(
            lambda: hooksq.is_proper_swap(Coloring((1, 2)), Permutation.identity(3)),
            COLORING_SIZE,
            id="is_proper_swap",
        ),
        pytest.param(
            lambda: hooksq.enumerate_colorings(2, 3, 0),
            "need 0 <= k, l <= n, got n=2, k=3, l=0",
            id="enumerate_colorings",
        ),
        pytest.param(
            lambda: hooksq.apply_symmetrizer(hooksq.TensorVector.basis((0, 1)), (2, 1)),
            "partition of 3 does not match vector size 2",
            id="apply_symmetrizer",
        ),
        pytest.param(
            lambda: hooksq.embed_perm(4, (1, 2), Permutation.identity(3)),
            "permutation of [3] does not match 2 cells",
            id="embed_perm",
        ),
        pytest.param(
            lambda: hooksq.tableaux.expected_skew_sign((3, 3, 3)),
            "no skew-symmetry sign for shape (3, 3, 3)",
            id="expected_skew_sign",
        ),
        pytest.param(
            lambda: hooksq.partitions.hook_partition(3, 3),
            "hook tail length must satisfy 0 <= m <= n-1, got m=3, n=3",
            id="hook_partition",
        ),
        pytest.param(
            lambda: class_size((21,)), "class size requires n <= 20, got 21", id="class_size"
        ),
        pytest.param(
            lambda: dimension((21,)), "dimension requires n <= 20, got 21", id="dimension"
        ),
        pytest.param(
            lambda: hooksq.mn_character((21,), (21,)),
            "characters require n <= 20, got 21",
            id="mn_character",
        ),
        pytest.param(
            lambda: Permutation.identity(2) * Permutation.identity(3),
            "cannot compose permutations of different sizes",
            id="Permutation.__mul__",
        ),
        pytest.param(
            lambda: operator.add(*_pair_of_groups()), OTHER_GROUP, id="ClassFunction.__add__"
        ),
        pytest.param(
            lambda: hooksq.inner_product(*_pair_of_groups()), OTHER_GROUP, id="inner_product"
        ),
        pytest.param(
            lambda: hooksq.characters.multiplicities(*_pair_of_groups()),
            OTHER_GROUP,
            id="multiplicities",
        ),
    ],
)
def test_guard_raises_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_table_refuses_entries_that_are_not_ints():
    # a float or bool table would compare equal to the int one and print
    # 1.0 or true, which from_json_dict refuses
    rows = dict(hooksq.full_table(4, 1).rows)
    assert rows[(3, 1)] == (1, 1, 0)
    for bad in ((1.0, 1.0, 0.0), (True, True, False), (1, 1, 0.0), (1, True, 0)):
        message = f"multiplicities at (3, 1) must be ints: {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            hooksq.MultiplicityTable(4, 1, {**rows, (3, 1): bad})
    for n, k in ((4.0, 1), (True, 0), (4, True), (4, 1.0)):
        message = f"table n and k must be ints, got n={n!r}, k={k!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            hooksq.MultiplicityTable(n, k, rows)


def test_exact_engines_refuse_values_that_are_not_ints():
    # a float, bool or string coefficient, scalar, class-function value or
    # skew sign is refused where it enters, naming the value, and never
    # reaches the packed kernels or the oracle's exact division
    basis = hooksq.TensorVector.basis
    coefficient = "coefficients and scalars must be ints, got "
    sign = "expected sign must be +-1, got "
    value = "class function values must be ints, got "
    cases = [
        (lambda: basis((1, 2), 0.25), coefficient + "0.25"),
        (lambda: basis((1, 2), True), coefficient + "True"),
        (lambda: hooksq.TensorVector(2, 1, 1, {(1, 2): "x"}), coefficient + "'x'"),
        (lambda: hooksq.TensorVector(2, 1, 1, {(1, 2): 1.0}), coefficient + "1.0"),
        (lambda: basis((1, 2)) * "a", coefficient + "'a'"),
        (lambda: 0.5 * basis((1, 2)), coefficient + "0.5"),
        (lambda: basis((1, 2)) * False, coefficient + "False"),
        (lambda: hooksq.ClassFunction(2, [1.5, 2]), value + "1.5"),
        (lambda: hooksq.ClassFunction(2, [1, True]), value + "True"),
        (lambda: hooksq.irreducible_character((2, 1)) * 0.5, value + "-0.5"),
        (lambda: hooksq.verify_skew_symmetry((2, 2), (1, 2, 2, 1), 1.0), sign + "1.0"),
        (lambda: hooksq.verify_skew_symmetry((2, 2), (1, 2, 2, 1), True), sign + "True"),
        (lambda: hooksq.verify_skew_symmetry((2, 2), (1, 2, 2, 1), 2), sign + "2"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            call()
    # ints, zero included, still enter
    assert basis((1, 2), 0).is_zero() and (basis((1, 2)) * 0).is_zero()
    assert (basis((1, 2), -2) * 3).packed == {9: -6}
    assert hooksq.ClassFunction(2, [-1, 1]).vector == (-1, 1)


def test_records_compare_hash_and_print_by_fields():
    assert Hook(2) == Hook(m=2) and hash(Hook(2)) == hash(Hook(m=2))
    double = DoubleHook(5, 2, d2=0, d1=1)
    assert double == DoubleHook(q=5, p=2, d2=0, d1=1)
    assert hash(double) == hash(DoubleHook(5, 2, 0, 1))
    assert OtherShape() == OtherShape() and hash(OtherShape()) == hash(OtherShape())
    assert Hook(m=2) != Hook(m=3) and double != DoubleHook(5, 2, 1, 0)
    assert Hook(m=2) != (2,) and (2,) != Hook(m=2)
    shapes = [Hook(m=0), DoubleHook(0, 0, 0, 0), OtherShape()]
    for a in shapes:
        assert [b for b in shapes if b == a] == [a]
    assert repr(Hook(m=2)) == "Hook(m=2)"
    assert repr(double) == "DoubleHook(q=5, p=2, d2=0, d1=1)"
    assert repr(OtherShape()) == "OtherShape()"
    chi = hooksq.irreducible_character((2, 1))
    assert chi == hooksq.ClassFunction(3, chi.vector) and hash(chi) == hash((3, chi.vector))
    assert repr(chi) == "ClassFunction(n=3, vector=(-1, 0, 2))"
    assert hooksq.decompose_oracle(6, 2) == hooksq.full_table(6, 2) != hooksq.full_table(6, 3)
    with pytest.raises(TypeError):
        hash(hooksq.full_table(6, 2))
    for call in (lambda: Hook(), lambda: Hook(1, 2), lambda: Hook(1, m=1), lambda: Hook(k=1)):
        with pytest.raises(TypeError, match=re.escape("Hook takes the fields (m), each once")):
            call()


def test_records_refuse_assignment():
    records = [
        (Hook(m=2), ("m",)),
        (DoubleHook(q=5, p=2, d2=0, d1=1), ("q", "p", "d2", "d1")),
        (OtherShape(), ()),
        (hooksq.irreducible_character((2, 1)), ("n", "vector")),
        (hooksq.decompose_oracle(4, 1), ("n", "k", "rows")),
    ]
    for record, names in records:
        before = repr(record)
        for name in names + ("extra",):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert repr(record) == before
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
    # tuples with empty slots: no per-instance dict
    for value in (Partition((2, 1)), Coloring((0, 1)), Hook(m=1)):
        assert not hasattr(value, "__dict__")


def test_empty_dimension_and_reprs():
    assert dimension(()) == 1
    assert repr(Partition((3, 1))) == "Partition((3, 1))"
    assert repr(Coloring((1, 0, 3))) == "Coloring((1, 0, 3))"
    assert repr(Permutation.identity(3)) == "Permutation.identity(3)"
    assert repr(hooksq.TensorVector.zero(2, 0, 0)) == "TensorVector.zero(2, 0, 0)"
    assert repr(hooksq.TensorVector.basis((1, 0))) == "TensorVector[1*w(1, 0)]"
