import functools
import itertools
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hooksq import (
    BudgetError,
    Coloring,
    Partition,
    Permutation,
    TensorVector,
    action_sign,
    apply_column_antisymmetrizer,
    apply_restricted_symmetrizer,
    apply_symmetrizer,
    dimension,
    embed_perm,
    enumerate_colorings,
    enumerate_partitions,
    is_proper_swap,
    monotone_color_matching,
    project_to_standard,
    restriction_compatible,
    restriction_coloring,
    restriction_shape,
    tensor_complement,
    tensor_swap,
    verify_skew_symmetry,
)
import hooksq
import hooksq.tableaux as tableaux
from hooksq.partitions import MAX_N
from hooksq.tableaux import apply_row_symmetrizer, expected_skew_sign
from hooksq.verify import balanced_colorings, suite_hooks, suite_prop32, sweep_colorings
from oracles import (
    balance_condition,
    block_group,
    brute_block_sum,
    brute_blocks,
    brute_cells,
    brute_orbit,
    brute_projection,
    brute_restriction,
    brute_skew_verdict,
    brute_transpose,
    brute_restricted_symmetrizer,
    brute_symmetrizer,
    brute_transfer,
    coloring_sets,
    exact_rank,
)


def all_colorings(n):
    for colors in itertools.product((0, 1, 2, 3), repeat=n):
        yield Coloring(colors)


def row_cells(lam):
    """Cell numbers of each row of lam's canonical tableau, read off the
    oracle's (row, column) coordinates."""
    return brute_cells(lam)[0]


def column_cells(lam):
    """Cell numbers of each column of lam's canonical tableau, read off the
    oracle's (row, column) coordinates."""
    return brute_cells(lam)[1]


def wedge_front_sign(i, idx):
    """Sign of sorting u_i ^ u_idx into increasing order."""
    return -1 if sum(1 for a in idx if a < i) % 2 else 1


# ---------------------------------------------------------------------------
# colorings and the action sign


def test_coloring_basics():
    x = Coloring((1, 2, 0, 3))
    assert (x.n, x.k, x.l) == (4, 2, 2)
    assert x.support() == ((1, 4), (2, 4))
    assert x.color(4) == 3
    assert x.swap_colors() == Coloring((2, 1, 0, 3))
    assert x.complement_colors() == Coloring((2, 1, 3, 0))
    assert x.swap_colors_in({1}) == Coloring((2, 2, 0, 3))
    # an existing Coloring is returned unchanged; anything else is checked
    assert Coloring(x) is x
    assert Coloring([1, 2, 0, 3]) == x and type(Coloring([1, 2, 0, 3])) is Coloring
    assert Coloring("1203") == x
    for bad in ((0, 4), (4,), [2, -1], "5"):
        with pytest.raises(ValueError):
            Coloring(bad)


def test_swap_colors_in_tableau_illustration():
    # a 6-4-3 diagram restricted to its first three columns of row one and
    # the first two cells of row three
    lam = Partition((6, 4, 3))
    members = (1, 2, 3, 11, 12)
    assert restriction_compatible(lam, members)
    assert restriction_shape(lam, members) == Partition((3, 2))
    x = Coloring((0, 1, 2, 1, 2, 3, 0, 0, 0, 0, 2, 2, 0))
    assert (x.k, x.l) == (3, 5)
    assert x.swap_colors_in(members) == Coloring((0, 2, 1, 1, 2, 3, 0, 0, 0, 0, 1, 1, 0))


def test_enumerate_colorings_examples():
    assert list(enumerate_colorings(2, 1, 0)) == [Coloring((0, 1)), Coloring((1, 0))]
    four = set(enumerate_colorings(2, 1, 1))
    assert four == {Coloring((3, 0)), Coloring((0, 3)), Coloring((1, 2)), Coloring((2, 1))}


@pytest.mark.parametrize("n", range(8))
def test_enumerate_colorings_counts(n):
    for k in range(n + 1):
        for l in range(n + 1):
            got = list(enumerate_colorings(n, k, l))
            assert got == sorted(got)
            expected = sum(
                math.comb(n, j) * math.comb(n - j, k - j) * math.comb(n - k, l - j)
                for j in range(0, min(k, l) + 1)
            )
            assert len(got) == expected


def test_action_sign_worked_example():
    x = Coloring((1, 2, 1, 2, 2, 1, 3, 1, 2))
    s = Permutation.from_cycles(9, [(1, 2), (4, 6), (5, 8)])
    assert action_sign(x, s) == 1
    assert is_proper_swap(x, s)


def test_action_sign_transposition_rules():
    for n in range(2, 6):
        for x in all_colorings(n):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    s = Permutation.transposition(n, i, j)
                    if x.color(i) == x.color(j) and x.color(i) in (1, 2):
                        assert action_sign(x, s) == -1
                    if x.color(i) == x.color(j) and x.color(i) in (0, 3):
                        assert action_sign(x, s) == 1
                        assert TensorVector.basis(x).act(s) == TensorVector.basis(x)
                    assert action_sign(x.swap_colors(), s) == action_sign(x, s)


def test_action_sign_identity():
    for x in all_colorings(4):
        assert action_sign(x, Permutation.identity(4)) == 1


def test_action_associativity_random():
    rng = random.Random(11)
    for n in (3, 5, 7):
        for _ in range(120):
            x = Coloring(rng.choices((0, 1, 2, 3), k=n))
            s = Permutation(rng.sample(range(1, n + 1), n))
            t = Permutation(rng.sample(range(1, n + 1), n))
            w = TensorVector.basis(x)
            assert w.act(s).act(t) == w.act(s * t)
            assert x.act(s).act(t) == x.act(s * t)


def test_tensor_vector_algebra():
    a = TensorVector.basis(Coloring((1, 2)))
    b = TensorVector.basis(Coloring((2, 1)))
    assert (a + b) - a == b
    assert (2 * a).terms[Coloring((1, 2))] == 2
    assert (a - a).is_zero()
    assert 0 * a == TensorVector.zero(2, 1, 1)
    with pytest.raises(ValueError):
        a + TensorVector.basis(Coloring((1, 0)))
    with pytest.raises(ValueError):
        TensorVector(2, 1, 1, {Coloring((0, 0)): 1})


# ---------------------------------------------------------------------------
# the packed representation


def test_pack_round_trip_and_bit_layout():
    # cell i (1-based) in bits 2(i-1) and 2(i-1)+1: the base-4 digits of the key
    for n in range(7):
        for x in all_colorings(n):
            p = tableaux._pack(x)
            assert p == sum(c * 4**i for i, c in enumerate(x))
            y = tableaux._unpack(p, n)
            assert y == x and type(y) is Coloring
    # at the size cap, with every color in the top cell
    rng = random.Random(73)
    for top in (0, 1, 2, 3):
        for _ in range(20):
            x = Coloring(rng.choices((0, 1, 2, 3), k=MAX_N - 1) + [top])
            p = tableaux._pack(x)
            assert p >> 2 * (MAX_N - 1) == top and p < 4**MAX_N
            assert tableaux._unpack(p, MAX_N) == x
            w = TensorVector.basis(x)
            assert (w.n, w.k, w.l) == (x.n, x.k, x.l) and w.packed == {p: 1}
            assert tableaux._swap(p, tableaux._low(MAX_N)) == tableaux._pack(x.swap_colors())


def test_packed_swap_and_complement_equal_color_maps():
    for n in range(7):
        low = tableaux._low(n)
        for x in all_colorings(n):
            p = tableaux._pack(x)
            assert tableaux._swap(p, low) == tableaux._pack(x.swap_colors())
            w = TensorVector.basis(x)
            assert tensor_swap(w).packed == {tableaux._pack(x.swap_colors()): 1}
            (q, c), = tensor_complement(w).packed.items()
            assert q == tableaux._pack(x.complement_colors())
            assert c == reference_complement_sign(x)


def literal_sum(a, b):
    """The sum of two Coloring-keyed dicts, zero coefficients dropped."""
    out = dict(a)
    for x, c in b.items():
        out[x] = out.get(x, 0) + c
    return {x: c for x, c in out.items() if c}


def test_tensor_vector_operations_equal_literal_dicts():
    # each operation on packed keys against the same operation on the
    # decoded Coloring-keyed dicts, with cancelling terms in every sum
    rng = random.Random(79)
    for n in range(1, 8):
        for _ in range(30):
            a = random_vector(rng, n, rng.randint(1, 12))
            A = dict(a.terms)
            space = list(enumerate_colorings(n, a.k, a.l))
            B = {x: rng.choice((-3, -2, -1, 1, 2, 3)) for x in rng.sample(space, min(len(space), 8))}
            B[next(iter(A))] = -next(iter(A.values()))
            b = TensorVector(n, a.k, a.l, B)
            assert dict(b.terms) == B
            assert dict((a + b).terms) == literal_sum(A, B)
            assert dict((a - b).terms) == literal_sum(A, {x: -c for x, c in B.items()})
            assert dict((-a).terms) == {x: -c for x, c in A.items()}
            for scalar in (0, 1, -2, 5):
                want = {x: scalar * c for x, c in A.items() if scalar}
                assert dict((scalar * a).terms) == want == dict((a * scalar).terms)
            assert (a == b) is (A == B) and a == TensorVector(n, a.k, a.l, A)
            assert a - a == TensorVector.zero(n, a.k, a.l)
            s = Permutation(rng.sample(range(1, n + 1), n))
            acted = a.act(s)
            assert (acted.k, acted.l) == (a.k, a.l)
            assert dict(acted.terms) == {x.act(s): c * action_sign(x, s) for x, c in A.items()}
            swapped = tensor_swap(a)
            assert (swapped.k, swapped.l) == (a.l, a.k)
            assert dict(swapped.terms) == {x.swap_colors(): c for x, c in A.items()}
            complemented = tensor_complement(a)
            assert (complemented.k, complemented.l) == (n - a.k, n - a.l)
            assert dict(complemented.terms) == {
                x.complement_colors(): c * reference_complement_sign(x) for x, c in A.items()
            }


def test_terms_is_a_read_only_decoded_view():
    x = Coloring((1, 2, 0))
    w = TensorVector.basis(x, 2)
    view = w.terms
    assert view == {x: 2} and w.terms is view and type(next(iter(view))) is Coloring
    with pytest.raises(TypeError):
        view[x.swap_colors()] = 1
    with pytest.raises(TypeError):
        del view[x]
    with pytest.raises(AttributeError):
        w.terms = {}
    assert w.packed == {tableaux._pack(x): 2}


# ---------------------------------------------------------------------------
# the two color-switch module maps


def test_tensor_swap_equivariance_exhaustive():
    for n in range(2, 6):
        trans = [
            Permutation.transposition(n, i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        for x in all_colorings(n):
            w = TensorVector.basis(x)
            for s in trans:
                assert tensor_swap(w.act(s)) == tensor_swap(w).act(s)


def test_tensor_swap_equivariance_random():
    rng = random.Random(5)
    for n in (6, 7, 8):
        for _ in range(150):
            x = Coloring(rng.choices((0, 1, 2, 3), k=n))
            s = Permutation(rng.sample(range(1, n + 1), n))
            w = TensorVector.basis(x)
            assert tensor_swap(w.act(s)) == tensor_swap(w).act(s)


def test_tensor_complement_examples():
    assert tensor_complement(TensorVector.basis(Coloring((0,)))) == TensorVector.basis(
        Coloring((3,))
    )
    # one painted cell in the middle position flips the sign
    w = tensor_complement(TensorVector.basis(Coloring((0, 1, 0))))
    assert w.terms == {Coloring((3, 2, 3)): -1}


def reference_complement_sign(x):
    I, J = x.support()
    expo = sum(i - a for a, i in enumerate(I, start=1)) + sum(
        j - a for a, j in enumerate(J, start=1)
    )
    return -1 if expo % 2 else 1


def test_tensor_complement_sign_and_involution():
    for n in range(1, 7):
        for x in all_colorings(n):
            w = TensorVector.basis(x)
            pw = tensor_complement(w)
            (y, c), = pw.terms.items()
            assert y == x.complement_colors()
            assert c == reference_complement_sign(x)
            back = tensor_complement(pw)
            expected = reference_complement_sign(x) * reference_complement_sign(y)
            assert back == expected * w


def test_tensor_complement_equivariance():
    rng = random.Random(17)
    for n in range(2, 6):
        for x in all_colorings(n):
            for i in range(1, n):
                s = Permutation.transposition(n, i, i + 1)
                w = TensorVector.basis(x)
                assert tensor_complement(w.act(s)) == tensor_complement(w).act(s)
    for n in (6, 7):
        for _ in range(150):
            x = Coloring(rng.choices((0, 1, 2, 3), k=n))
            s = Permutation(rng.sample(range(1, n + 1), n))
            w = TensorVector.basis(x)
            assert tensor_complement(w.act(s)) == tensor_complement(w).act(s)


# ---------------------------------------------------------------------------
# proper swaps


def test_is_proper_swap_examples():
    x = Coloring((1, 0, 0, 1, 2, 2))
    assert is_proper_swap(x, Permutation.identity(6))
    assert not is_proper_swap(x, Permutation.transposition(6, 1, 5))
    assert action_sign(x, Permutation.transposition(6, 1, 5)) == -1
    # pairing both painted pairs monotonically balances every interval
    s = Permutation.from_cycles(6, [(1, 5), (4, 6)])
    assert is_proper_swap(x, s)
    assert action_sign(x, s) == 1


def test_is_proper_swap_rejects_non_involutions_and_bad_colors():
    x = Coloring((1, 2, 0))
    assert not is_proper_swap(x, Permutation.from_cycles(3, [(1, 2, 3)]))
    assert not is_proper_swap(Coloring((1, 1, 0)), Permutation.transposition(3, 1, 2))


def test_monotone_color_matching():
    x = Coloring((1, 2, 1, 2))
    s = monotone_color_matching(x)
    assert s == Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert x.act(s) == x.swap_colors()
    assert monotone_color_matching(Coloring((1, 1, 2))) is None
    for x in all_colorings(5):
        s = monotone_color_matching(x)
        if s is not None:
            assert x.act(s) == x.swap_colors()


# ---------------------------------------------------------------------------
# symmetrizers


def test_tableau_geometry():
    lam = Partition((3, 2, 1))
    rows, columns, pairs = tableaux._tableau(lam)[:3]
    assert (rows, columns, pairs) == (((1, 2, 3), (4, 5), (6,)), ((1, 4, 6), (2, 5), (3,)), 144)
    assert tableaux._tableau(Partition((3, 2, 2, 1)))[2] == 3456
    # every shape of n <= 8 against the literal (row, column) reading; the
    # pair count is the budget's boundary, given lam as a plain tuple
    shapes = 0
    for n in range(9):
        for lam in enumerate_partitions(n):
            rows, columns, pairs = tableaux._tableau(lam)[:3]
            assert (list(rows), list(columns)) == brute_cells(lam)
            assert pairs == math.prod(map(math.factorial, lam + brute_transpose(lam)))
            w = TensorVector.basis((0,) * n)
            apply_symmetrizer(w, tuple(lam), budget=pairs)
            with pytest.raises(BudgetError, match=f"needs {pairs} "):
                apply_symmetrizer(w, tuple(lam), budget=pairs - 1)
            shapes += 1
    assert shapes == 67


def test_apply_symmetrizer_known_zero_cases():
    lam = Partition((2, 2, 2))
    for colors in ((0, 0, 1, 3, 1, 3), (0, 3, 1, 0, 1, 3)):
        w = TensorVector.basis(Coloring(colors))
        assert apply_symmetrizer(w, lam).is_zero()


def test_apply_symmetrizer_kills_repeated_row_paint():
    rng = random.Random(3)
    for lam_parts in ((2, 1), (3, 2), (2, 2, 1), (4, 2)):
        lam = Partition(lam_parts)
        n = lam.n
        rows = row_cells(lam)
        for _ in range(40):
            colors = rng.choices((0, 1, 2, 3), k=n)
            row = rng.choice([r for r in rows if len(r) >= 2])
            a, b = row[0], row[1]
            paint = rng.choice((1, 2))
            colors[a - 1] = colors[b - 1] = paint
            w = TensorVector.basis(Coloring(colors))
            assert apply_symmetrizer(w, lam).is_zero()


def test_column_antisymmetrizer_kills_repeated_blank():
    rng = random.Random(4)
    for lam_parts in ((2, 2), (2, 1, 1), (3, 2, 1), (1, 1, 1)):
        lam = Partition(lam_parts)
        n = lam.n
        cols = column_cells(lam)
        for _ in range(40):
            colors = rng.choices((0, 1, 2, 3), k=n)
            col = rng.choice([c for c in cols if len(c) >= 2])
            a, b = col[0], col[1]
            blank = rng.choice((0, 3))
            colors[a - 1] = colors[b - 1] = blank
            w = TensorVector.basis(Coloring(colors))
            assert apply_column_antisymmetrizer(w, lam).is_zero()


def test_apply_symmetrizer_matches_brute_force():
    rng = random.Random(7)
    shapes = [(2, 1), (3, 1), (2, 2), (2, 2, 1), (3, 2), (3, 1, 1), (2, 2, 2), (3, 2, 1), (2, 2, 1, 1)]
    for lam_parts in shapes:
        lam = Partition(lam_parts)
        for _ in range(25):
            x = Coloring(rng.choices((0, 1, 2, 3), k=lam.n))
            w = TensorVector.basis(x)
            assert apply_symmetrizer(w, lam) == brute_symmetrizer(w, lam)


def test_apply_symmetrizer_linear_on_vectors():
    lam = Partition((2, 2))
    a = TensorVector.basis(Coloring((0, 1, 2, 3)), 2)
    b = TensorVector.basis(Coloring((1, 0, 3, 2)), -3)
    combo = a + b
    assert apply_symmetrizer(combo, lam) == apply_symmetrizer(a, lam) + apply_symmetrizer(b, lam)


def test_row_absorption():
    rng = random.Random(9)
    for lam_parts in ((3, 2), (2, 2, 1), (4, 1)):
        lam = Partition(lam_parts)
        n = lam.n
        for a in block_group(n, row_cells(lam)):
            x = Coloring(rng.choices((0, 1, 2, 3), k=n))
            lhs = apply_symmetrizer(TensorVector.basis(x.act(a)), lam)
            rhs = action_sign(x, a) * apply_symmetrizer(TensorVector.basis(x), lam)
            assert lhs == rhs


def test_symmetrizer_quasi_idempotent():
    for n in range(1, 5):
        for lam in enumerate_partitions(n):
            scale = math.factorial(n) // dimension(lam)
            for x in all_colorings(n):
                once = apply_symmetrizer(TensorVector.basis(x), lam)
                twice = apply_symmetrizer(once, lam)
                assert twice == scale * once


def test_symmetrizer_quasi_idempotent_n5_sampled():
    rng = random.Random(13)
    for lam in enumerate_partitions(5):
        scale = math.factorial(5) // dimension(lam)
        for _ in range(40):
            x = Coloring(rng.choices((0, 1, 2, 3), k=5))
            once = apply_symmetrizer(TensorVector.basis(x), lam)
            twice = apply_symmetrizer(once, lam)
            assert twice == scale * once


def test_symmetrizer_budget_guard():
    w = TensorVector.basis(Coloring((0,) * 11))
    with pytest.raises(BudgetError):
        apply_symmetrizer(w, Partition((11,)))
    assert apply_symmetrizer(w, Partition((11,)), budget=10**8).terms == {
        Coloring((0,) * 11): math.factorial(11)
    }


def test_symmetrizer_size_cap():
    # refused by size before any factorial of a row is taken, and before any
    # geometry is built, so the shape cache keeps at most the shapes of
    # n <= 20
    shapes = tableaux._tableau.cache_info().currsize
    for restriction in (restriction_compatible, restriction_shape):
        with pytest.raises(ValueError, match="restrictions require n <= 20, got 21"):
            restriction((21,), [1])
    w = TensorVector.basis(Coloring((0,) * 21))
    for apply in (apply_row_symmetrizer, apply_column_antisymmetrizer, apply_symmetrizer):
        with pytest.raises(ValueError, match="symmetrizers require n <= 20, got 21"):
            apply(w, (21,))
    with pytest.raises(ValueError, match="n <= 20"):
        apply_restricted_symmetrizer(w, (21,), (1, 2))
    assert tableaux._tableau.cache_info().currsize == shapes
    with pytest.raises(BudgetError):
        apply_symmetrizer(TensorVector.basis(Coloring((0,) * 20)), (20,))


# ---------------------------------------------------------------------------
# restricted symmetrizers


def test_restriction_compatibility():
    lam = Partition((3, 2, 1))
    assert restriction_compatible(lam, ())
    assert restriction_compatible(lam, (1, 2, 4, 5, 6))
    assert restriction_compatible(lam, (1, 4, 6))
    assert not restriction_compatible(lam, (2,))  # not left-aligned
    assert not restriction_compatible(lam, (1, 4, 5, 6))  # lengths increase
    assert not restriction_compatible(lam, (1, 2, 3, 9))  # outside the diagram
    assert restriction_shape(lam, (1, 2, 4, 6)) == Partition((2, 1, 1))
    with pytest.raises(ValueError):
        restriction_shape(lam, (2, 3))


def test_restriction_equals_coordinate_oracle():
    """For every lam with n <= 6 and every set of its cells, alone and with a
    cell outside the diagram, compatibility and shape agree with the literal
    (row, column) reading, and the restricted pair budget is the product of
    the factorials of that shape's row and column lengths."""
    compatible = 0
    for n in range(7):
        zero = TensorVector.basis(Coloring((0,) * n))
        for lam in enumerate_partitions(n):
            for size in range(n + 1):
                for members in itertools.combinations(range(1, n + 1), size):
                    for selection in (members, members + (n + 1,)):
                        want = brute_restriction(lam, selection)
                        assert restriction_compatible(lam, selection) == (want is not None)
                        if want is None:
                            with pytest.raises(ValueError):
                                restriction_shape(lam, selection)
                            continue
                        assert restriction_shape(lam, selection) == Partition(want)
                        pairs = math.prod(map(math.factorial, want + brute_transpose(want)))
                        apply_restricted_symmetrizer(zero, lam, selection, budget=pairs)
                        with pytest.raises(BudgetError):
                            apply_restricted_symmetrizer(zero, lam, selection, budget=pairs - 1)
                        compatible += 1
    assert compatible == 476


def test_restricted_symmetrizer_edge_cases():
    lam = Partition((2, 2, 1))
    for x in all_colorings(5):
        w = TensorVector.basis(x)
        assert apply_restricted_symmetrizer(w, lam, range(1, 6)) == apply_symmetrizer(w, lam)
        assert apply_restricted_symmetrizer(w, lam, ()) == w


def test_restricted_symmetrizer_matches_brute_force():
    rng = random.Random(21)
    cases = [
        ((2, 2, 1), (1, 3)),
        ((2, 2, 1), (1, 2, 3, 5)),
        ((3, 2, 1), (1, 2, 4, 6)),
        ((2, 2, 1, 1), (1, 3, 5, 6)),
    ]
    for lam_parts, members in cases:
        lam = Partition(lam_parts)
        for _ in range(25):
            x = Coloring(rng.choices((0, 1, 2, 3), k=lam.n))
            w = TensorVector.basis(x)
            assert apply_restricted_symmetrizer(w, lam, members) == brute_restricted_symmetrizer(
                w, lam, members
            )


def test_restricted_symmetrizer_rejects_incompatible():
    with pytest.raises(ValueError):
        apply_restricted_symmetrizer(
            TensorVector.basis(Coloring((0,) * 5)), Partition((2, 2, 1)), (2, 4)
        )


def _first_two_column_restrictions(lam, min_size):
    """Compatible selections inside the first two columns with >= min_size cells."""
    rows = row_cells(lam)
    options = [range(0, min(len(cells), 2) + 1) for cells in rows]
    for lengths in itertools.product(*options):
        nonzero = [h for h in lengths if h]
        if sum(lengths) < min_size:
            continue
        if any(a < b for a, b in zip(nonzero, nonzero[1:])):
            continue
        members = tuple(
            cell for cells, h in zip(rows, lengths) for cell in cells[:h]
        )
        if restriction_compatible(lam, members):
            yield members


def test_restricted_annihilation_with_five_blanks():
    # five or more cells of color 0/3 inside a two-column selection kill the
    # restricted symmetrizer regardless of the colors elsewhere
    outside_fills = ((0,), (3,), (1, 2))
    for n in range(5, 8):
        for lam in enumerate_partitions(n):
            for members in _first_two_column_restrictions(lam, 5):
                if len(members) > 6:
                    continue
                rest = [i for i in range(1, n + 1) if i not in set(members)]
                for inside in itertools.product((0, 1, 2, 3), repeat=len(members)):
                    if sum(1 for c in inside if c in (0, 3)) < 5:
                        continue
                    for fill in outside_fills:
                        colors = [0] * n
                        for cell, c in zip(members, inside):
                            colors[cell - 1] = c
                        for t, cell in enumerate(rest):
                            colors[cell - 1] = fill[t % len(fill)]
                        w = TensorVector.basis(Coloring(colors))
                        assert apply_restricted_symmetrizer(w, lam, members).is_zero()


def test_restricted_annihilation_with_five_blanks_n8():
    lam = Partition((2, 2, 2, 1, 1))
    members = (1, 2, 3, 4, 7)
    assert restriction_compatible(lam, members)
    rest = [5, 6, 8]
    for inside in itertools.product((0, 3), repeat=5):
        for fill in ((0, 0, 0), (1, 2, 0), (3, 3, 3)):
            colors = [0] * 8
            for cell, c in zip(members, inside):
                colors[cell - 1] = c
            for cell, c in zip(rest, fill):
                colors[cell - 1] = c
            w = TensorVector.basis(Coloring(colors))
            assert apply_restricted_symmetrizer(w, lam, members).is_zero()


# ---------------------------------------------------------------------------
# embedding permutations along a selection


def test_embed_perm_examples():
    assert embed_perm(6, (1, 3, 5), Permutation.identity(3)) == Permutation.identity(6)
    lifted = embed_perm(6, (1, 3, 5), Permutation.transposition(3, 1, 3))
    assert lifted == Permutation.transposition(6, 1, 5)


def test_embed_perm_is_homomorphism():
    for size in range(1, 5):
        members = tuple(2 * i + 1 for i in range(size))
        n = members[-1] + 1
        perms = [Permutation(images) for images in itertools.permutations(range(1, size + 1))]
        for s in perms:
            for t in perms:
                assert embed_perm(n, members, s) * embed_perm(n, members, t) == embed_perm(
                    n, members, s * t
                )


# ---------------------------------------------------------------------------
# the lifting identity and its failure without balance


def test_lifting_example_with_negative_sign():
    lam = Partition((2, 2, 1, 1))
    x = Coloring((1, 0, 0, 1, 2, 2))
    members = (1, 3, 5)
    xp = restriction_coloring(x, members)
    assert xp == Coloring((1, 0, 2))
    assert restriction_shape(lam, members) == Partition((1, 1, 1))
    assert not balance_condition(x, members)
    sp = monotone_color_matching(xp)
    lifted = embed_perm(6, members, sp)
    got = TensorVector.basis(x).act(lifted)
    assert got == -1 * TensorVector.basis(x.swap_colors_in(members))


def test_lifting_identity_under_balance():
    lams = [Partition((2, 2, 1, 1)), Partition((3, 2, 1)), Partition((2, 2, 2))]
    checked = 0
    for lam in lams:
        n = lam.n
        selections = [
            members
            for size in range(1, n + 1)
            for members in itertools.combinations(range(1, n + 1), size)
            if restriction_compatible(lam, members)
        ]
        for x in all_colorings(n):
            for members in selections:
                xp = restriction_coloring(x, members)
                sp = monotone_color_matching(xp)
                if sp is None or sp.is_identity():
                    continue
                if not balance_condition(x, members):
                    continue
                lifted = embed_perm(n, members, sp)
                got = TensorVector.basis(x).act(lifted)
                assert got == TensorVector.basis(x.swap_colors_in(members))
                checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# projection onto the standard-module quotient


def projected_supports(w):
    """The projection of w keyed by the index sets (I, J) of each coloring of
    [n-1], the form of ``brute_projection``."""
    return {x.support(): c for x, c in project_to_standard(w).terms.items()}


def test_projection_scalar_case():
    w = TensorVector.basis(Coloring((0, 0, 0)))
    assert project_to_standard(w) == TensorVector.basis(Coloring((0, 0)))
    assert projected_supports(w) == brute_projection(w) == {((), ()): 1}


def test_projection_kills_summed_wedge():
    rng = random.Random(31)
    for n in (3, 4, 5, 6):
        for _ in range(30):
            k = rng.randrange(1, n)
            l = rng.randrange(0, n)
            head = tuple(sorted(rng.sample(range(1, n + 1), k - 1)))
            J = tuple(sorted(rng.sample(range(1, n + 1), l)))
            vec = TensorVector.zero(n, k, l)
            for i in range(1, n + 1):
                if i in head:
                    continue
                colors = coloring_sets(n, tuple(sorted(head + (i,))), J)
                vec = vec + wedge_front_sign(i, head) * TensorVector.basis(Coloring(colors))
            assert project_to_standard(vec).is_zero()


def test_projection_equals_literal_quotient():
    # every basis vector of n <= 6, then seeded multi-term vectors of n <= 8,
    # against u_n rewritten and each wedge sorted by counting inversions; each
    # image is a clean vector of the (n-1, k, l) space: cell n blank
    vectors = [TensorVector.basis(x) for n in range(7) for x in all_colorings(n)]
    rng = random.Random(71)
    vectors += [
        random_vector(rng, n, rng.randint(2, 30)) for n in range(1, 9) for _ in range(40)
    ]
    for w in vectors:
        image = project_to_standard(w)
        assert (image.n, image.k, image.l) == (max(w.n - 1, 0), w.k, w.l), w
        assert_clean_terms(image)
        assert projected_supports(w) == brute_projection(w), w
    assert len(vectors) == sum(4**n for n in range(7)) + 8 * 40


def test_projection_commutes_with_tensor_swap():
    # P(swap w) = swap P(w), the identity the half-pair mod-K check rests on:
    # every coloring of n <= 5, then seeded multi-term vectors of n = 6, 7,
    # each side also against the literal quotient
    vectors = [TensorVector.basis(x) for n in range(6) for x in all_colorings(n)]
    rng = random.Random(83)
    vectors += [random_vector(rng, n, rng.randint(2, 40)) for n in (6, 7) for _ in range(40)]
    moved = 0
    for w in vectors:
        image = project_to_standard(tensor_swap(w))
        assert image == tensor_swap(project_to_standard(w)), w
        assert projected_supports(tensor_swap(w)) == brute_projection(tensor_swap(w)), w
        assert projected_supports(w) == brute_projection(w), w
        moved += image.packed != tensor_swap(image).packed
    assert len(vectors) == 1365 + 80 and moved > 1000


def test_projection_rank_matches_quotient_dimension():
    for n in range(2, 6):
        for k in range(n):
            for l in range(n):
                vectors = [
                    project_to_standard(TensorVector.basis(x)).packed
                    for x in enumerate_colorings(n, k, l)
                ]
                assert exact_rank(vectors) == math.comb(n - 1, k) * math.comb(n - 1, l)
    vectors = [
        project_to_standard(TensorVector.basis(x)).packed for x in enumerate_colorings(6, 2, 2)
    ]
    assert exact_rank(vectors) == math.comb(5, 2) ** 2


# ---------------------------------------------------------------------------
# skew-symmetry checks


def test_verify_skew_symmetry_single_example():
    report = verify_skew_symmetry(Partition((2, 2, 1, 1)), Coloring((0, 0, 1, 3, 3, 2)), -1, "exact")
    assert report.verified
    assert report.sign == -1


def test_verify_skew_symmetry_validation():
    with pytest.raises(ValueError):
        verify_skew_symmetry(Partition((2, 2)), Coloring((0, 0, 0, 0)), -1, "approx")
    with pytest.raises(ValueError):
        verify_skew_symmetry(Partition((2, 2)), Coloring((0, 0, 0, 0)), 2, "exact")


def test_verify_skew_symmetry_matches_two_sided_verdicts():
    # every verdict, negative ones included, equals the literal comparison
    # with an independently computed right side
    checks = failures = 0
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for x in all_colorings(n):
                for sign in (1, -1):
                    for mode in ("exact", "mod-K"):
                        verdict = verify_skew_symmetry(lam, x, sign, mode).verified
                        expected = brute_skew_verdict(lam, x, sign, mode)
                        assert verdict is expected, (tuple(lam), tuple(x), sign, mode)
                        checks += 1
                        failures += not verdict
    assert (checks, failures) == (34_704, 14_741)


def column_reading(lam):
    """The column reading tau of lam's canonical tableau, read off
    ``column_cells``: cell p goes to its place in the columns read one after
    another, top to bottom."""
    order = [p for cells in column_cells(lam) for p in cells]
    return Permutation(order).inverse()


def test_modk_check_projects_one_member_per_swap_pair(monkeypatch):
    # suite_hooks(6), and the same checks with the other sign, each computed
    # past the verdict memo with its projected vector, if any, recorded: a
    # verdict projects exactly when the identity fails before the
    # projection, and one that does not project holds; with v' = w_x c tau,
    # the symmetrizer image read in the column reading tau, the projected
    # vector holds one member of each swap pair of v', a self-swapped term
    # only when the sign is -1, and its projection P(Q) gives
    # P(Q) - sign * swap P(Q) = P(v' - sign * swap(v'))
    records = []
    holds, project = tableaux._skew_holds.__wrapped__, tableaux.project_to_standard

    def computed(lam, x, sign, mode):
        record = [lam, x, sign, None]
        records.append(record)
        record[3] = holds(lam, x, sign, mode)
        return record[3]

    def projected(w):
        records[-1].append(w)
        return project(w)

    monkeypatch.setattr(tableaux, "_skew_holds", computed)
    monkeypatch.setattr(tableaux, "project_to_standard", projected)
    result = suite_hooks(6)
    assert (result.checks, result.failures) == (3900, 0)
    # a hook's self-swapped terms (colors 0 and 3 only) survive its column
    # sum only when the column has at most 2 cells, where the sign is +1;
    # they cancel from v' - swap(v'), so only the other sign projects them
    for lam in (hooksq.partitions.hook_partition(n, m) for n in range(1, 7) for m in range(n)):
        for x in sweep_colorings(lam):
            computed(lam, x, -expected_skew_sign(lam)[0], "mod-K")
    assert len(records) == 7800 and all(len(record) in (4, 5) for record in records)
    natural = [sign == expected_skew_sign(lam)[0] for lam, _, sign, *_ in records]
    assert natural == [True] * 3900 + [False] * 3900
    for lam, x, sign, verdict, *half in records:
        assert bool(half) is not brute_skew_verdict(lam, x, sign, "exact"), (tuple(lam), tuple(x))
        assert half or verdict, (tuple(lam), tuple(x))
    projecting = [len(record) == 5 for record in records]
    assert (sum(projecting[:3900]), sum(projecting[3900:])) == (480, 1763)
    records = [record for record in records if len(record) == 5]
    selves = relabelled = 0
    for lam, x, sign, _, half in records:
        lhs = apply_symmetrizer(TensorVector.basis(x), lam)
        tau = column_reading(lam)
        relabelled += not tau.is_identity()
        lhs = lhs.act(tau)
        low = tableaux._low(lhs.n)
        selves += sum(tableaux._swap(y, low) == y for y in lhs.packed)
        for y in half.packed:
            partner = tableaux._swap(y, low)
            assert partner == y or partner not in half.packed, (tuple(lam), y)
            assert partner != y or sign == -1, (tuple(lam), y)
        image = project(half)
        difference = image - sign * tensor_swap(image)
        assert difference == project(lhs - sign * tensor_swap(lhs)), (tuple(lam), lhs)
    assert selves > 100, selves
    assert 0 < relabelled < len(records), relabelled


def test_skew_verdicts_sampled_n6_n7():
    # 15 seeded balanced colorings for every shape of n = 6 and 7, each
    # checked in both modes with both signs, against the verdict with an
    # independent right side; both verdicts occur in each mode
    rng = random.Random(79)
    verdicts = {(mode, v): 0 for mode in ("exact", "mod-K") for v in (True, False)}
    for n in (6, 7):
        pool = list(balanced_colorings(n))
        for lam in enumerate_partitions(n):
            for x in rng.sample(pool, 15):
                for mode in ("exact", "mod-K"):
                    for sign in (1, -1):
                        verdict = verify_skew_symmetry(lam, x, sign, mode).verified
                        expected = brute_skew_verdict(lam, x, sign, mode)
                        assert verdict is expected, (tuple(lam), tuple(x), sign, mode)
                        verdicts[mode, verdict] += 1
    assert sum(verdicts.values()) == 26 * 15 * 4
    assert min(verdicts.values()) > 100, verdicts


def test_modk_verdicts_equal_brute_force_n6():
    # 48 seeded balanced colorings and 12 from all colorings of every shape
    # of n = 6, each with its swap partner and both signs: the mod-K check
    # past the verdict memo, its column sums run in the column reading,
    # against the verdict with an independent right side and the literal
    # projection; sampled, since all 4,096 colorings of every shape would be
    # 35 times the 2,564 verdicts here
    rng = random.Random(97)
    balanced = list(balanced_colorings(6))
    everything = list(all_colorings(6))
    verdicts = {True: 0, False: 0}
    for lam in enumerate_partitions(6):
        for x in rng.sample(balanced, 48) + rng.sample(everything, 12):
            for y in {x, x.swap_colors()}:
                for sign in (1, -1):
                    verdict = tableaux._skew_holds.__wrapped__(lam, y, sign, "mod-K")
                    expected = brute_skew_verdict(lam, y, sign, "mod-K")
                    assert verdict is expected, (tuple(lam), tuple(y), sign)
                    verdicts[verdict] += 1
    assert verdicts == {True: 1980, False: 584}, verdicts


def orbit_keys(lam, colorings):
    """The keys ``verify_skew_symmetry`` hands the verdict memo for the
    colorings of lam, each the least coloring of its orbit, ascending."""
    keys = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableaux, "_skew_holds", lambda lam, x, *args: keys.add(x))
        for x in colorings:
            verify_skew_symmetry(lam, x, 1, "mod-K")
    return sorted(keys)


def modk_checks(lam, keys, sign):
    """The failures and projections of the mod-K checks of the colorings
    ``keys`` of lam, past the verdict memo: each verdict equals the one with
    an independent right side and the literal projection, and projects
    exactly when the identity fails before the projection."""
    project = tableaux.project_to_standard
    images = []
    failures = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableaux, "project_to_standard", lambda w: images.append(w) or project(w))
        for z in keys:
            projected = len(images)
            verdict = tableaux._skew_holds.__wrapped__(lam, z, sign, "mod-K")
            assert verdict is brute_skew_verdict(lam, z, sign, "mod-K"), (tuple(lam), z, sign)
            exact = brute_skew_verdict(lam, z, sign, "exact")
            assert len(images) - projected == (not exact), (tuple(lam), z, sign)
            failures += not verdict
    return failures, len(images)


def test_modk_short_cut_equals_brute_force():
    # every orbit key of every hook with n <= 8, both signs
    totals = {"keys": 0, "failures": 0, "projections": 0}
    for n in range(1, 9):
        for m in range(n):
            lam = hooksq.partitions.hook_partition(n, m)
            keys = orbit_keys(lam, balanced_colorings(n))
            totals["keys"] += len(keys)
            for sign in (1, -1):
                failures, projections = modk_checks(lam, keys, sign)
                totals["failures"] += failures
                totals["projections"] += projections
    assert totals == {"keys": 1989, "failures": 400, "projections": 764}, totals


def test_modk_checks_project_only_exact_mismatches():
    # the natural sign of the n = 7 hooks holds on all 532 keys and projects
    # 54 of them; that of the double hooks 4,2,1,1, 2,2,2,2 and 3,3,1,1
    # holds exactly on every key, so only the other sign reaches the
    # projection, where some verdicts hold and others fail
    hooks = []
    for m in range(7):
        lam = hooksq.partitions.hook_partition(7, m)
        keys = orbit_keys(lam, balanced_colorings(7))
        hooks.append((len(keys), *modk_checks(lam, keys, expected_skew_sign(lam)[0])))
    assert sum(count for count, _, _ in hooks) == 532
    assert [(f, p) for _, f, p in hooks] == [(0, p) for p in (0, 12, 20, 8, 10, 4, 0)]
    for parts, count, wrong in (
        ((4, 2, 1, 1), 105, (25, 26)),
        ((2, 2, 2, 2), 97, (8, 9)),
        ((3, 3, 1, 1), 120, (12, 14)),
    ):
        lam = Partition(parts)
        keys = orbit_keys(lam, sweep_colorings(lam))
        sign = expected_skew_sign(lam)[0]
        assert len(keys) == count, parts
        assert modk_checks(lam, keys, sign) == (0, 0), parts
        assert modk_checks(lam, keys, -sign) == wrong, parts


def column_images(lam, x):
    """The column-reading image v' = (w_x R C) tau of lam and x built two
    ways: by relabelling the row image u = w_x R into the column reading and
    summing it there, and by the column route of every column sum
    (``_expand_columns``): its column-orbit sums S, taken on the columns as
    they lie, relabelled and expanded by the frame's block sums."""
    _, _, _, _, columns, _, frame = tableaux._tableau(lam)
    tau, _, blocks = frame
    u = apply_row_symmetrizer(TensorVector.basis(x), lam)
    relabelled = u if tau is None else u.act(tau)
    before = tableaux._apply_blocks(relabelled, blocks, True)
    sums = tableaux._orbit_sums(u.packed, columns, True)
    terms = tableaux._expand_columns(sums, u, frame)
    return before, TensorVector._raw(u.n, u.k, u.l, terms), sums


def test_column_stage_equals_relabelled_row_image(monkeypatch):
    # every coloring of the n = 6 hooks, balanced or not, and 300 seeded
    # colorings of every n = 7 hook and of 4,2,1,1, 2,2,2,2 and 3,3,1,1: the
    # image built from the column-orbit sums equals, term for term, the
    # relabelled row image summed in the column reading; S is empty exactly
    # when that image is 0, and a mod-K verdict on a balanced coloring, past
    # the memo, projects the half-pair vector of that image when the image
    # differs from its swap, and projects nothing when it equals it
    halves = []
    half_difference = tableaux._half_difference

    def recorded(terms, sign, low):
        halves.append(dict(terms))
        return half_difference(terms, sign, low)

    monkeypatch.setattr(tableaux, "_half_difference", recorded)
    rng = random.Random(331)
    cases = [(hooksq.partitions.hook_partition(6, m), all_colorings(6)) for m in range(6)]
    for lam in [hooksq.partitions.hook_partition(7, m) for m in range(7)] + [
        Partition(parts) for parts in ((4, 2, 1, 1), (2, 2, 2, 2), (3, 3, 1, 1))
    ]:
        cases.append((lam, [Coloring(rng.choices(range(4), k=lam.n)) for _ in range(300)]))
    counts = {"colorings": 0, "relabelled": 0, "zero": 0, "verdicts": 0, "projected": 0}
    for lam, colorings in cases:
        for x in colorings:
            before, after, sums = column_images(lam, x)
            assert after == before, (tuple(lam), tuple(x))
            assert (not sums) is before.is_zero(), (tuple(lam), tuple(x))
            counts["colorings"] += 1
            counts["relabelled"] += tableaux._tableau(lam)[6][0] is not None
            counts["zero"] += before.is_zero()
            if x.k == x.l:
                halves.clear()
                tableaux._skew_holds.__wrapped__(lam, x, 1, "mod-K")
                if before == tensor_swap(before):
                    assert halves == [], (tuple(lam), tuple(x))
                else:
                    assert halves[0] == before.packed, (tuple(lam), tuple(x))
                    counts["projected"] += 1
                counts["verdicts"] += 1
    assert counts == {
        "colorings": 6 * 4096 + 10 * 300,
        "relabelled": 18_784,
        "zero": 18_489,
        "verdicts": 6_171,
        "projected": 1_261,
    }


# ---------------------------------------------------------------------------
# exact verdicts from column-orbit sums


def exact_verdict(lam, x, sign):
    """The exact check of x itself, past the verdict memo."""
    return tableaux._skew_holds.__wrapped__(lam, x, sign, "exact")


def test_exact_verdicts_equal_brute_force_n6():
    # every shape and every coloring with n <= 6, against the verdict with
    # an independent right side: both signs for k = l, one for k != l, where
    # the identity is lhs = 0 and has no sign; x and its swap partner run
    # together, so the oracle computes each image once
    checks = failures = 0
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            for x in all_colorings(n):
                if x.swap_colors() < x:
                    continue
                for y in {x, x.swap_colors()}:
                    for sign in (1, -1) if x.k == x.l else (1,):
                        verdict = exact_verdict(lam, y, sign)
                        assert verdict is brute_skew_verdict(lam, y, sign, "exact"), (
                            tuple(lam),
                            tuple(y),
                            sign,
                        )
                        checks += 1
                        failures += not verdict
    assert (checks, failures) == (66_084, 22_420)


def gapped_column_blocks(shapes, max_cells):
    """The column blocks of at most ``max_cells`` cells, with fixed cells
    between two of their cells, of the given shapes."""
    return sorted(
        {
            cells
            for lam in shapes
            for cells in column_cells(lam)
            if 1 < len(cells) <= max_cells and cells[-1] - cells[0] >= len(cells)
        }
    )


def row_blocks(shapes, max_cells):
    """The row blocks of two to ``max_cells`` cells of the given shapes."""
    return sorted(
        {cells for lam in shapes for cells in row_cells(lam) if 1 < len(cells) <= max_cells}
    )


def test_column_sorts_equal_literal_block_sums():
    # each gapped column block (signed sum) and each row block (plain sum) of
    # up to four cells of the shapes with n <= 7 and of (4,2,1,1), every block
    # coloring, each with 3 seeded colorings of the other cells up to the
    # block's last: the sorted coloring z and the sign sigma of _block_sort
    # against the coefficient of z in the literal block sum, which is sigma
    # times the stabilizer factor; an annihilated coloring has no sort and a
    # zero block sum
    rng = random.Random(27)
    shapes = [lam for n in range(2, 8) for lam in enumerate_partitions(n)] + [(4, 2, 1, 1)]
    columns = gapped_column_blocks(shapes, 4)
    assert {(1, 4, 6), (2, 5), (1, 3, 5, 7), (1, 5, 7, 8)} <= set(columns)
    assert len(columns) == 28
    rows = row_blocks(shapes, 4)
    assert {(1, 2), (3, 4), (4, 5, 6), (1, 2, 3, 4)} <= set(rows)
    assert len(rows) == 9
    counts = {}
    for cells, signed in [(c, True) for c in columns] + [(c, False) for c in rows]:
        block = tableaux._block(cells)
        others = [p for p in range(1, cells[-1] + 1) if p not in cells]
        cancel, bulk = ((0, 3), (1, 2)) if signed else ((1, 2), (0, 3))
        for colors in itertools.product((0, 1, 2, 3), repeat=len(cells)):
            for _ in range(3):
                x = [0] * cells[-1]
                for p in others:
                    x[p - 1] = rng.randrange(4)
                for p, c in zip(cells, colors):
                    x[p - 1] = c
                y = tableaux._pack(x)
                literal = brute_block_sum(TensorVector.basis(x), cells, signed)
                entry = tableaux._block_sort(y & block[1], block, signed)
                if any(colors.count(c) > 1 for c in cancel):
                    assert entry is None and literal.is_zero(), (cells, signed, x)
                    counts[signed, "annihilated"] = counts.get((signed, "annihilated"), 0) + 1
                    continue
                ordered, odd, crossing = entry
                z = list(x)
                for p, c in zip(cells, sorted(colors)):
                    z[p - 1] = c
                assert y & ~block[1] | ordered == tableaux._pack(z), (cells, signed, x)
                sigma = -1 if odd ^ (y & crossing).bit_count() & 1 else 1
                base = math.factorial(colors.count(bulk[0])) * math.factorial(colors.count(bulk[1]))
                assert literal.terms[Coloring(z)] == sigma * base, (cells, signed, x)
                counts[signed, "sorted"] = counts.get((signed, "sorted"), 0) + 1
    assert counts == {
        (True, "sorted"): 4_470,
        (True, "annihilated"): 3_354,
        (False, "sorted"): 990,
        (False, "annihilated"): 594,
    }, counts


def test_column_sorts_table_is_emptied_at_its_limit(monkeypatch):
    # with room for 8 sorts the process-wide table of row and column sorts is
    # emptied whenever it fills, and every verdict stays that of the
    # independent right side
    monkeypatch.setattr(tableaux, "_BLOCK_SORTS_LIMIT", 8)
    tableaux._block_sorts.clear()
    rng = random.Random(8)
    lam = Partition((4, 2, 1, 1))
    for x in rng.sample(list(balanced_colorings(8)), 40):
        for sign in (1, -1):
            assert exact_verdict(lam, x, sign) is brute_skew_verdict(lam, x, sign, "exact")
            assert len(tableaux._block_sorts) <= 8


def test_exact_verdicts_sampled_n8():
    # 24 seeded colorings of every shape of n = 8, 18 balanced and 6 from
    # all colorings, both signs, against the verdict with an independent
    # right side
    rng = random.Random(88)
    balanced = list(balanced_colorings(8))
    everything = list(all_colorings(8))
    checks = failures = 0
    for lam in enumerate_partitions(8):
        for x in rng.sample(balanced, 18) + rng.sample(everything, 6):
            for sign in (1, -1):
                verdict = exact_verdict(lam, x, sign)
                assert verdict is brute_skew_verdict(lam, x, sign, "exact"), (
                    tuple(lam),
                    tuple(x),
                    sign,
                )
                checks += 1
                failures += not verdict
    assert (checks, failures) == (22 * 24 * 2, 176)


# ---------------------------------------------------------------------------
# the orbit memo of skew verdicts


def computed_verdicts():
    """The verdicts computed so far, not read from the memo: its misses."""
    return tableaux._skew_holds.cache_info().misses


def test_sweeps_apply_the_symmetrizer_once_per_orbit():
    # one verdict computed per orbit, whichever path the mode takes
    tableaux._skew_holds.cache_clear()
    assert suite_hooks(6).checks == 3900
    assert computed_verdicts() == 447
    assert suite_prop32(8).checks == 12_700
    assert computed_verdicts() == 447 + 1320
    # a repeated sweep reads the memo only, and so does a repeated check
    assert suite_hooks(6).passed
    assert computed_verdicts() == 447 + 1320
    tableaux._skew_holds.cache_clear()
    lam, x = Partition((2, 2, 1, 1)), Coloring((0, 0, 1, 3, 3, 2))
    assert verify_skew_symmetry(lam, x, -1).verified
    assert verify_skew_symmetry(lam, x, -1).verified
    assert computed_verdicts() == 1


def test_guards_raise_with_a_warm_memo():
    lam, x = Partition((2, 2, 1, 1)), Coloring((0, 0, 1, 3, 3, 2))
    tableaux._skew_holds.cache_clear()
    assert verify_skew_symmetry(lam, x, -1, "exact").verified
    entries = tableaux._skew_holds.cache_info().currsize
    with pytest.raises(ValueError, match="mode must be 'exact' or 'mod-K'"):
        verify_skew_symmetry(lam, x, -1, "approx")
    with pytest.raises(ValueError, match="expected sign must be"):
        verify_skew_symmetry(lam, x, 2, "exact")
    # the six cells of lam would read the warm key off the longer coloring
    with pytest.raises(ValueError, match="partition of 6 does not match vector size 7"):
        verify_skew_symmetry(lam, x + (0,), -1, "exact")
    with pytest.raises(ValueError, match="symmetrizers require n <= 20, got 21"):
        verify_skew_symmetry((21,), (0,) * 21, 1, "exact")
    # an over-budget check is refused every time, before the memo is read:
    # it leaves no entry and computes no verdict
    refusal = r"symmetrizer for \(2, 2, 1, 1\) needs 192 \(row, column\) pairs, budget is 1"
    for _ in range(2):
        for mode in ("exact", "mod-K"):
            with pytest.raises(BudgetError, match=refusal):
                verify_skew_symmetry(lam, x, -1, mode, budget=1)
    assert tableaux._skew_holds.cache_info().currsize == entries
    assert computed_verdicts() == 1


def test_distinct_orbits_keep_their_own_verdicts():
    # merging the rows of a run into one sorted group would give the two
    # colorings of (2, 2) one entry; sorting the whole coloring would do so
    # for (2, 1)
    for lam, xs in (((2, 2), ((0, 1, 2, 3), (0, 3, 1, 2))), ((2, 1), ((0, 1, 2), (1, 2, 0)))):
        tableaux._skew_holds.cache_clear()
        got = [verify_skew_symmetry(lam, x, 1, "exact").verified for x in xs]
        assert got == [brute_skew_verdict(lam, Coloring(x), 1, "exact") for x in xs]
        assert got == [False, True], lam
        assert tableaux._skew_holds.cache_info().currsize == 2, lam


def test_memo_key_is_the_orbits_least_coloring(monkeypatch):
    # 12 seeded colorings of every shape with n <= 6 (340, of which 273 are
    # not their orbit's least member): the coloring handed to the memo is the
    # least member of x's orbit under the moves of the verdict lemma, and it
    # is its own key
    rng = random.Random(26)
    holds = tableaux._skew_holds
    keys = []

    def recorded(lam, x, *args):
        keys.append(x)
        return holds(lam, x, *args)

    monkeypatch.setattr(tableaux, "_skew_holds", recorded)
    moved = 0
    for n in range(1, 7):
        pool = list(all_colorings(n))
        for lam in enumerate_partitions(n):
            for x in rng.sample(pool, min(12, len(pool))):
                verify_skew_symmetry(lam, x, 1, "exact")
                least = keys[-1]
                assert least == min(brute_orbit(lam, x)), (tuple(lam), tuple(x))
                verify_skew_symmetry(lam, least, 1, "exact")
                assert keys[-1] == least, (tuple(lam), tuple(x))
                moved += least != x
    assert moved > 200, moved


def test_warm_verdicts_equal_verdicts_on_x_n6():
    # the n = 6 shapes with a repeated row of two or more cells, where the
    # key also permutes equal rows: every balanced coloring, both signs and
    # both modes, read from the memo against the check run on x itself
    shapes = [lam for lam in enumerate_partitions(6) if any(a == b > 1 for a, b in zip(lam, lam[1:]))]
    assert shapes == [(3, 3), (2, 2, 2), (2, 2, 1, 1)]
    tableaux._skew_holds.cache_clear()
    verdicts = {True: 0, False: 0}
    for lam in shapes:
        for x in balanced_colorings(6):
            for sign in (1, -1):
                for mode in ("exact", "mod-K"):
                    warm = verify_skew_symmetry(lam, x, sign, mode).verified
                    cold = tableaux._skew_holds.__wrapped__(lam, x, sign, mode)
                    assert warm is cold, (tuple(lam), tuple(x), sign, mode)
                    verdicts[warm] += 1
    assert verdicts == {True: 8488, False: 2600}
    assert tableaux._skew_holds.cache_info().currsize == 808


def _row_and_column_split(lam, pairing):
    """Assign each 2-cycle to the row group or the column group, if possible."""
    cell_row = {}
    for r, cells in enumerate(row_cells(lam)):
        for cell in cells:
            cell_row[cell] = r
    cell_col = {}
    for c, cells in enumerate(column_cells(lam)):
        for cell in cells:
            cell_col[cell] = c
    row_pairs, col_pairs = [], []
    for a, b in pairing:
        if cell_row[a] == cell_row[b]:
            row_pairs.append((a, b))
        elif cell_col[a] == cell_col[b]:
            col_pairs.append((a, b))
        else:
            return None
    return row_pairs, col_pairs


def _centralizes_rows(lam, b0):
    n = lam.n
    for cells in row_cells(lam):
        for a, b in zip(cells, cells[1:]):
            g = Permutation.transposition(n, a, b)
            if g * b0 != b0 * g:
                return False
    return True


def test_pairing_identity_exhaustive_small():
    # every row/column pair satisfying the three hypotheses yields the
    # predicted sign, swept over entire row and column groups
    for n in range(2, 6):
        for lam in enumerate_partitions(n):
            R = block_group(n, row_cells(lam))
            C = block_group(n, column_cells(lam))
            pairs = [
                (a0 * b0, b0.sign())
                for b0 in C
                if _centralizes_rows(lam, b0)
                for a0 in R
            ]
            seen = set()
            for x in all_colorings(n):
                if x.k != x.l:
                    continue
                target = x.swap_colors()
                for v, delta in pairs:
                    if x.act(v) != target or not is_proper_swap(x, v):
                        continue
                    key = (x, delta)
                    if key in seen:
                        continue
                    lhs = apply_symmetrizer(TensorVector.basis(x), lam)
                    rhs = apply_symmetrizer(TensorVector.basis(target), lam)
                    assert lhs == delta * rhs, (tuple(lam), tuple(x), delta)
                    seen.add(key)


def test_pairing_identity_monotone_pairings():
    checked = 0
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            for colors in itertools.product((0, 1, 2, 3), repeat=n):
                x = Coloring(colors)
                if x.k != x.l or x.swap_colors() < x:
                    continue
                v = monotone_color_matching(x)
                if v is None or v.is_identity():
                    continue
                split = _row_and_column_split(lam, [c for c in v.cycles()])
                if split is None:
                    continue
                row_pairs, col_pairs = split
                if not col_pairs:
                    continue
                b0 = Permutation.from_cycles(n, col_pairs)
                if not (_centralizes_rows(lam, b0) and is_proper_swap(x, v)):
                    continue
                lhs = apply_symmetrizer(TensorVector.basis(x), lam)
                rhs = apply_symmetrizer(TensorVector.basis(x.swap_colors()), lam)
                assert lhs == b0.sign() * rhs, (tuple(lam), tuple(x))
                checked += 1
    assert checked > 300


def test_pairing_identity_tall_example():
    lam = Partition((4, 3, 1, 1, 1))
    x = Coloring((3, 1, 0, 2, 0, 1, 2, 2, 3, 1))
    a0 = Permutation.from_cycles(10, [(2, 4), (6, 7)])
    b0 = Permutation.from_cycles(10, [(8, 10)])
    v = a0 * b0
    assert x.act(v) == x.swap_colors()
    assert is_proper_swap(x, v)
    assert _centralizes_rows(lam, b0)
    assert b0.sign() == -1
    lhs = apply_symmetrizer(TensorVector.basis(x), lam)
    rhs = apply_symmetrizer(TensorVector.basis(x.swap_colors()), lam)
    assert not lhs.is_zero()
    assert lhs == -1 * rhs


# ---------------------------------------------------------------------------
# the symmetrizer kernel against the literal double sums on multi-term
# vectors, where terms sharing a block transfer reuse it within one call

# columns of these shapes have gaps that hold fixed cells of colors 1, 2 and 3
GAPPED_SHAPES = [(3, 2, 1), (3, 3, 1), (4, 2, 1, 1), (2, 2, 2, 2)]


def random_vector(rng, n, size):
    """A sum of ``size`` distinct random basis vectors of one (n, k, l) space
    with nonzero coefficients in [-3, 3]."""
    x = Coloring(rng.choices((0, 1, 2, 3), k=n))
    space = list(enumerate_colorings(n, x.k, x.l))
    picked = rng.sample(space, min(size, len(space)))
    return TensorVector(
        n, x.k, x.l, {y: rng.choice((-3, -2, -1, 1, 2, 3)) for y in picked}
    )


def gap_colors(lam, vectors):
    """Colors seen on cells strictly between consecutive cells of a column."""
    seen = set()
    for cells in column_cells(lam):
        inner = [p for a, b in zip(cells, cells[1:]) for p in range(a + 1, b)]
        for w in vectors:
            for x in w.terms:
                seen.update(x.color(p) for p in inner)
    return seen


def assert_clean_terms(v):
    """Every packed key is a coloring of [n] in v's (k, l) space and no
    stored coefficient is 0: the half-pair skew check and
    ``project_to_standard`` rely on both.  The decoded view holds Colorings."""
    low = tableaux._low(v.n)
    for p, c in v.packed.items():
        assert type(p) is int and 0 <= p < 1 << 2 * v.n and c, (p, c)
        assert ((p & low).bit_count(), (p >> 1 & low).bit_count()) == (v.k, v.l), p
    assert all(type(x) is Coloring for x in v.terms)


def block_sum(w, cells, signed):
    """The kernel's block sum over ``cells`` applied to w, through the orbit
    sums of ``_apply_blocks``.  The kernel takes consecutive cells only: a
    block with gaps is relabelled to the cells 1..r (its cells first, the
    others after them in ascending order) and relabelled back."""
    if cells[-1] - cells[0] == len(cells) - 1:
        return tableaux._apply_blocks(w, (tableaux._block(cells),), signed)
    back = Permutation(list(cells) + [p for p in range(1, w.n + 1) if p not in cells])
    first = tableaux._block(tuple(range(1, len(cells) + 1)))
    return tableaux._apply_blocks(w.act(back.inverse()), (first,), signed).act(back)


def read_columns(lam):
    """The columns of lam in the column reading (``column_reading``):
    consecutive groups of the columns' lengths."""
    ends = list(itertools.accumulate(len(cells) for cells in column_cells(lam)))
    return [tuple(range(a + 1, b + 1)) for a, b in zip([0] + ends, ends)]


def symmetrizer_with_clean_terms(w, lam):
    """apply_symmetrizer(w, lam), with each block sum's output, the result and
    the result's tensor swap checked by assert_clean_terms: the row sums,
    then the column sums on the image read in the column reading, read back
    at the end."""
    v = w
    for cells in row_cells(lam):
        v = block_sum(v, cells, False)
        assert_clean_terms(v)
    tau = column_reading(lam)
    v = v.act(tau)
    for cells in read_columns(lam):
        v = block_sum(v, cells, True)
        assert_clean_terms(v)
    v = v.act(tau.inverse())
    out = apply_symmetrizer(w, lam)
    assert out == v
    assert_clean_terms(out)
    assert_clean_terms(tensor_swap(out))
    return out


def test_apply_symmetrizer_matches_brute_force_multi_term():
    # the gapped shapes, two gapped columns of four cells in (2,2,2,2), and
    # (1^6) and (6), whose column reading is the identity
    rng = random.Random(41)
    shapes = [((2, 2, 1), 6), ((3, 2, 1), 6), ((3, 3, 1), 3), ((4, 2, 1, 1), 2)]
    shapes += [((2, 2, 2, 2), 2), ((1,) * 6, 3), ((6,), 3)]
    for lam_parts, count in shapes:
        lam = Partition(lam_parts)
        vectors = [random_vector(rng, lam.n, rng.randint(5, 20)) for _ in range(count)]
        if lam_parts in GAPPED_SHAPES:
            assert {1, 2, 3} <= gap_colors(lam, vectors)
        for w in vectors:
            image = symmetrizer_with_clean_terms(w, lam)
            assert image == brute_symmetrizer(w, lam), (lam_parts, w)
    # every lambda of n = 2..5, on vectors of 1 to 12 terms
    rng = random.Random(47)
    for n in range(2, 6):
        for lam in enumerate_partitions(n):
            for _ in range(3):
                w = random_vector(rng, n, rng.randint(1, 12))
                image = symmetrizer_with_clean_terms(w, lam)
                assert image == brute_symmetrizer(w, lam), (tuple(lam), w)


def test_restricted_symmetrizer_matches_brute_force_multi_term():
    # the last two skip a row, so a gap of unselected cells splits each of
    # their columns
    rng = random.Random(43)
    cases = [
        ((3, 2, 1), (1, 2, 4, 6)),
        ((3, 2, 1), (1, 4, 6)),
        ((3, 3, 1), (1, 2, 4, 5, 7)),
        ((4, 2, 1, 1), (1, 2, 5, 7, 8)),
        ((1, 1, 1, 1), (1, 2, 4)),
        ((2, 2, 2), (1, 2, 5, 6)),
    ]
    for lam_parts, members in cases:
        lam = Partition(lam_parts)
        assert restriction_compatible(lam, members)
        for _ in range(4):
            w = random_vector(rng, lam.n, rng.randint(5, 20))
            assert apply_restricted_symmetrizer(w, lam, members) == brute_restricted_symmetrizer(
                w, lam, members
            ), (lam_parts, members, w)


def assert_consecutive_frame(frame, columns, n):
    """tau of ``frame`` is the column reading of ``columns``, None exactly
    when that is the identity, back is its inverse, and the blocks are the
    relabelled groups of two or more cells, each consecutive, shortest
    first."""
    tau, back, blocks = frame
    order = [p for cells in columns for p in cells]
    order += [p for p in range(1, n + 1) if p not in order]
    if order == list(range(1, n + 1)):
        assert tau is None and back is None, columns
        tau = Permutation.identity(n)
    else:
        assert back == Permutation(order) and tau == back.inverse(), columns
    groups = [tuple(tau(p) for p in cells) for cells in columns if len(cells) > 1]
    for cells in groups:
        assert cells == tuple(range(cells[0], cells[0] + len(cells))), (columns, cells)
    assert sorted(blocks) == sorted(tableaux._block(cells) for cells in groups), columns
    assert [len(block[0]) for block in blocks] == sorted(map(len, groups)), columns
    assert all(not block[2] for block in blocks), columns
    return frame[0] is None


def test_column_frames_relabel_into_consecutive_blocks():
    # the frame of every shape of n <= 8 (kept in _tableau) and of every
    # sub-diagram of n <= 6 (91 of whose 445 readings are the identity);
    # among full shapes the reading is the identity exactly for (n) and (1^n)
    identities = set()
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            frame = tableaux._tableau(lam)[6]
            if assert_consecutive_frame(frame, column_cells(lam), n):
                identities.add(tuple(lam))
    assert identities == {(n,) for n in range(1, 9)} | {(1,) * n for n in range(2, 9)}
    frames = {True: 0, False: 0}
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            for size in range(1, n + 1):
                for members in itertools.combinations(range(1, n + 1), size):
                    if not restriction_compatible(lam, members):
                        continue
                    columns = [tuple(p for p in c if p in members) for c in column_cells(lam)]
                    frames[assert_consecutive_frame(tableaux._frame(columns, n), columns, n)] += 1
    assert frames == {True: 91, False: 354}, frames


def cancelling_groups(x, groups, signed):
    """The positions, in ascending length (ties in the given order), of the
    groups of more than one cell in which two cells of x share a color that
    cancels the block sum: 1 or 2 for the plain sum, 0 or 3 for the signed."""
    ordered = sorted((cells for cells in groups if len(cells) > 1), key=len)
    colors = (0, 3) if signed else (1, 2)
    return [
        i
        for i, cells in enumerate(ordered)
        if any([x.color(p) for p in cells].count(c) > 1 for c in colors)
    ]


def planted_vectors(rng, n, groups, signed):
    """One vector per group after the first in ascending length: random terms
    of one (n, k, l) space plus a planted term with two cells of a cancelling
    color in that group and only non-cancelling colors in the other groups."""
    ordered = sorted((cells for cells in groups if len(cells) > 1), key=len)
    cancel, bulk = ((0, 3), (1, 2)) if signed else ((1, 2), (0, 3))
    vectors = []
    for j in range(1, len(ordered)):
        colors = rng.choices((0, 1, 2, 3), k=n)
        for cells in ordered:
            for p in cells:
                colors[p - 1] = rng.choice(bulk)
        a, b = rng.sample(ordered[j], 2)
        colors[a - 1] = colors[b - 1] = rng.choice(cancel)
        x = Coloring(colors)
        assert cancelling_groups(x, groups, signed) == [j]
        space = list(enumerate_colorings(n, x.k, x.l))
        terms = {y: rng.choice((-2, -1, 1, 2)) for y in rng.sample(space, min(8, len(space)))}
        terms[x] = 3
        vectors.append(TensorVector(n, x.k, x.l, terms))
    return vectors


def literal_group_sums(w, groups, signed):
    """The literal sum over each group's permutations, one group after another."""
    for cells in groups:
        w = brute_block_sum(w, cells, signed)
    return w


def test_annihilated_terms_dropped_matches_brute_force():
    # every lambda of n <= 6 and the restricted cases of the multi-term test,
    # on random vectors and on vectors holding a term that only a block after
    # the first (in ascending length) annihilates, for the plain row sums and
    # the signed column sums: each stage against the literal group sums, and
    # the whole symmetrizer against the literal double sums
    rng = random.Random(71)
    cases = [(lam, None) for n in range(1, 7) for lam in enumerate_partitions(n)]
    cases += [
        (Partition(lam), members)
        for lam, members in (
            ((3, 2, 1), (1, 2, 4, 6)),
            ((3, 2, 1), (1, 4, 6)),
            ((3, 3, 1), (1, 2, 4, 5, 7)),
            ((4, 2, 1, 1), (1, 2, 5, 7, 8)),
        )
    ]
    planted = {False: 0, True: 0}
    reached = 0
    for lam, members in cases:
        n = lam.n
        if members is None:
            rows, columns = row_cells(lam), column_cells(lam)
        else:
            chosen = set(members)
            rows, columns = (
                [tuple(p for p in cells if p in chosen) for cells in group]
                for group in (row_cells(lam), column_cells(lam))
            )
        vectors = [random_vector(rng, n, rng.randint(1, 10))]
        for signed, groups in ((False, rows), (True, columns)):
            extra = planted_vectors(rng, n, groups, signed)
            planted[signed] += len(extra)
            vectors += extra
            for w in vectors:
                if signed:
                    frame = tableaux._frame(groups, n)
                    got = tableaux._apply_columns(w, tableaux._blocks(groups), frame)
                else:
                    got = tableaux._apply_blocks(w, tableaux._blocks(groups), signed)
                assert got == literal_group_sums(w, groups, signed), (tuple(lam), members, w)
        for w in vectors:
            if members is None:
                assert apply_symmetrizer(w, lam) == brute_symmetrizer(w, lam), (tuple(lam), w)
                # the column sums' own input holds terms only a later column kills
                for y in apply_row_symmetrizer(w, lam).terms:
                    killers = cancelling_groups(y, columns, True)
                    reached += bool(killers) and 0 not in killers
            else:
                got = apply_restricted_symmetrizer(w, lam, members)
                assert got == brute_restricted_symmetrizer(w, lam, members), (tuple(lam), w)
    assert planted == {False: 10, True: 10} and reached > 100, (planted, reached)


def orbit_key(x, groups, signed):
    """x with the colors of each group sorted, or None when a group holds two
    cells of a color that cancels its sum."""
    if cancelling_groups(x, groups, signed):
        return None
    colors = list(x)
    for cells in groups:
        for p, c in zip(cells, sorted(x.color(p) for p in cells)):
            colors[p - 1] = c
    return tuple(colors)


def orbit_vector(rng, n, group, signed):
    """Random terms of one (n, k, l) space plus members of two orbits of the
    permutation group ``group``: x and x.t at coefficients whose images under
    the group's sum B cancel, since w_x t = e w_{x.t} (``action_sign``) and
    t B = B, times sgn(t) when ``signed``, so (w_x - f w_{x.t}) B = 0 for
    f = e sgn(t); and x' and x'.t' at coefficients that do not cancel."""
    x = Coloring(rng.choices((0, 1, 2, 3), k=n))
    space = list(enumerate_colorings(n, x.k, x.l))
    terms = {y: rng.choice((-2, -1, 1, 2)) for y in rng.sample(space, min(4, len(space)))}
    for cancel in (True, False):
        for _ in range(20):
            x, t = rng.choice(space), rng.choice(group)
            if x.act(t) != x:
                break
        else:
            continue  # the group moves no coloring of this space
        f = action_sign(x, t) * (t.sign() if signed else 1)
        c = rng.choice((1, 2, 3))
        terms[x], terms[x.act(t)] = c, -c * f if cancel else 2 * c * f
    return TensorVector(n, x.k, x.l, terms)


def test_orbit_sums_cancel_as_the_literal_sums():
    # vectors holding members of one row orbit or one column orbit whose
    # coefficients cancel under the group's sum, and members that do not:
    # both halves and the whole symmetrizer of every lambda of n <= 5 and of
    # (3,2,1) and (3,3,1), and the restricted symmetrizers of the
    # multi-term test, against the literal sums; the orbit sums of the
    # planted vectors cancel on some orbits, for rows and columns and for
    # full and restricted blocks alike
    rng = random.Random(83)
    cases = [(lam, None) for n in range(2, 6) for lam in enumerate_partitions(n)]
    cases += [(Partition(lam), None) for lam in ((3, 2, 1), (3, 3, 1))]
    cases += [
        (Partition(lam), members)
        for lam, members in (
            ((3, 2, 1), (1, 2, 4, 6)),
            ((3, 2, 1), (1, 4, 6)),
            ((3, 3, 1), (1, 2, 4, 5, 7)),
            ((4, 2, 1, 1), (1, 2, 5, 7, 8)),
        )
    ]
    cancelled = {}
    for lam, members in cases:
        n = lam.n
        chosen = set(range(1, n + 1) if members is None else members)
        rows, columns = (
            [tuple(p for p in cells if p in chosen) for cells in group]
            for group in (row_cells(lam), column_cells(lam))
        )
        for signed, groups in ((False, rows), (True, columns)):
            group = block_group(n, groups)
            if len(group) == 1:
                continue
            for _ in range(3):
                w = orbit_vector(rng, n, group, signed)
                if members is None:
                    half = apply_column_antisymmetrizer if signed else apply_row_symmetrizer
                    assert half(w, lam) == literal_group_sums(w, groups, signed), (tuple(lam), w)
                    assert apply_symmetrizer(w, lam) == brute_symmetrizer(w, lam), (tuple(lam), w)
                else:
                    got = apply_restricted_symmetrizer(w, lam, members)
                    assert got == brute_restricted_symmetrizer(w, lam, members), (tuple(lam), w)
                orbits = {orbit_key(y, groups, signed) for y in w.terms} - {None}
                sums = tableaux._orbit_sums(w.packed, tableaux._blocks(groups), signed)
                key = (signed, members is None)
                cancelled[key] = cancelled.get(key, 0) + len(orbits) - len(sums)
    assert len(cancelled) == 4 and all(cancelled.values()), cancelled


def test_column_sums_receive_no_annihilated_terms(monkeypatch):
    # 28 of the 36 row-sum terms of this coloring are annihilated only by the
    # long column (1, 4, 7, 8), which runs last, and 4 by the first column;
    # none of them may reach any column block sum, which receives the terms
    # in the column reading, where that column is (1, 2, 3, 4)
    lam = Partition((3, 3, 1, 1))
    x = Coloring((0, 1, 2, 0, 1, 3, 0, 3))
    columns = column_cells(lam)
    between = apply_row_symmetrizer(TensorVector.basis(x), lam)
    killed = [cancelling_groups(y, columns, True) for y in between.terms]
    assert len(killed) == 36
    assert sum(1 for s in killed if s and 0 not in s) == 28
    assert sum(1 for s in killed if 0 in s) == 4
    seen = []
    block_sum = tableaux._apply_block_sum

    def recorded(terms, block, signed):
        seen.append((dict(terms), block, signed))
        return block_sum(terms, block, signed)

    monkeypatch.setattr(tableaux, "_apply_block_sum", recorded)
    image = apply_symmetrizer(TensorVector.basis(x), lam)
    assert len(image.packed) == 288
    column_inputs = [terms for terms, _, signed in seen if signed]
    assert len(column_inputs) == 3 and column_inputs[0]
    assert read_columns(lam) == [(1, 2, 3, 4), (5, 6), (7, 8)]
    for terms in column_inputs:
        for p in terms:
            y = Coloring(p >> 2 * i & 3 for i in range(lam.n))
            assert cancelling_groups(y, read_columns(lam), True) == [], tuple(y)

    # no block sum at all, row or column, receives a term its block
    # annihilates: every full and every restricted symmetrizer of each lambda
    # of n <= 6, single-block factors included (the row of (n), the column of
    # (1^n), the first row and column of each hook), though the orbit sums
    # of lone blocks, the columns taken as they lie, receive many such terms
    def cells(block):
        return [tuple(t // 2 + 1 for t in block[0])]

    inputs = []
    orbit_sums = tableaux._orbit_sums

    def watched(terms, blocks, signed):
        if len(blocks) == 1:
            inputs.append((dict(terms), cells(blocks[0]), signed, n))
        return orbit_sums(terms, blocks, signed)

    monkeypatch.setattr(tableaux, "_orbit_sums", watched)
    rng = random.Random(79)
    calls = 0
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            seen.clear()
            vectors = [random_vector(rng, n, rng.randint(1, 12)) for _ in range(4)]
            vectors += [TensorVector.basis(x) for x in sweep_colorings(lam)][:20]
            for w in vectors:
                apply_symmetrizer(w, lam)
            for size in range(2, n + 1):
                for members in itertools.combinations(range(1, n + 1), size):
                    if restriction_compatible(lam, members):
                        apply_restricted_symmetrizer(rng.choice(vectors), lam, members)
            for terms, block, signed in seen:
                for p in terms:
                    y = tableaux._unpack(p, n)
                    assert cancelling_groups(y, cells(block), signed) == [], (tuple(lam), y)
            calls += len(seen)
    lone = [
        sum(bool(cancelling_groups(tableaux._unpack(p, n), group, signed)) for p in terms)
        for terms, group, signed, n in inputs
    ]
    assert calls > 2_000 and sum(lone) > 900 and sum(map(bool, lone)) > 400, (
        calls,
        sum(lone),
        sum(map(bool, lone)),
    )


def arrangements(colors):
    """The number of distinct arrangements of the multiset ``colors``."""
    return math.factorial(len(colors)) // math.prod(
        math.factorial(colors.count(c)) for c in range(4)
    )


def test_block_sums_write_each_image_once():
    # every row block and every relabelled column block of each lambda with
    # 2 <= n <= 7 receives seeded multi-term inputs: a random coloring x with
    # colors 0 and 3 on the block's first two cells and colors that do not
    # cancel on the others, five random colorings of its space, and every
    # coloring of the space that agrees with x outside the block and has its
    # block colors sorted (such as 0, 3 and 1, 2: different multisets on the
    # same other cells), summed per orbit of the block; each block sum's
    # output then holds exactly as many entries as its terms' transfers hold
    # arrangements in total, so no image is written twice
    rng = random.Random(97)
    fill = ((0, 3), (1, 2))  # block colors that repeat without cancelling
    spaces = {}
    counts = {"blocks": 0, "multi": 0, "shared": 0, "images": 0}
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            _, _, _, rows, _, _, (_, _, columns) = tableaux._tableau(lam)
            for signed, blocks in ((False, rows), (True, columns)):
                for block in blocks:
                    shifts, mask = block[:2]
                    colors = rng.choices(range(4), k=n)
                    for j, t in enumerate(shifts):
                        colors[t // 2] = (0, 3)[j] if j < 2 else rng.choice(fill[signed])
                    x = Coloring(colors)
                    key = (n, x.k, x.l)
                    if key not in spaces:
                        spaces[key] = [(y, tableaux._pack(y)) for y in enumerate_colorings(*key)]
                    space = spaces[key]
                    picked = [x] + [y for y, _ in rng.sample(space, min(5, len(space)))]
                    rest = tableaux._pack(x) & ~mask
                    for y, p in space:
                        block_colors = [p >> t & 3 for t in shifts]
                        if p & ~mask == rest and block_colors == sorted(block_colors):
                            picked.append(y)
                    # signed distinct powers of two: no orbit sum cancels
                    picked = dict.fromkeys(picked)
                    w = TensorVector(
                        n, x.k, x.l, {y: rng.choice((-1, 1)) << i for i, y in enumerate(picked)}
                    )
                    terms = tableaux._orbit_sums(w.packed, (block,), signed)
                    out = tableaux._apply_block_sum(terms, block, signed)
                    total = sum(arrangements([p >> t & 3 for t in shifts]) for p in terms)
                    assert len(out) == total, (tuple(lam), signed, block)
                    rests = [p & ~mask for p in terms]
                    counts["blocks"] += 1
                    counts["multi"] += len(terms) > 1
                    counts["shared"] += len(set(rests)) < len(rests)
                    counts["images"] += total
    assert counts == {"blocks": 112, "multi": 112, "shared": 112, "images": 4066}, counts


def test_block_sum_rejects_an_annihilated_term():
    # the invariant guards of _multiset, called directly on a row block
    # holding two cells of color 1 and on one holding its colors unsorted;
    # not asserts, so they hold under -O
    block = tableaux._block((1, 2, 3))
    for x, refused in (((1, 0, 1, 2), "annihilated"), ((1, 0, 3, 2), "unsorted")):
        with pytest.raises(RuntimeError, match=refused):
            tableaux._apply_block_sum(TensorVector.basis(x).packed, block, False)


def test_block_sum_rejects_a_block_with_gaps():
    # the kernel sums over consecutive cells only; the columns reach it
    # relabelled, and a block with gaps raises, even with no terms, under -O
    # too (an if, not an assert)
    for cells in ((1, 3), (1, 4, 6), (2, 5), (1, 2, 4)):
        block = tableaux._block(cells)
        for terms in ({}, TensorVector.basis((0, 1, 2, 3, 0, 3)).packed):
            for signed in (False, True):
                with pytest.raises(RuntimeError, match=r"block with gaps: cells \["):
                    tableaux._apply_block_sum(terms, block, signed)


def test_blocks_run_shortest_first():
    # the row and the column blocks of every shape of n <= 8, ascending in
    # length, and exactly the blocks of the rows and columns of two or more
    # cells
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            geometry = tableaux._tableau(lam)
            for blocks, groups in ((geometry[3], row_cells(lam)), (geometry[4], column_cells(lam))):
                lengths = [len(shifts) for shifts, _, _, _ in blocks]
                assert lengths == sorted(lengths), (tuple(lam), lengths)
                want = [tableaux._block(cells) for cells in groups if len(cells) > 1]
                assert sorted(blocks) == sorted(want), tuple(lam)


def test_symmetrizer_commutes_with_tensor_swap_exhaustive():
    # the one-sided skew-symmetry check rests on this equivariance
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            images = {
                x: apply_symmetrizer(TensorVector.basis(x), lam) for x in all_colorings(n)
            }
            for x, image in images.items():
                assert images[x.swap_colors()] == tensor_swap(image), (tuple(lam), tuple(x))


# ---------------------------------------------------------------------------
# the process-wide multiset cache


def stored_multiset(ordered, signed):
    """The ``_multiset`` entry of ``ordered``, asserted to be read from the
    cache, not built by this call."""
    misses = tableaux._multiset.cache_info().misses
    entry = tableaux._multiset(ordered, signed)
    assert tableaux._multiset.cache_info().misses == misses, (ordered, signed)
    return entry


def span_colorings(n, cells):
    """Every coloring of [n] blank outside the span of ``cells``: cells
    outside the span change neither the key nor the transfer."""
    left, right = (0,) * (cells[0] - 1), (0,) * (n - cells[-1])
    for middle in itertools.product((0, 1, 2, 3), repeat=cells[-1] - cells[0] + 1):
        yield Coloring(left + middle + right)


def test_block_sum_matches_literal_sum():
    # each row and column block of every full and restricted symmetrizer
    # against the literal sum over the block's permutations: exhaustively on
    # the span for n <= 4, on every coloring of [5] for the gapless blocks of
    # n = 5 with cells on both sides (the OR with kept cells at both ends),
    # on a seeded sample of colorings of [n] for n = 5, 6
    tableaux._multiset.cache_clear()
    checks = 0
    for n in range(2, 5):
        for cells, signed in brute_blocks(n):
            for x in span_colorings(n, cells):
                w = TensorVector.basis(x)
                got = block_sum(w, cells, signed)
                assert got == brute_block_sum(w, cells, signed), (cells, signed, tuple(x))
                checks += 1
    assert checks == 1952
    inside = [
        (cells, signed)
        for cells, signed in brute_blocks(5)
        if 1 < cells[0] and cells[-1] < 5 and cells[-1] - cells[0] == len(cells) - 1
    ]
    assert ((3, 4), False) in inside  # row (3, 4) of (2, 2, 1)
    for cells, signed in inside:
        for x in all_colorings(5):
            w = TensorVector.basis(x)
            got = block_sum(w, cells, signed)
            assert got == brute_block_sum(w, cells, signed), (cells, signed, tuple(x))
    rng = random.Random(61)
    for n, count in ((5, 1000), (6, 500)):
        blocks = brute_blocks(n)
        for _ in range(count):
            cells, signed = rng.choice(blocks)
            w = TensorVector.basis(Coloring(rng.choices((0, 1, 2, 3), k=n)))
            got = block_sum(w, cells, signed)
            assert got == brute_block_sum(w, cells, signed), (cells, signed, w)


def block_key(x, cells):
    """(colors, inner, xors) of a term x under the block ``cells``: the block's
    colors, the positions i of its inner gaps (cells i and i+1 not adjacent),
    and per gap the XOR of the colors of the fixed cells in it."""
    inner = tuple(i for i in range(len(cells) - 1) if cells[i + 1] - cells[i] > 1)
    xors = tuple(
        functools.reduce(operator.xor, (x.color(p) for p in range(cells[i] + 1, cells[i + 1])))
        for i in inner
    )
    return tuple(x.color(p) for p in cells), inner, xors


def block_keys(n_max):
    """Every (key, signed) of the blocks of apply_symmetrizer (all cells
    selected) and of apply_restricted_symmetrizer (every sub-diagram) for each
    lambda of n <= n_max, each fed every coloring of [n] blank outside the
    block's span."""
    return {
        (block_key(x, cells), signed)
        for n in range(2, n_max + 1)
        for cells, signed in brute_blocks(n)
        for x in span_colorings(n, cells)
    }


def kernel_transfer(colors, inner, xors, signed):
    """The kernel's transfer of the ``brute_transfer`` key (colors, inner,
    xors), in that format: the block laid out from cell 1, with one fixed
    cell per inner gap colored by that gap's XOR, the one term put through
    ``block_sum`` (relabelled to consecutive cells when the block has gaps)
    and its image read back off the block's cells into (arrangements in
    lexicographic order, base, mask), bit i of mask set when arrangement i
    carries -base; None when the image is 0."""
    cells, layout = [], []
    for i, c in enumerate(colors):
        layout.append(c)
        cells.append(len(layout))
        if i in inner:
            layout.append(xors[inner.index(i)])
    image = block_sum(TensorVector.basis(layout), tuple(cells), signed)
    if image.is_zero():
        return None
    odd = {}
    for y, c in image.terms.items():
        assert [y.color(p) for p in range(1, len(layout) + 1) if p not in cells] == list(xors)
        odd[tuple(y.color(p) for p in cells)] = c
    (base,) = {abs(c) for c in odd.values()}
    arrangements = tuple(sorted(odd))
    return arrangements, base, sum((odd[a] < 0) << i for i, a in enumerate(arrangements))


def test_cached_transfers_equal_fresh_transfers(monkeypatch):
    tableaux._multiset.cache_clear()
    keys = block_keys(6)
    # every block the symmetrizers hand the kernel is consecutive, and its
    # colors are those of a gapless key among those of the blocks of n <= 6
    gapless = {(key[0], signed) for key, signed in keys if not key[1]}
    reached = set()
    block_sum_kernel = tableaux._apply_block_sum

    def watched(terms, block, signed):
        shifts, _, inner, _ = block
        assert not inner, shifts
        reached.update((tuple(x >> t & 3 for t in shifts), signed) for x in terms)
        return block_sum_kernel(terms, block, signed)

    monkeypatch.setattr(tableaux, "_apply_block_sum", watched)
    rng = random.Random(59)
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            for _ in range(20):
                w = TensorVector.basis(Coloring(rng.choices((0, 1, 2, 3), k=n)))
                apply_symmetrizer(w, lam)
                members = rng.sample(range(1, n + 1), rng.randint(2, n))
                if restriction_compatible(lam, members):
                    apply_restricted_symmetrizer(w, lam, members)
    monkeypatch.setattr(tableaux, "_apply_block_sum", block_sum_kernel)
    assert reached and reached <= gapless

    # each key's term, sorted or not, gapped or not, through the kernel
    # against the full recursion; a sorted gapless key's entry holds its
    # signs, which a gapped key's fixed cells change
    checked = cancelled = sorted_keys = 0
    for key, signed in keys:
        want = brute_transfer(*key, signed)
        assert kernel_transfer(*key, signed) == want, (signed, key)
        if want is None:
            cancelled += 1
            continue
        checked += 1
        if list(key[0]) == sorted(key[0]) and not key[1]:
            arrangements, base, mask = want
            packed = [tableaux._pack(a) for a in arrangements]
            entry = stored_multiset(key[0], signed)
            assert entry == (
                base,
                tuple(y for i, y in enumerate(packed) if not mask >> i & 1),
                tuple(y for i, y in enumerate(packed) if mask >> i & 1),
            ), (signed, key)
            sorted_keys += 1
    # the 1,760 sorted keys and the 15,596 unsorted ones that do not cancel;
    # the gapless sorted ones are the 160 valid multisets of length 2..6
    assert (checked, cancelled, sorted_keys) == (17_356, 26_900, 160)


def test_multiset_table_retention_is_bounded():
    # every block of n <= 6, fed each coloring blank outside its span as its
    # own basis vector (in one vector of a whole span the orbit sums would
    # cancel), twice: the cache keeps one entry per sorted multiset and
    # signed that no block annihilates, 4r of each length r = 1..6 and the
    # empty one, each signed, and a second pass adds none
    tableaux._multiset.cache_clear()
    vectors = [
        (TensorVector.basis(x), cells, signed)
        for n in range(2, 7)
        for cells, signed in brute_blocks(n)
        for x in span_colorings(n, cells)
    ]
    for w, cells, signed in vectors:
        block_sum(w, cells, signed)
    size = tableaux._multiset.cache_info().currsize
    assert size == 2 * (1 + sum(4 * r for r in range(1, 7))) == 170
    for signed in (False, True):
        for ordered in valid_multisets(range(7), signed):
            stored_multiset(ordered, signed)
    for w, cells, signed in vectors:
        block_sum(w, cells, signed)
    assert tableaux._multiset.cache_info().currsize == size


def valid_multisets(lengths, signed):
    """Every sorted color multiset of the given lengths with at most one cell
    of each color whose two cells would cancel the block sum ``signed``."""
    cancel = (0, 3) if signed else (1, 2)
    return [
        ordered
        for r in lengths
        for ordered in itertools.combinations_with_replacement((0, 1, 2, 3), r)
        if all(ordered.count(c) < 2 for c in cancel)
    ]


def test_multiset_entries_equal_recursion():
    # every valid multiset of length 2..9, each built from an empty cache out
    # of its one-cell-smaller entries, against the per-slot recursion of the
    # oracle: base, and the packed even and odd lists split by its mask
    cases = arrangements_seen = 0
    for signed in (False, True):
        for ordered in valid_multisets(range(2, 10), signed):
            tableaux._multiset.cache_clear()
            base, plus, minus = tableaux._multiset(ordered, signed)
            arrangements, want, mask = brute_transfer(ordered, (), (), signed)
            assert base == want, ordered
            packed = [sum(c << 2 * j for j, c in enumerate(a)) for a in arrangements]
            odd = [mask >> i & 1 for i in range(len(arrangements))]
            assert plus == tuple(y for y, o in zip(packed, odd) if not o), ordered
            assert minus == tuple(y for y, o in zip(packed, odd) if o), ordered
            cases += 1
            arrangements_seen += len(plus) + len(minus)
    assert cases == 2 * sum(4 * r for r in range(2, 10)) == 352
    assert arrangements_seen > 20_000, arrangements_seen


def sub_multisets(ordered):
    """Every sorted sub-multiset of ``ordered``, the empty one included."""
    return {sub for r in range(len(ordered) + 1) for sub in itertools.combinations(ordered, r)}


def test_multiset_table_fills_from_smaller_entries():
    # one length-7 row entry and one length-7 column entry, built through the
    # kernel from an empty cache, store exactly their sub-multisets, none of
    # which a block annihilates; each stored entry equals a fresh build in
    # another empty cache
    tableaux._multiset.cache_clear()
    built = [((0, 0, 1, 2, 3, 3, 3), False), ((0, 1, 1, 1, 2, 2, 3), True)]
    block = tableaux._block(tuple(range(1, 8)))
    for ordered, signed in built:
        tableaux._apply_block_sum({tableaux._pack(ordered): 1}, block, signed)
    want = {(sub, signed) for ordered, signed in built for sub in sub_multisets(ordered)}
    # each has (2 + 1) * (1 + 1) * (1 + 1) * (3 + 1) = 48 sub-multisets
    # (color counts 2, 1, 1, 3 and 1, 3, 2, 1)
    assert len(want) == tableaux._multiset.cache_info().currsize == 2 * 48
    for colors, signed in want:
        assert colors in valid_multisets([len(colors)], signed)
    entries = {key: stored_multiset(*key) for key in want}
    # a cancelling multiset whose valid one-cell-smaller multiset is stored:
    # the guard raises before any lookup, and the cache is left unchanged
    with pytest.raises(RuntimeError, match="annihilated"):
        tableaux._multiset((0, 0, 1, 1, 2, 3, 3), False)
    with pytest.raises(RuntimeError, match="annihilated"):
        tableaux._multiset((0, 1, 1, 2, 2, 3, 3), True)
    assert tableaux._multiset.cache_info().currsize == 2 * 48
    for key, entry in entries.items():
        tableaux._multiset.cache_clear()
        assert tableaux._multiset(*key) == entry, key


GUARD_SCRIPT = """
import hooksq.tableaux as tableaux

print("debug", __debug__)
for ordered, refused, signed in (
    ((0, 0, 1, 2, 3, 3, 3), (0, 0, 1, 1, 2, 3, 3), False),
    ((0, 1, 1, 1, 2, 2, 3), (0, 1, 1, 2, 2, 3, 3), True),
    ((0, 0, 1, 2, 3, 3, 3), (0, 0, 1, 3, 2, 3, 3), False),
):
    tableaux._multiset(ordered, signed)
    try:
        tableaux._multiset(refused, signed)
    except RuntimeError as error:
        print("raised", str(error).split(":")[0])
    else:
        print("passed")
try:
    tableaux._apply_block_sum({1: 1}, tableaux._block((1, 3)), True)
except RuntimeError as error:
    print("raised", str(error).split(":")[0])
else:
    print("passed")
"""


def test_multiset_guard_survives_python_O():
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
    assert proc.stdout.split("\n")[:5] == [
        "debug False",
        "raised block sum received an annihilated term",
        "raised block sum received an annihilated term",
        "raised block sum received an unsorted term",
        "raised block sum received a block with gaps",
    ]


def test_derived_transfers_equal_recursion_r7():
    # the (7) row blocks of the n = 7 hooks, and gapped keys of the same
    # length, beyond the n <= 6 blocks above, the gapped ones relabelled to
    # consecutive cells: a seeded sample of sorted colorings whose stabilizer
    # sum does not cancel (at most one cell of each color that would cancel
    # it), each against the full per-key recursion
    tableaux._multiset.cache_clear()
    rng = random.Random(67)
    patterns = [()] + [tuple(sorted(rng.sample(range(6), rng.randint(1, 6)))) for _ in range(7)]
    for inner in patterns:
        for signed in (False, True):
            bulk, single = ((1, 2), (0, 3)) if signed else ((0, 3), (1, 2))
            for _ in range(100):
                colors = rng.choices(bulk, k=7)
                for c, p in zip(single, rng.sample(range(7), 2)):
                    if rng.random() < 0.7:
                        colors[p] = c
                colors = tuple(sorted(colors))
                xors = tuple(rng.randrange(4) for _ in inner)
                want = brute_transfer(colors, inner, xors, signed)
                assert want is not None
                assert kernel_transfer(colors, inner, xors, signed) == want, (colors, inner, xors)
    assert tableaux._multiset.cache_info().currsize > 20


def test_gapless_transfers_equal_literal_sum_r7():
    # every sorted 7-multiset whose plain or signed sum does not cancel, in a
    # seeded order on cells 2..8 of [9] (a nonzero shift) between fixed cells
    # of colors 1, 2 and 3, against the literal sum over the 5,040
    # permutations of the block; the terms of one (k, l) space share one
    # vector, whose images are disjoint since their block multisets differ.
    # The orbit sums flip the sign of each term whose order of colors is
    # odd, and a sorted term's image at shift 0 is the entry's own plus and
    # minus lists at +base and -base
    tableaux._multiset.cache_clear()
    rng = random.Random(73)
    cells = tuple(range(2, 9))
    block = tableaux._block(cells)
    first = tableaux._block(tuple(range(1, 8)))
    frames = list(itertools.product((1, 2, 3), repeat=2))
    spaces = {}
    cases = 0
    for signed in (False, True):
        cancel = (0, 3) if signed else (1, 2)
        for ordered in itertools.combinations_with_replacement((0, 1, 2, 3), 7):
            if any(ordered.count(c) >= 2 for c in cancel):
                continue
            colors = list(ordered)
            rng.shuffle(colors)
            left, right = frames[cases % len(frames)]
            x = Coloring((left, *colors, right))
            spaces.setdefault((signed, x.k, x.l), {})[x] = rng.choice((-2, -1, 1, 3))
            cases += 1
    assert cases == 56 and len(spaces) == 40
    flipped = 0
    for (signed, k, l), terms in spaces.items():
        w = TensorVector(9, k, l, terms)
        assert block_sum(w, cells, signed) == brute_block_sum(w, cells, signed), (signed, w)
        for x in terms:
            y = tableaux._pack(x)
            flipped += tableaux._block_sort(y & block[1], block, signed)[1]
            colors = tuple(sorted(x[1:8]))
            base, plus, minus = stored_multiset(colors, signed)
            got = tableaux._apply_block_sum({tableaux._pack(colors): 1}, first, signed)
            assert got == {**{a: base for a in plus}, **{a: -base for a in minus}}, colors
    assert 10 < flipped < 46, flipped


def test_sweep_images_independent_of_item_order():
    # the multiset cache fills in a different order in the two runs; neither
    # the images nor the order of their terms may depend on it
    tableaux._multiset.cache_clear()
    items = [(lam, x) for lam in ((2, 2, 1, 1), (3, 1, 1, 1), (4, 2)) for x in sweep_colorings(lam)]
    forward = [apply_symmetrizer(TensorVector.basis(x), lam) for lam, x in items]
    order = list(range(len(items)))
    random.Random(53).shuffle(order)
    shuffled = {}
    for i in order:
        lam, x = items[i]
        shuffled[i] = apply_symmetrizer(TensorVector.basis(x), lam)
    assert any(not image.is_zero() for image in forward)
    for i, image in enumerate(forward):
        assert list(shuffled[i].terms.items()) == list(image.terms.items()), items[i]
