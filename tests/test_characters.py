import contextlib
import io
import math
import random

import pytest

import hooksq.characters as characters
from hooksq import (
    ClassFunction,
    IntegrityError,
    MultiplicityTable,
    Partition,
    class_size,
    decompose_oracle,
    dimension,
    enumerate_partitions,
    full_table,
    hook_rep_character,
    inner_product,
    irreducible_character,
    mn_character,
    power_square,
    restrict_character,
    square_characters,
    transpose,
)
from hooksq.cli import main
from hooksq.partitions import hook_partition
from oracles import TABLE_8_2, brute_class_sizes, brute_mn


def test_mn_character_examples():
    for ct in enumerate_partitions(6):
        assert mn_character((6,), ct) == 1
    assert mn_character((1, 1, 1), (2, 1)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_mn_character_argument_errors():
    with pytest.raises(ValueError):
        mn_character((3, 1), (3,))


@pytest.mark.parametrize("n", range(1, 17))
def test_dimension_column_matches_hook_formula(n):
    ident = Partition((1,) * n)
    for lam in enumerate_partitions(n):
        assert mn_character(lam, ident) == dimension(lam)


@pytest.mark.parametrize("n", range(1, 13))
def test_sign_character_values(n):
    sign_row = Partition((1,) * n)
    for ct in enumerate_partitions(n):
        parity = sum(c - 1 for c in ct) % 2
        assert mn_character(sign_row, ct) == (-1) ** parity


@pytest.mark.parametrize("n", range(2, 13))
def test_standard_character_counts_fixed_points(n):
    lam = Partition((n - 1, 1))
    for ct in enumerate_partitions(n):
        fixed = sum(1 for c in ct if c == 1)
        assert mn_character(lam, ct) == fixed - 1


@pytest.mark.parametrize("n", range(0, 13))
def test_bead_mask_rule_equals_tuple_recursion(n):
    for lam in enumerate_partitions(n):
        row = irreducible_character(lam)
        for ct in enumerate_partitions(n):
            expected = brute_mn(tuple(lam), tuple(ct))
            assert mn_character(lam, ct) == expected
            assert row[ct] == expected


@pytest.mark.parametrize("n", range(15, 21))
def test_rows_equal_tuple_recursion_up_to_the_cap(n):
    # the tuple recursion stays cheap on classes of at most 3 cycles, so a
    # seeded sample of shapes is pinned there up to n = MAX_N
    shapes = random.Random(n).sample(enumerate_partitions(n), 10)
    classes = [ct for ct in enumerate_partitions(n) if len(ct) <= 3]
    for lam in shapes:
        row = irreducible_character(lam)
        for ct in classes:
            expected = brute_mn(tuple(lam), tuple(ct))
            assert mn_character(lam, ct) == expected
            assert row[ct] == expected


def test_rows_are_computed_on_demand():
    # a one-row shape only ever strips down to smaller one-row shapes, so
    # its row must not pull in the rows of other shapes
    characters.irreducible_character.cache_clear()
    characters._row.cache_clear()
    irreducible_character(Partition((20,)))
    assert characters._row.cache_info().currsize <= 21


def sign_of_class(n, ct):
    return (-1) ** (n - len(ct))


@pytest.mark.parametrize("n", range(0, 21))
def test_conjugate_row_is_sign_times_row(n):
    # the oracle reads one row per conjugate pair and takes the other from
    # chi^lam' = sgn * chi^lam; every shape up to 14, a seeded sample above
    shapes = enumerate_partitions(n)
    if n > 14:
        shapes = random.Random(n).sample(shapes, 10)
    signs = [sign_of_class(n, ct) for ct in enumerate_partitions(n)]
    for lam in shapes:
        row = irreducible_character(lam).vector
        conjugate = irreducible_character(transpose(lam)).vector
        assert conjugate == tuple(s * v for s, v in zip(signs, row))


@pytest.fixture
def fresh_packs():
    """Empty the oracle's per-n pair rows and packs before the test and again
    after it, so a row patched in by the test is the one packed and is not
    packed for any later test."""
    characters._pair_rows.cache_clear()
    characters._packs.cache_clear()
    yield
    characters._pair_rows.cache_clear()
    characters._packs.cache_clear()


def test_oracle_reads_one_row_per_conjugate_pair(monkeypatch, fresh_packs):
    # p(14) = 135 with 3 self-conjugate shapes: (135 + 3) / 2 = 69 rows. The
    # first table of n = 14 reads each of them once, after the hook's own
    # row for its squares, and packs them; every later k reads only its
    # hook's row, and multiplicities itself reads none. Every lookup goes
    # through the module global, which the bench tracer patches: the
    # cleared cache ends up holding exactly the rows counted.
    characters.irreducible_character.cache_clear()
    real = characters.irreducible_character
    calls = []

    def counted(lam):
        calls.append(Partition(lam))
        return real(lam)

    monkeypatch.setattr(characters, "irreducible_character", counted)
    parts = set(enumerate_partitions(14))
    decompose_oracle(14, 0)
    assert calls[0] == hook_partition(14, 0)
    rows = calls[1:]
    assert len(rows) == len(set(rows)) == 69
    assert set(rows) | {transpose(lam) for lam in rows} == parts
    for k in range(1, 14):
        start = len(calls)
        decompose_oracle(14, k)
        assert calls[start:] == [hook_partition(14, k)]
        sym, ext = square_characters(real(hook_partition(14, k)))
        characters.multiplicities(sym, ext)
        assert len(calls) == start + 1
    # the squares of every hook of n = 14 fit one-word slots: one pack
    assert characters._packs.cache_info().currsize == 1
    assert real.cache_info().currsize == len(set(calls))


@pytest.mark.parametrize("n", range(1, 15))
def test_character_table_orthonormality(n):
    chars = [irreducible_character(lam) for lam in enumerate_partitions(n)]
    for i, chi in enumerate(chars):
        for j, other in enumerate(chars):
            assert inner_product(chi, other) == (1 if i == j else 0)


def test_hook_rep_character_ends():
    n = 6
    trivial = hook_rep_character(n, 0)
    assert all(v == 1 for v in trivial.values.values())
    sign = hook_rep_character(n, n - 1)
    assert sign == irreducible_character(Partition((1,) * n))
    assert hook_rep_character(8, 2).dim == 21
    with pytest.raises(ValueError):
        hook_rep_character(6, 6)


def test_square_characters_dimensions_and_sum():
    chi = hook_rep_character(8, 2)
    sym, ext = square_characters(chi)
    assert sym.dim == 231
    assert ext.dim == 210
    assert sym + ext == chi * chi

    trivial = hook_rep_character(5, 0)
    tsym, text = square_characters(trivial)
    assert tsym == trivial
    assert all(v == 0 for v in text.values.values())


def test_square_characters_parity_violation():
    fake = ClassFunction(2, {Partition((2,)): 0, Partition((1, 1)): 1})
    with pytest.raises(IntegrityError):
        square_characters(fake)


def test_inner_product_divisibility_violation():
    fake = ClassFunction(2, {Partition((2,)): 0, Partition((1, 1)): 1})
    with pytest.raises(IntegrityError):
        inner_product(fake, fake)


def test_table1_sym_inner_product():
    sym, _ = square_characters(hook_rep_character(8, 2))
    assert inner_product(irreducible_character(Partition((6, 2))), sym) == 2


def test_class_function_operations():
    chi = hook_rep_character(5, 1)
    assert (chi + chi) == 2 * chi
    assert (chi - chi)[Partition((5,))] == 0
    with pytest.raises(ValueError):
        ClassFunction(3, {Partition((3,)): 1})
    values = {Partition((3,)): 1, Partition((2, 1)): 1, Partition((1, 1, 1)): 1}
    assert ClassFunction(3, values).dim == 1
    with pytest.raises(ValueError):
        ClassFunction(3, {**values, Partition((2, 2)): 1})
    with pytest.raises(ValueError):
        ClassFunction(3, {**values, (1, 2): 1})


def test_class_function_values_view():
    values = {Partition((3,)): 2, Partition((2, 1)): 0, Partition((1, 1, 1)): -1}
    chi = ClassFunction(3, values)
    assert chi.values == values and values == chi.values
    assert chi.values != {**values, Partition((3,)): 5}
    assert chi.vector == (2, 0, -1)
    assert ClassFunction(3, [2, 0, -1]) == chi == ClassFunction(3, chi.values)
    with pytest.raises(ValueError):
        ClassFunction(3, [2, 0])
    for n in range(8):
        view = irreducible_character(Partition((n,) if n else ())).values
        assert len(view) == len(enumerate_partitions(n))
        assert list(view) == list(enumerate_partitions(n))
    with pytest.raises(TypeError):
        chi.values[Partition((3,))] = 5
    with pytest.raises(AttributeError):
        chi.vector = (0, 0, 0)
    assert chi.vector == (2, 0, -1)


def test_cached_character_is_read_only():
    chi = irreducible_character(Partition((3, 1)))
    with pytest.raises(TypeError):
        chi.values[Partition((1, 1, 1, 1))] = 99
    assert chi.dim == 3
    assert decompose_oracle(4, 1).multiplicity((2, 1, 1)) == (1, 0, 1)
    table = decompose_oracle(8, 2)
    for lam in enumerate_partitions(8):
        assert table.multiplicity(lam) == TABLE_8_2.get(tuple(lam), (0, 0, 0))


def test_class_function_copies_its_input():
    values = {Partition((2,)): -1, Partition((1, 1)): 1}
    chi = ClassFunction(2, values)
    values[Partition((2,))] = 5
    assert chi[(2,)] == -1
    assert chi == irreducible_character(Partition((1, 1)))


def test_class_lookup_of_wrong_size():
    chi = irreducible_character(Partition((3, 1)))
    with pytest.raises(ValueError, match=r"class \(2, 1\) is not a partition of n=4"):
        chi[Partition((2, 1))]
    with pytest.raises(ValueError, match="n=4"):
        chi[(5,)]
    assert chi[(2, 2)] == chi[[2, 2]] == chi[Partition((2, 2))] == -1


# ---------------------------------------------------------------------------
# inner_product and square_characters against literal recomputations


def literal_inner_product(n, sizes, chi, psi):
    """(1/n!) * sum of |C| chi(C) psi(C) over a census of the whole group."""
    chi_values, psi_values = chi.values, psi.values
    total = sum(size * chi_values[ct] * psi_values[ct] for ct, size in sizes.items())
    assert total % math.factorial(n) == 0
    return total // math.factorial(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_inner_product_equals_literal_sum(n):
    sizes = brute_class_sizes(n)
    assert set(sizes) == set(enumerate_partitions(n))
    irreducibles = [irreducible_character(lam) for lam in enumerate_partitions(n)]
    squares = [f for k in range(n) for f in square_characters(hook_rep_character(n, k))]
    for chi in irreducibles:
        for psi in irreducibles + squares:
            assert inner_product(chi, psi) == literal_inner_product(n, sizes, chi, psi)


@pytest.mark.parametrize("n", range(1, 11))
def test_square_characters_equal_literal_values(n):
    for lam in enumerate_partitions(n):
        sym, ext = square_characters(irreducible_character(lam))
        for ct in enumerate_partitions(n):
            square = mn_character(lam, ct) ** 2
            twisted = mn_character(lam, power_square(ct))
            assert sym[ct] == (square + twisted) // 2
            assert ext[ct] == (square - twisted) // 2


@pytest.mark.parametrize("n", range(1, 13))
def test_decompose_oracle_equals_literal_table(n):
    # tensor, sym and ext each from their own literal sum: the tensor column
    # is checked against chi^2 itself, not through sym + ext
    sizes = {ct: class_size(ct) for ct in enumerate_partitions(n)}
    for k in range(n):
        chi = hook_rep_character(n, k)
        parts = (chi * chi, *square_characters(chi))
        literal = {
            lam: tuple(
                literal_inner_product(n, sizes, irreducible_character(lam), f) for f in parts
            )
            for lam in enumerate_partitions(n)
        }
        assert decompose_oracle(n, k).rows == literal


def literal_multiplicities(*fs):
    """``inner_product`` of every irreducible character of S_n with each f,
    one row at a time."""
    parts = enumerate_partitions(fs[0].n)
    return tuple(tuple(inner_product(irreducible_character(lam), f) for lam in parts) for f in fs)


@pytest.mark.parametrize("n", range(1, 15))
def test_packed_multiplicities_equal_inner_products(n):
    # both squares of every hook, and their difference, a virtual character
    # whose negative multiplicities land in negative slots
    for k in range(n):
        sym, ext = square_characters(hook_rep_character(n, k))
        fs = (sym, ext, sym - ext)
        assert characters.multiplicities(*fs) == literal_multiplicities(*fs)


@pytest.mark.parametrize("n", range(2, 13))
def test_packed_multiplicities_of_restricted_squares(n):
    # the restricted squares that suite_branching decomposes over S_(n-1)
    for k in range(n):
        parts = [restrict_character(f) for f in square_characters(hook_rep_character(n, k))]
        assert characters.multiplicities(*parts) == literal_multiplicities(*parts)


def test_packed_multiplicities_widen_their_slots(monkeypatch):
    # the slot bound of sym * 10^40 is a 187-bit number and its slots reach
    # 2^170, past two words: it is packed in three, the unscaled sym in one
    real = characters._packs
    widths = []

    def recorded(n, words):
        widths.append(words)
        return real(n, words)

    monkeypatch.setattr(characters, "_packs", recorded)
    sym, _ = square_characters(hook_rep_character(14, 6))
    scaled = sym * 10**40
    (column,) = characters.multiplicities(scaled)
    assert column == literal_multiplicities(scaled)[0]
    assert column == tuple(10**40 * m for m in characters.multiplicities(sym)[0])
    assert widths == [3, 1]


@pytest.mark.parametrize("words", [1, 2, 3])
def test_packed_columns_equal_literal_slot_sums(words):
    # each packed column is the literal sum of its signed slots, and a sum
    # of slots reads back slot by slot; a sum outside the slots is raised,
    # never wrapped into them
    even, odd, pairs, _ = characters._parity_split(8)
    rows = [irreducible_character(lam).vector for lam, _, _ in pairs]
    width = 64 * words
    literal = [sum(row[c] << (width * s) for s, row in enumerate(rows)) for c in range(22)]
    assert characters._packs(8, words) == (even(literal), odd(literal))
    low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    for values in ([low + 1, -1, 0, high, -5], [low] * 5, [high] * 5):
        total = sum(x << (width * s) for s, x in enumerate(values))
        assert list(characters._slots(total, 5, words)) == values
    lowest, highest = (sum(x << (width * s) for s in range(5)) for x in (low, high))
    for outside in (lowest - 1, highest + 1):
        with pytest.raises(IntegrityError, match="exceeds 5 slots"):
            characters._slots(outside, 5, words)


@pytest.mark.parametrize("k", [0, 9])
def test_packed_multiplicities_at_the_cap(k):
    # n = 20: 317 pair rows of 627 classes, in two-word slots
    sym, ext = square_characters(hook_rep_character(20, k))
    assert characters.multiplicities(sym, ext) == literal_multiplicities(sym, ext)


def test_oracle_rejects_a_non_character_row(monkeypatch, fresh_packs):
    # (2,2,1) gains 1 on the identity class: its weighted sym sum grows by
    # dim Sym^2 = 10, which 5! does not divide
    real = characters.irreducible_character
    bad = Partition((2, 2, 1))

    def tampered(lam):
        chi = real(lam)
        return chi + ClassFunction(5, [0] * 6 + [1]) if Partition(lam) == bad else chi

    monkeypatch.setattr(characters, "irreducible_character", tampered)
    with pytest.raises(IntegrityError, match="not divisible by 5!"):
        decompose_oracle(5, 1)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["decompose", "--n", "5", "--k", "1", "--engine", "oracle"])
    assert code == 4 and "integrity error" in err.getvalue()


def test_oracle_rejects_a_self_conjugate_row_off_the_even_classes(monkeypatch, fresh_packs):
    # (2,2) is self-conjugate, so its row must vanish on the odd classes (4)
    # and (2,1,1); one unit on (2,1,1) is raised, never dropped
    real = characters.irreducible_character
    bad = Partition((2, 2))
    odd = ClassFunction(4, {ct: int(ct == (2, 1, 1)) for ct in enumerate_partitions(4)})
    assert sign_of_class(4, (2, 1, 1)) == -1

    def tampered(lam):
        chi = real(lam)
        return chi + odd if Partition(lam) == bad else chi

    monkeypatch.setattr(characters, "irreducible_character", tampered)
    with pytest.raises(IntegrityError, match=r"self-conjugate \(2, 2\) has odd-class sum"):
        decompose_oracle(4, 1)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["decompose", "--n", "4", "--k", "1", "--engine", "oracle"])
    assert code == 4 and "self-conjugate (2, 2)" in err.getvalue()


def test_decompose_oracle_table1():
    table = decompose_oracle(8, 2)
    for lam in enumerate_partitions(8):
        expected = TABLE_8_2.get(tuple(lam), (0, 0, 0))
        assert table.multiplicity(lam) == expected


def test_decompose_oracle_k0():
    table = decompose_oracle(6, 0)
    for lam in enumerate_partitions(6):
        expected = (1, 1, 0) if lam == Partition((6,)) else (0, 0, 0)
        assert table.multiplicity(lam) == expected


def test_decompose_oracle_n5_k1():
    table = decompose_oracle(5, 1)
    sym_rows = {tuple(lam): s for lam, (_, s, _) in table.rows.items() if s}
    ext_rows = {tuple(lam): e for lam, (_, _, e) in table.rows.items() if e}
    assert sym_rows == {(5,): 1, (4, 1): 1, (3, 2): 1}
    assert ext_rows == {(3, 1, 1): 1}
    assert sum(s * dimension(lam) for lam, (_, s, _) in table.rows.items()) == 10
    assert sum(e * dimension(lam) for lam, (_, _, e) in table.rows.items()) == 6


def test_decompose_oracle_argument_range():
    # n > 20 is refused by partition enumeration, the one size cap
    with pytest.raises(ValueError, match="n <= 20"):
        decompose_oracle(21, 2)
    with pytest.raises(ValueError):
        decompose_oracle(6, 6)


def test_restrict_character_examples():
    n = 6
    assert restrict_character(irreducible_character(Partition((n,)))) == irreducible_character(
        Partition((n - 1,))
    )
    lhs = restrict_character(irreducible_character(Partition((n - 1, 1))))
    rhs = irreducible_character(Partition((n - 2, 1))) + irreducible_character(Partition((n - 1,)))
    assert lhs == rhs
    with pytest.raises(ValueError):
        restrict_character(ClassFunction(0, {Partition(()): 1}))


def test_multiplicity_table_validation():
    good = decompose_oracle(5, 1)
    rows = dict(good.rows)
    rows[Partition((5,))] = (2, 1, 0)
    with pytest.raises(ValueError, match=r"inconsistent multiplicities at \(5,\): \(2, 1, 0\)"):
        MultiplicityTable(5, 1, rows)
    rows = dict(good.rows)
    del rows[Partition((5,))]
    with pytest.raises(ValueError, match="table must have a row for every partition of 5"):
        MultiplicityTable(5, 1, rows)
    # as many rows as partitions of 5, but one of them for a partition of 4
    rows[Partition((4,))] = (0, 0, 0)
    with pytest.raises(ValueError, match="table must have a row for every partition of 5"):
        MultiplicityTable(5, 1, rows)
    rows = dict(full_table(4, 1).rows)
    with pytest.raises(ValueError, match="need 0 <= k <= n-1, got k=4, n=4"):
        MultiplicityTable(4, 4, rows)
    # every triple is consistent, but the symmetric square loses dimension 3
    rows[Partition((3, 1))] = (0, 0, 0)
    with pytest.raises(ValueError, match="dimension identity violated for n=4, k=1"):
        MultiplicityTable(4, 1, rows)


def test_multiplicity_table_json_roundtrip():
    table = decompose_oracle(8, 2)
    assert MultiplicityTable.from_json_dict(table.to_json_dict()) == table


@pytest.mark.parametrize("n", range(1, 9))
def test_tensor_square_dimension(n):
    for k in range(n):
        table = decompose_oracle(n, k)
        d = math.comb(n - 1, k)
        total = sum(t * dimension(lam) for lam, (t, _, _) in table.rows.items())
        assert total == d * d


def test_inner_products_use_class_sizes():
    n = 5
    order = sum(class_size(ct) for ct in enumerate_partitions(n))
    assert order == math.factorial(n)


# ---------------------------------------------------------------------------
# malformed JSON tables are rejected with a ValueError naming the field


def table_json():
    return decompose_oracle(5, 1).to_json_dict()


def test_table_json_missing_field():
    for where, drop in (("'n'", lambda d: d.pop("n")), ("'k'", lambda d: d.pop("k")),
                        ("'rows'", lambda d: d.pop("rows"))):
        data = table_json()
        drop(data)
        with pytest.raises(ValueError, match=f"{where} is missing"):
            MultiplicityTable.from_json_dict(data)
    for name in ("lambda", "tensor", "sym", "ext"):
        data = table_json()
        del data["rows"][1][name]
        with pytest.raises(ValueError, match=rf"'rows\[1\]\.{name}' is missing"):
            MultiplicityTable.from_json_dict(data)


def test_table_json_wrong_type():
    cases = [
        (lambda d: d.update(n="5"), "'n' must be int"),
        (lambda d: d.update(k=1.0), "'k' must be int"),
        (lambda d: d.update(rows={}), "'rows' must be list"),
        (lambda d: d["rows"].__setitem__(0, [5]), r"'rows\[0\]' must be an object"),
        (lambda d: d["rows"][0].update(tensor=True), r"'rows\[0\]\.tensor' must be int"),
        (lambda d: d["rows"][0].update(sym="1"), r"'rows\[0\]\.sym' must be int"),
        (lambda d: d["rows"][0].update({"lambda": "5"}), r"'rows\[0\]\.lambda' must be list"),
        (lambda d: d["rows"][0].update({"lambda": [5.0]}), "list of integers"),
    ]
    for spoil, message in cases:
        data = table_json()
        spoil(data)
        with pytest.raises(ValueError, match=message):
            MultiplicityTable.from_json_dict(data)
    with pytest.raises(ValueError, match="JSON object"):
        MultiplicityTable.from_json_dict([])
    data = table_json()
    data["v"] = 2
    with pytest.raises(ValueError, match="unsupported table schema version: 2"):
        MultiplicityTable.from_json_dict(data)


def test_table_json_lambda_not_a_partition_of_n():
    for parts in ([3, 3], [4], [1, 2, 2], [5, 0], []):
        data = table_json()
        data["rows"][0]["lambda"] = parts
        with pytest.raises(ValueError, match=r"'rows\[0\]\.lambda' = .* is not a partition of n=5"):
            MultiplicityTable.from_json_dict(data)


def test_table_json_duplicate_row():
    data = table_json()
    data["rows"].append(dict(data["rows"][0]))
    with pytest.raises(ValueError, match=r"'rows\[\d+\]\.lambda' repeats the row"):
        MultiplicityTable.from_json_dict(data)
    # a repeat that would otherwise silently overwrite the first row
    data = table_json()
    data["rows"].append(dict(data["rows"][0], tensor=0, sym=0, ext=0))
    with pytest.raises(ValueError, match="repeats"):
        MultiplicityTable.from_json_dict(data)
