"""Brute-force character-theoretic ground truth for square decompositions.

Irreducible characters of symmetric groups are computed exactly with the
Murnaghan-Nakayama border-strip recursion; symmetric/exterior square
characters and inner products then produce full multiplicity tables that the
closed forms are checked against.  A table's inner products are packed
column sums (``multiplicities``): the character rows of S_n, one per
conjugate pair, are packed once per n into one int per class with a signed
slot per pair, so each class costs one big-integer multiply-add; the slot
width is chosen from a bound proven on each call's data.  What S_n alone
determines is read once per n from the walk of ``partitions`` (class
positions, sizes and conjugates, classes of squares) and kept as per-n
position lists: the squared classes, the restriction to S_(n-1), the parity
split and the self-conjugate slots.  Everything is exact integer
arithmetic; any non-integrality is raised as a hard error rather than
rounded away.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cache
from itertools import islice, repeat
from operator import add, itemgetter, mod, mul, sub
from struct import Struct
from types import MappingProxyType

from .partitions import (
    MAX_N,
    IntegrityError,
    MultiplicityTable,
    Partition,
    _Record,
    _walk,
    enumerate_partitions,
    hook_partition,
)


def mn_character(lam, ct) -> int:
    """Value of the irreducible character of lam on the class of cycle type ct."""
    lam = Partition(lam)
    ct = Partition(ct)
    if lam.n != ct.n:
        raise ValueError(f"partition sizes differ: |{tuple(lam)}| != |{tuple(ct)}|")
    if lam.n > MAX_N:
        raise ValueError(f"characters require n <= {MAX_N}, got {lam.n}")
    return _row(_beads(lam), lam.n)[_walk(lam.n).index[ct]]


def _beads(lam: Partition) -> int:
    """The beta-set {lam_i + h - i} (h = len(lam), i = 1..h) as a bit mask.

    Its lowest position is always empty: a bead at position 0 would stand for
    a zero part.
    """
    h = len(lam)
    mask = 0
    for i, part in enumerate(lam):
        mask |= 1 << (part + h - 1 - i)
    return mask


@cache
def _row(beads: int, n: int) -> tuple[int, ...]:
    """Murnaghan-Nakayama recursion on a normalised bead mask of size n: the
    character's values on every class of S_n, in ``enumerate_partitions(n)``
    order.

    Removing a border strip of length r moves one bead from position b down
    to an empty position b - r; the strip's leg height is the number of beads
    strictly between the two.  A bead that lands on position 0 leaves filled
    low positions (zero parts), which are shifted out.  The classes with
    first part r form one run (``_class_runs``), so each removable r-strip
    adds or subtracts one slice of the smaller shape's row on the whole run.
    """
    if not n:
        return (1,)
    values = []
    for r, start, size in _class_runs(n):
        between = (1 << (r - 1)) - 1
        movable = (beads & ~(beads << r)) >> r
        run = [0] * size
        while movable:
            low = movable & -movable
            movable ^= low
            target = low.bit_length() - 1
            moved = beads ^ (low << r) ^ low
            if target == 0:
                moved >>= (~moved & (moved + 1)).bit_length() - 1
            op = sub if (beads >> (target + 1) & between).bit_count() & 1 else add
            run = list(map(op, run, islice(_row(moved, n - r), start, None)))
        values += run
    return tuple(values)


@cache
def _class_runs(n: int) -> tuple[tuple[int, int, int], ...]:
    """The classes of S_n as runs (r, start, size), in ``enumerate_partitions(n)``
    order: the run of first part r has ``size`` classes, and their remaining
    parts are the partitions of n - r from position ``start`` on, the ones
    with no part above r."""
    runs = []
    for r in range(n, 0, -1):
        rests = enumerate_partitions(n - r)
        start = next(i for i, rest in enumerate(rests) if not rest or rest[0] <= r)
        runs.append((r, start, len(rests) - start))
    return tuple(runs)


class ClassFunction(_Record):
    """An exact integer-valued function on the conjugacy classes of S_n.

    ``values`` is either a mapping from every partition of n to an int or a
    sequence of ints in ``enumerate_partitions(n)`` order.  The constructor
    checks the domain once, refuses any value that is not an int (a float or
    a bool), and stores the values as one immutable tuple, ``vector``, in
    that order, so a cached character can never be changed behind its
    callers' backs.  The characters the package computes itself from ints
    are built by ``_raw``, unchecked.
    """

    __slots__ = ("n", "vector")

    def __init__(self, n: int, values):
        index = _walk(n).index
        if isinstance(values, Mapping):
            if index.keys() != set(values):
                raise ValueError(f"class function must be defined on all partitions of {n}")
            vector = tuple([values[ct] for ct in index])
        else:
            vector = tuple(values)
            if len(vector) != len(index):
                raise ValueError(
                    f"class function must be defined on all {len(index)} partitions of {n}, "
                    f"got {len(vector)} values"
                )
        if not set(map(type, vector)) <= {int}:
            bad = next(v for v in vector if type(v) is not int)
            raise ValueError(f"class function values must be ints, got {bad!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vector", vector)

    @classmethod
    def _raw(cls, n: int, vector: tuple) -> "ClassFunction":
        """The class function of ``vector``, a tuple of ints in
        ``enumerate_partitions(n)`` order, without the constructor's checks."""
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "vector", vector)
        return f

    @property
    def values(self) -> MappingProxyType:
        """Read-only mapping cycle type -> value, in ``enumerate_partitions(n)`` order."""
        return MappingProxyType(dict(zip(enumerate_partitions(self.n), self.vector)))

    def __getitem__(self, ct) -> int:
        ct = Partition(ct)
        try:
            return self.vector[_walk(self.n).index[ct]]
        except KeyError:
            raise ValueError(f"class {tuple(ct)} is not a partition of n={self.n}") from None

    @property
    def dim(self) -> int:
        # (1^n), the identity class, comes last in enumerate_partitions(n)
        return self.vector[-1]

    def _combine(self, other, op):
        if isinstance(other, ClassFunction):
            if other.n != self.n:
                raise ValueError("class functions live on different groups")
            return ClassFunction(self.n, map(op, self.vector, other.vector))
        return ClassFunction(self.n, [op(v, other) for v in self.vector])

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        return self._combine(other, mul)

    __rmul__ = __mul__


@cache
def _square_classes(n: int):
    """Takes a vector in ``enumerate_partitions(n)`` order to its values on
    the class of g^2 for every class of g, in the same order."""
    return _getter(_walk(n).squares)


@cache
def irreducible_character(lam) -> ClassFunction:
    """The full character row of the irreducible module for lam."""
    lam = Partition(lam)
    enumerate_partitions(lam.n)  # checks the size cap first
    return ClassFunction._raw(lam.n, _row(_beads(lam), lam.n))


def hook_rep_character(n: int, k: int) -> ClassFunction:
    """Character of the k-th exterior power of the standard module, shape (n-k, 1^k)."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    return irreducible_character(hook_partition(n, k))


def square_characters(chi: ClassFunction) -> tuple[ClassFunction, ClassFunction]:
    """Characters of the symmetric and exterior squares of chi.

    On each class g the values are (chi(g)^2 +- chi(g^2)) / 2; any odd sum
    means chi is not the character of an actual module and is rejected.
    """
    values = chi.vector
    squares = list(map(mul, values, values))
    twice = list(map(add, squares, _square_classes(chi.n)(values)))
    if any(map(mod, twice, repeat(2))):
        i = next(i for i, total in enumerate(twice) if total % 2)
        ct = enumerate_partitions(chi.n)[i]
        raise IntegrityError(f"square-character parity violated on class {tuple(ct)}")
    sym = tuple([total // 2 for total in twice])
    ext = tuple(map(sub, squares, sym))
    return ClassFunction._raw(chi.n, sym), ClassFunction._raw(chi.n, ext)


def inner_product(chi: ClassFunction, psi: ClassFunction) -> int:
    """Scalar product (1/n!) * sum over classes of |class| * chi * psi.

    The sum is formed exactly and must be divisible by n!; a remainder is a
    bug signal, never rounded.
    """
    if chi.n != psi.n:
        raise ValueError("class functions live on different groups")
    total = sum(map(mul, _walk(chi.n).sizes, map(mul, chi.vector, psi.vector)))
    return _exact_quotient(total, chi.n)


def _exact_quotient(total: int, n: int) -> int:
    """``total / n!`` for a class-size-weighted character sum; a remainder
    means an argument was not a character, so it is raised, never rounded."""
    q, r = divmod(total, math.factorial(n))
    if r:
        raise IntegrityError(f"inner product sum {total} is not divisible by {n}!")
    return q


@cache
def _parity_split(n: int):
    """The classes of S_n split by sign, and its irreducibles by conjugation.

    Returns (even, odd, pairs, gather). ``even`` and ``odd`` take the values
    on the classes rho of sign (-1)^(n - len rho) = +1 and -1 out of a
    vector in ``enumerate_partitions(n)`` order, as tuples. Each conjugate
    pair of partitions gives one entry (lam, j, i) of ``pairs``: lam is the
    member that comes later in that order, j its position and i <= j its
    conjugate's (i == j when lam is self-conjugate). ``gather`` takes the
    values of every pair's later member, in ``pairs`` order, followed by
    those of every pair's earlier member, to one value per partition of n in
    ``enumerate_partitions(n)`` order.
    """
    walk = _walk(n)
    parts = walk.parts
    even = [i for i, ct in enumerate(parts) if (n - len(ct)) % 2 == 0]
    odd = [i for i, ct in enumerate(parts) if (n - len(ct)) % 2]
    pairs = [(lam, j, i) for j, (lam, i) in enumerate(zip(parts, walk.conjugates)) if i <= j]
    source = [0] * len(parts)
    for s, (_, j, i) in enumerate(pairs):
        source[i] = len(pairs) + s
        source[j] = s
    return _getter(even), _getter(odd), tuple(pairs), _getter(source)


def _getter(positions: list[int]):
    """``itemgetter(*positions)``, except that it always returns a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda vector: tuple(vector[i] for i in positions)


@cache
def _self_conjugate(n: int) -> tuple[tuple[int, Partition], ...]:
    """The slot s and the partition lam of every self-conjugate entry of
    ``_parity_split(n)``'s ``pairs``."""
    return tuple([(s, lam) for s, (lam, j, i) in enumerate(_parity_split(n)[2]) if i == j])


@cache
def _pair_rows(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The row of the later member of every conjugate pair of S_n, in
    ``_parity_split`` order, each read once through ``irreducible_character``,
    and the largest absolute value in any of them."""
    rows = tuple(irreducible_character(lam).vector for lam, _, _ in _parity_split(n)[2])
    return rows, max(max(map(abs, row)) for row in rows)


@cache
def _slot_layout(slots: int, words: int) -> tuple[Struct, Struct, int, int]:
    """How ``slots`` signed slots of ``words`` 64-bit words each lie in one
    int, slot s from bit 64 * words * s on, as little-endian bytes.

    Returns (pack, unpack, signs, half): ``pack`` writes one int64 into the
    low word of every slot over zero upper words, ``unpack`` reads every
    word of every slot, signed only in the slot's top word, ``signs`` is
    the int with bit 63 of every slot set and ``half`` the int with the top
    bit of every slot set.
    """
    size = 8 * words

    def bits(bit):
        return int.from_bytes((1 << bit).to_bytes(size, "little") * slots, "little")

    return (
        Struct("<" + f"q{size - 8}x" * slots),
        Struct("<" + ("Q" * (words - 1) + "q") * slots),
        bits(63),
        bits(size * 8 - 1),
    )


@cache
def _packs(n: int, words: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair rows of S_n packed class by class, in slots of ``words``
    64-bit words: the packed columns of the even classes and of the odd
    classes, in the order of ``_parity_split``'s ``even`` and ``odd``.

    The packed column of class c is the sum over pairs s of chi_s(c) *
    2^(64 * words * s), chi_s the s-th row of ``_pair_rows``. ``struct``
    writes each value as an int64 into the low word of its slot, which one
    ``int.from_bytes`` reads as the sum of (chi_s(c) mod 2^64) * 2^(64 *
    words * s). A negative value sets bit 63 of its slot and reads 2^64 too
    large, so the column is that int minus twice its bits 63.
    """
    even, odd, _, _ = _parity_split(n)
    rows, _ = _pair_rows(n)
    pack, _, signs, _ = _slot_layout(len(rows), words)
    columns = []
    for column in zip(*rows):
        packed = int.from_bytes(pack.pack(*column), "little")
        columns.append(packed - ((packed & signs) << 1))
    return even(columns), odd(columns)


def _slots(total: int, slots: int, words: int):
    """The slot values x_s of ``total`` = the sum over s < ``slots`` of
    x_s * 2^(64 * words * s), given every |x_s| < 2^(64 * words - 1).

    Adding 2^(64 * words - 1) to every slot makes each one nonnegative and
    below 2^(64 * words), so no slot borrows from the next; flipping those
    bits back leaves each slot as x_s in two's complement, read word by word
    from the top. A total outside the slots' range raises IntegrityError.
    """
    _, unpack, _, half = _slot_layout(slots, words)
    try:
        data = ((total + half) ^ half).to_bytes(8 * words * slots, "little")
    except OverflowError:
        raise IntegrityError(
            f"packed character sum {total} exceeds {slots} slots of {words} words"
        ) from None
    read = unpack.unpack(data)
    values = read[words - 1 :: words]
    for word in range(words - 2, -1, -1):
        values = [high << 64 | low for high, low in zip(values, read[word::words])]
    return values


def multiplicities(*fs: ClassFunction) -> tuple[tuple[int, ...], ...]:
    """For each f, ``inner_product(irreducible_character(lam), f)`` for every
    lam in ``enumerate_partitions(f.n)`` order, as packed column sums.

    Since chi^lam' = sgn * chi^lam with sgn(rho) = (-1)^(n - len rho), each
    conjugate pair is carried by the row of its later member lam. The rows
    are packed once per n (``_packs``): one int per class, holding every
    pair's value on that class in its own signed slot. Each f is weighted by
    the class sizes, w = |class| * f, and the packed sums E = sum over the
    even classes of w * column and O = the same over the odd classes take
    one big-integer multiply-add per class. Slot s of E + O is then
    n! <chi^lam, f> and slot s of E - O is n! <chi^lam', f>, each divided
    exactly by n!.

    Slot width: each slot of E + O and of E - O is a sum over the classes of
    +-w(c) * chi_s(c), so its absolute value is at most sum |w| * max |chi|,
    max |chi| taken over the packed rows. The slots take the fewest 64-bit
    words whose signed range exceeds that bound for every f of the call, so
    no slot carries into the next. The squares of the hooks need one word
    up to n = 15 and two from n = 16 on (the bound is below 2^90 at
    n = 20). The packs are cached per (n, words) and hold about
    p(n)/2 * p(n) * 8 bytes per word: 3.2 MB at n = 20 in two words, 0.17 MB
    for all n <= 14 together in one.

    A self-conjugate row vanishes on every odd class, so its two slots must
    be equal; anything else raises IntegrityError, as does a sum that n!
    does not divide or a total outside its slots.
    """
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise ValueError("class functions live on different groups")
    even, odd, pairs, gather = _parity_split(n)
    sizes = _walk(n).sizes
    fact = math.factorial(n)
    weighted = [tuple(map(mul, sizes, f.vector)) for f in fs]
    _, top = _pair_rows(n)
    bound = max(sum(map(abs, w)) for w in weighted) * top
    words = bound.bit_length() // 64 + 1
    even_columns, odd_columns = _packs(n, words)
    columns = []
    for w in weighted:
        e = sum(map(mul, even(w), even_columns))
        o = sum(map(mul, odd(w), odd_columns))
        plus = _slots(e + o, len(pairs), words)
        minus = _slots(e - o, len(pairs), words)
        for s, lam in _self_conjugate(n):
            if plus[s] != minus[s]:
                odd_sum = (plus[s] - minus[s]) // 2
                raise IntegrityError(
                    f"self-conjugate {tuple(lam)} has odd-class sum {odd_sum}, not 0"
                )
        totals = gather(plus + minus)
        if any(map(mod, totals, repeat(fact))):
            for total in totals:
                _exact_quotient(total, n)  # raises at the first remainder
        columns.append(tuple([total // fact for total in totals]))
    return tuple(columns)


def restrict_character(chi: ClassFunction) -> ClassFunction:
    """Restriction to the subgroup fixing the last point, evaluated pointwise."""
    if chi.n == 0:
        raise ValueError("cannot restrict a class function on the trivial group")
    return ClassFunction._raw(chi.n - 1, _restriction(chi.n)(chi.vector))


@cache
def _restriction(n: int):
    """Takes a vector in ``enumerate_partitions(n)`` order to its values on
    the classes ct + (1,), ct in ``enumerate_partitions(n - 1)`` order."""
    index = _walk(n).index
    return _getter([index[ct + (1,)] for ct in enumerate_partitions(n - 1)])


def decompose_oracle(n: int, k: int) -> MultiplicityTable:
    """Full multiplicity table computed purely from characters.

    The symmetric and exterior square characters of the k-th hook character
    go through ``multiplicities`` together, so each conjugate pair of rows
    is read and split by class parity once for both.  The tensor column is
    their sum, exactly, since the tensor square character is sym + ext class
    by class.
    """
    sym, ext = multiplicities(*square_characters(hook_rep_character(n, k)))
    rows = dict(zip(enumerate_partitions(n), zip(map(add, sym, ext), sym, ext)))
    return MultiplicityTable(n, k, rows)
