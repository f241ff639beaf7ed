"""Colored tensor bases and exact Young-symmetrizer computations.

A coloring x: [n] -> {0,1,2,3} encodes a standard basis vector u_I (x) u_J of
the tensor product of two exterior powers of the n-dimensional permutation
module: I = x^-1({1,3}), J = x^-1({2,3}).  The symmetric group acts on the
right, permuting positions at the cost of a sign; this module implements that
sign, the color-switch module maps, proper swaps, full and restricted Young
symmetrizers for the canonical tableau, and the projection onto the
standard-module quotient.

Packed encoding: the engine computes with each coloring packed into one int,
the color of cell i (1-based) in bits 2(i-1) and 2(i-1)+1, bit 0 of a color
marking the first tensor factor (colors 1, 3) and bit 1 the second (colors 2,
3).  So I and J are the even and the odd bits, the color swap exchanges the
two bits of every cell, and the complement is an XOR with all ones.  A
``TensorVector`` stores ``packed``, a dict from packed colorings to nonzero
int coefficients (any other coefficient or scalar is refused, ``_exact``);
its ``terms`` is a read-only ``Coloring``-keyed view, decoded on first
access.  ``Coloring`` is the public form of a single coloring.

The canonical tableau's geometry, down to the bit masks of each row and
column (``_block``), is computed once per shape (``_tableau``), and
``Coloring`` and ``Partition`` return an existing instance unchanged.

Symmetrizer application never materializes the group-algebra element: each
row (column) factor is applied as a sum over distinct color arrangements of
that row (column), with the stabilizer of the coloring summed in closed form.
Before any block sum expands them, a factor's terms are summed per orbit of
its blocks (``_orbit_sums``): each block's colors are sorted by adjacent
exchanges at a closed-form sign (``_block_sort``), since w_y B = sigma(y)
w_z B for the factor B and y with its blocks sorted into z.  The sort is the
engine's one annihilation rule and its one sort-sign rule, for rows and
columns alike: when two cells of a block share a cancelling color the
stabilizer sum cancels, the block has no sort, and the term is dropped.  So
every block sum receives only terms whose block colors are sorted and not
annihilated.  The blocks run shortest first, so the longest expansion comes
last.

The signed arrangements a term expands into (its transfer) are read from one
process-wide entry per sorted color multiset, the ``functools.cache`` of
``_multiset``.  Each entry is built from the entries of its one-cell-smaller
multisets: the arrangements that start with color c are c followed by those
of the multiset less one c, their signs flipped together when c's inversions
with the remaining smaller colors are odd, so an entry costs a few list
comprehensions and shifted integer ORs per color, not a step per
arrangement.  A term's block colors are sorted, so they are the entry's first
arrangement and the entry's signs are the term's own.  Every block a block
sum receives is consecutive, so a term's transfer is the entry's two packed
lists, +base and -base, shifted to the block's first cell, each arrangement
written as one OR with the term's other cells.  Each image is written once,
never added to: two terms of one call differ outside the block or hold
different sorted multisets, whose arrangements are disjoint.  A block with
gaps raises.

The rows are consecutive blocks, and every column sum takes one route
(``_apply_columns``): its input is summed per column orbit on the columns as
they lie, gaps and all (``_orbit_sums``); the sums S are relabelled into the
column reading (``_frame``), where each column is a block of consecutive
cells and stays sorted, and expanded by the block sums of C' = tau^-1 C tau
(``_expand_columns``); a public result is relabelled back, w C =
((S tau) C') tau^-1.

A skew-symmetry check computes one side: the color swap is a module map, so
the swapped side is the swap of the computed side.  Both checks expand the
rows of w_x and take the column-orbit sums of the result.  The images under
the column antisymmetrizer C of distinct sorted colorings that C does not
annihilate are nonzero with disjoint supports, so where k != l both
verdicts hold exactly when these sums vanish (see ``_skew_holds`` for the
proof).  The exact check never expands C: it compares the sums with those of
the swapped side.  The mod-K check expands them by the column route but
does not relabel back; it projects the computed side's half-pair vector
(one entry per swap pair), which the projection allows because it treats
both tensor factors alike and so commutes with the swap, and tests the
image.

A skew verdict is computed once per orbit of colorings and then read from a
memo (``_skew_holds``, see ``verify_skew_symmetry`` for the proof).  With
c = R C, a permutation of the cells of one row lies in R and leaves R
unchanged, and an exchange of two equal rows down their columns lies in C and
normalizes R; either changes the computed side by a sign only, which no
verdict sees.  So every coloring of an orbit of these moves has one verdict,
and ``_skew_holds`` is called on the orbit's least coloring: each row sorted,
and the rows of each run of equal rows in ascending order.  The memo is an
``lru_cache`` of 8,192 entries, above the 7,666 orbits of the sweeps of every
hook with n <= 10 and every even-tail double hook with n <= 9; the prop32
sweep of n <= 10 has 8,806 orbits and evicts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from types import MappingProxyType

from .partitions import (
    MAX_N,
    DoubleHook,
    Hook,
    IntegrityError,
    Partition,
    Permutation,
    _integers,
    classify_shape,
)

DEFAULT_PAIR_BUDGET = 10**7


class BudgetError(RuntimeError):
    """Symmetrizer application would exceed the configured pair budget."""


_SWAP12 = (0, 2, 1, 3)
_COMPLEMENT = (3, 2, 1, 0)
# the one builder of trusted Colorings, _new(Coloring, colors): no validation
_new = tuple.__new__


class Coloring(tuple):
    """A function [n] -> {0,1,2,3}, position i carrying the color of cell i."""

    __slots__ = ()

    def __new__(cls, colors):
        if type(colors) is Coloring:
            return colors
        colors = _integers(colors)
        if any(c not in (0, 1, 2, 3) for c in colors):
            raise ValueError(f"colors must lie in {{0,1,2,3}}: {colors}")
        return super().__new__(cls, colors)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def k(self) -> int:
        return sum(1 for c in self if c in (1, 3))

    @property
    def l(self) -> int:
        return sum(1 for c in self if c in (2, 3))

    def color(self, i: int) -> int:
        """Color of cell i (1-indexed)."""
        return self[i - 1]

    def support(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The index sets (I, J) of the encoded basis vector, ascending."""
        I = tuple(i for i in range(1, len(self) + 1) if self[i - 1] in (1, 3))
        J = tuple(i for i in range(1, len(self) + 1) if self[i - 1] in (2, 3))
        return I, J

    def act(self, s: Permutation) -> "Coloring":
        """The coloring x.s, the color of cell m being x(m s^-1)."""
        if s.n != len(self):
            raise ValueError("permutation size does not match coloring size")
        out = [0] * len(self)
        for i, c in enumerate(self):
            out[s.images[i] - 1] = c
        return _new(Coloring, out)

    def swap_colors(self) -> "Coloring":
        """Exchange colors 1 and 2 everywhere (swap the tensor factors)."""
        return _new(Coloring, [_SWAP12[c] for c in self])

    def swap_colors_in(self, members) -> "Coloring":
        """Exchange colors 1 and 2 on the given cells only."""
        inside = set(members)
        return _new(Coloring, [_SWAP12[c] if i + 1 in inside else c for i, c in enumerate(self)])

    def complement_colors(self) -> "Coloring":
        """Replace every color c by 3 - c (complement both index sets)."""
        return _new(Coloring, [_COMPLEMENT[c] for c in self])

    def __repr__(self):
        return f"Coloring({tuple(self)})"


def enumerate_colorings(n: int, k: int, l: int):
    """All colorings with |x^-1({1,3})| = k and |x^-1({2,3})| = l, in
    lexicographic order of the color array, as a generator; the arguments
    are checked at the call."""
    if n < 0 or not 0 <= k <= n or not 0 <= l <= n:
        raise ValueError(f"need 0 <= k, l <= n, got n={n}, k={k}, l={l}")

    def colorings():
        for colors in itertools.product((0, 1, 2, 3), repeat=n):
            threes = colors.count(3)
            if colors.count(1) + threes == k and colors.count(2) + threes == l:
                yield _new(Coloring, colors)

    return colorings()


def _inversions(seq) -> int:
    count = 0
    for i in range(len(seq)):
        a = seq[i]
        for j in range(i + 1, len(seq)):
            if a > seq[j]:
                count += 1
    return count


def action_sign(x: Coloring, s: Permutation) -> int:
    """The sign relating the acted basis vector to the acted coloring's basis
    vector: w_x . s = action_sign(x, s) * w_{x.s}.

    It is the product of the two wedge-sorting parities, one for each tensor
    factor.
    """
    if s.n != len(x):
        raise ValueError("permutation size does not match coloring size")
    total = 0
    for pair in ((1, 3), (2, 3)):
        total += _inversions([s.images[i] for i, c in enumerate(x) if c in pair])
    return -1 if total % 2 else 1


def _low(n: int) -> int:
    """Bit 0 of each of n packed cells: 0b01...01."""
    return ((1 << 2 * n) - 1) // 3


def _pack(x) -> int:
    """The packed key of the colors x, cell i (1-based) in bits 2(i-1) and
    2(i-1)+1."""
    p = 0
    for c in reversed(x):
        p = p << 2 | c
    return p


def _unpack(p: int, n: int) -> Coloring:
    """The coloring of [n] packed in p."""
    return _new(Coloring, [p >> s & 3 for s in range(0, 2 * n, 2)])


def _swap(p: int, low: int) -> int:
    """The packed color swap: the two bits of every cell exchanged, for
    ``low = _low(n)`` with n at least the cells of p."""
    return (p & low) << 1 | (p >> 1 & low)


def _exact(c):
    """c itself when it is an int, else ValueError naming it: a float, a
    bool or any other value never enters the exact engine."""
    if type(c) is not int:
        raise ValueError(f"coefficients and scalars must be ints, got {c!r}")
    return c


class TensorVector:
    """A sparse exact-integer combination of colored basis vectors, all lying
    in one fixed product of exterior powers.

    ``packed`` maps each packed coloring to its nonzero coefficient; ``terms``
    is the same vector keyed by ``Coloring``, a read-only view decoded on
    first access.
    """

    __slots__ = ("n", "k", "l", "packed", "_terms")

    def __init__(self, n: int, k: int, l: int, terms=None):
        low = _low(n)
        packed = {}
        for x, c in (terms or {}).items():
            x = Coloring(x)
            p = _pack(x)
            if len(x) != n or (p & low).bit_count() != k or (p >> 1 & low).bit_count() != l:
                raise ValueError(f"coloring {tuple(x)} does not lie in the ({n},{k},{l}) space")
            if _exact(c):
                packed[p] = c
        self.n, self.k, self.l = n, k, l
        self.packed = packed
        self._terms = None

    @classmethod
    def _raw(cls, n, k, l, packed) -> "TensorVector":
        v = object.__new__(cls)
        v.n, v.k, v.l = n, k, l
        v.packed = packed
        v._terms = None
        return v

    @classmethod
    def zero(cls, n: int, k: int, l: int) -> "TensorVector":
        return cls._raw(n, k, l, {})

    @classmethod
    def basis(cls, x, coeff: int = 1) -> "TensorVector":
        x = Coloring(x)
        p = _pack(x)
        low = _low(len(x))
        packed = {p: coeff} if _exact(coeff) else {}
        return cls._raw(len(x), (p & low).bit_count(), (p >> 1 & low).bit_count(), packed)

    @property
    def terms(self) -> MappingProxyType:
        """The coefficients keyed by ``Coloring``, decoded once."""
        if self._terms is None:
            n = self.n
            self._terms = MappingProxyType({_unpack(p, n): c for p, c in self.packed.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self.packed

    def _check_same_space(self, other):
        if (self.n, self.k, self.l) != (other.n, other.k, other.l):
            raise ValueError("vectors live in different spaces")

    def __add__(self, other: "TensorVector") -> "TensorVector":
        self._check_same_space(other)
        out = dict(self.packed)
        for p, c in other.packed.items():
            s = out.get(p, 0) + c
            if s:
                out[p] = s
            elif p in out:
                del out[p]
        return TensorVector._raw(self.n, self.k, self.l, out)

    def __neg__(self) -> "TensorVector":
        return TensorVector._raw(self.n, self.k, self.l, {p: -c for p, c in self.packed.items()})

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-other)

    def __mul__(self, scalar: int) -> "TensorVector":
        if not _exact(scalar):
            return TensorVector.zero(self.n, self.k, self.l)
        return TensorVector._raw(
            self.n, self.k, self.l, {p: c * scalar for p, c in self.packed.items()}
        )

    __rmul__ = __mul__

    def act(self, s: Permutation) -> "TensorVector":
        """Linear extension of the signed basis action; invertible.

        Cell i's color moves to cell s(i), and the sign counts, per tensor
        factor, the earlier cells of that factor that land above it."""
        if s.n != self.n:
            raise ValueError("permutation size does not match vector size")
        low = _low(self.n)
        shared = (0, low, low << 1, low * 3)  # the bits of the factors of each color
        shifts = [2 * (t - 1) for t in s.images]
        out = {}
        for x, c in self.packed.items():
            y = odd = 0
            for t in shifts:
                color = x & 3
                x >>= 2
                if color:
                    odd ^= (y >> t + 2 & shared[color]).bit_count()
                    y |= color << t
            out[y] = -c if odd & 1 else c
        return TensorVector._raw(self.n, self.k, self.l, out)

    def __eq__(self, other):
        return (
            isinstance(other, TensorVector)
            and (self.n, self.k, self.l) == (other.n, other.k, other.l)
            and self.packed == other.packed
        )

    def __repr__(self):
        if not self.packed:
            return f"TensorVector.zero({self.n}, {self.k}, {self.l})"
        body = " + ".join(f"{c}*w{tuple(x)}" for x, c in sorted(self.terms.items()))
        return f"TensorVector[{body}]"


def tensor_swap(w: TensorVector) -> TensorVector:
    """The module map sending each basis vector to its color-swapped partner
    (exchanging the two tensor factors); no signs appear."""
    low = _low(w.n)
    return TensorVector._raw(w.n, w.l, w.k, {_swap(p, low): c for p, c in w.packed.items()})


def tensor_complement(w: TensorVector) -> TensorVector:
    """The module map w_x -> h(x) * w over the complemented coloring, where
    h(x) is the parity of sorting each index set against its complement:
    (-1)^(sum(I) + sum(J) + k(k+1)/2 + l(l+1)/2).  The index sums' parity
    counts the bits of the odd cells 1, 3, 5, ..."""
    n, k, l = w.n, w.k, w.l
    full = (1 << 2 * n) - 1
    odd_cells = ((1 << 4 * n) - 1) // 15 * 3  # 0b...00110011
    flip = (k * (k + 1) // 2 + l * (l + 1) // 2) & 1
    return TensorVector._raw(
        n,
        n - k,
        n - l,
        {
            p ^ full: -c if ((p & odd_cells).bit_count() ^ flip) & 1 else c
            for p, c in w.packed.items()
        },
    )


def is_proper_swap(x: Coloring, s: Permutation) -> bool:
    """True when s is an involution pairing cells of color 1 with cells of
    color 2 order-preservingly, and every pair encloses equally many (mod 2)
    fixed cells of color 1 as of color 2.  Such swaps act with sign +1."""
    if s.n != x.n:
        raise ValueError("permutation size does not match coloring size")
    moved = [i for i in range(1, s.n + 1) if s(i) != i]
    if any(s(s(i)) != i for i in moved):
        return False
    pairs = []
    for i in moved:
        j = s(i)
        if i > j:
            continue
        a, b = x.color(i), x.color(j)
        if {a, b} != {1, 2}:
            return False
        one, two = (i, j) if a == 1 else (j, i)
        pairs.append((one, two))
    pairs.sort()
    twos = [two for _, two in pairs]
    if twos != sorted(twos):
        return False
    for one, two in pairs:
        fixed = [x.color(v) for v in range(min(one, two), max(one, two) + 1) if s(v) == v]
        if (fixed.count(1) - fixed.count(2)) % 2:
            return False
    return True


def monotone_color_matching(x: Coloring) -> Permutation | None:
    """The involution pairing the t-th cell of color 1 with the t-th cell of
    color 2, or None when the counts differ."""
    ones = [i for i in range(1, x.n + 1) if x.color(i) == 1]
    twos = [i for i in range(1, x.n + 1) if x.color(i) == 2]
    if len(ones) != len(twos):
        return None
    return Permutation.from_cycles(x.n, list(zip(ones, twos)))


# ---------------------------------------------------------------------------
# canonical tableau geometry


def _pair_count(blocks) -> int:
    """|row group| * |column group| for the given row and column blocks."""
    return math.prod(math.factorial(len(block)) for block in blocks)


def _block(cells) -> tuple:
    """The packed geometry of a block of ascending cells: the bit shift of
    each cell, the mask of the block's bits, the positions i of its inner gaps
    (cells i and i+1 not adjacent), and per gap the mask of the first color
    bits of its fixed cells (``_block_sort``)."""
    shifts = tuple(2 * (p - 1) for p in cells)
    inner = tuple(i for i in range(len(cells) - 1) if cells[i + 1] - cells[i] > 1)
    gaps = tuple(sum(1 << 2 * (q - 1) for q in range(cells[i] + 1, cells[i + 1])) for i in inner)
    return shifts, sum(3 << t for t in shifts), inner, gaps


def _blocks(groups) -> tuple:
    """The ``_block`` of each group of more than one cell, shortest first (in
    the given order among equal lengths); a single cell's block sum is the
    identity.  Disjoint block sums commute, so the order changes no result,
    only the sizes of the vectors between the sums: each sum multiplies the
    term count by up to its number of arrangements, so the longest comes
    last and its expansion is written once."""
    return tuple(_block(cells) for cells in sorted(groups, key=len) if len(cells) > 1)


def _runs(lam: Partition) -> tuple:
    """The runs of equal rows of lam as (a, b, r): the run fills the slice
    a:b of a coloring, cut into groups of r cells that the least coloring of
    ``verify_skew_symmetry`` sorts.  r is the row length for two or more rows
    of two or more cells, else b - a: one row, or single cells, sorted as one
    group."""
    runs = []
    a = 0
    for length, rows in itertools.groupby(lam):
        count = len(list(rows))
        b = a + length * count
        runs.append((a, b, length if length > 1 and count > 1 else b - a))
        a = b
    return tuple(runs)


def _consecutive(lengths) -> tuple:
    """Groups of consecutive cells of the given lengths, filling 1, 2, ...
    in order."""
    ends = tuple(itertools.accumulate(lengths, initial=0))
    return tuple(tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:]))


def _frame(columns, n: int) -> tuple:
    """The column frame of the column groups ``columns`` of cells of [n]:
    (tau, back, blocks).  tau relabels the cells in the column reading: the
    cells of each group in turn, top to bottom, then the cells of no group in
    ascending order; back is its inverse, and blocks the ``_blocks`` of the
    relabelled groups, each of consecutive cells.  tau and back are None
    when the reading is the identity, as for (n) and (1^n).

    For the signed sum C over the groups, C' = tau^-1 C tau is the signed sum
    over the relabelled groups (a conjugate keeps its sign), so
    w C = ((S tau) C') tau^-1 for the column-orbit sums S of w, taken on the
    groups as they lie (``_orbit_sums``): w C = S C, and tau carries each
    group, top to bottom, onto a block of consecutive cells, so every term of
    S tau keeps its block colors sorted."""
    order = [p for cells in columns for p in cells]
    order += sorted(set(range(1, n + 1)).difference(order))
    blocks = _blocks(_consecutive(map(len, columns)))
    if order == sorted(order):
        return None, None, blocks
    back = Permutation(order)
    return back.inverse(), back, blocks


@functools.cache
def _tableau(lam: Partition) -> tuple:
    """Row and column blocks of the canonical tableau of lam (filled 1..n row by
    row), their pair count, the ``_blocks`` of the rows and of the columns, the
    ``_runs`` of equal rows and the ``_frame`` of the columns.  Every caller
    checks n <= MAX_N first (``_sized``, ``_restricted_blocks``, and the
    ``--max-n`` range of ``verify.run_suites``), so the cache holds at most
    the 2,714 shapes of n <= MAX_N."""
    rows = _consecutive(lam)
    columns = tuple(tuple(p for p in column if p) for column in itertools.zip_longest(*rows))
    return (
        rows,
        columns,
        _pair_count(rows + columns),
        _blocks(rows),
        _blocks(columns),
        _runs(lam),
        _frame(columns, lam.n),
    )


# parity of the number of set bits of a color read as a two-bit mask: bit 0
# marks the first tensor factor (colors 1, 3), bit 1 the second (colors 2, 3)
_ODD = (0, 1, 1, 0)

# the colors of which two cells in one block cancel the block's stabilizer sum,
# indexed by ``signed``: 1 and 2 for the plain (row) sum, 0 and 3 for the
# signed (column) sum; the other pair contributes factorials
_CANCELLING = ((1, 2), (0, 3))


@functools.cache
def _multiset(ordered: tuple, signed: bool):
    """The transfer entry of the sorted colors ``ordered``: (base, plus,
    minus).  plus and minus are the arrangements of ``ordered`` of even and
    of odd sign parity against ``ordered`` in a block of consecutive cells,
    packed from bit 0 (slot j at bits 2j), each in lexicographic order.  They
    are shared by every caller and never mutated.

    The cache is the kernel's one cross-call table besides
    ``_block_sorts``.  A call that raises is not stored, and a valid
    multiset has at most one cell of each ``_CANCELLING[signed]`` color, 4r
    of length r, so it holds at most 2 * (1 + sum(4r for r = 1..MAX_N)) =
    1,682 entries.

    The arrangements, in lexicographic order, are one block per color c of
    ``ordered``, ascending: c followed by each arrangement of ``ordered``
    less one c, in that entry's order.  Putting c first inverts it with every
    remaining cell of a smaller color d, which flips the sign when
    _ODD[c & d] ^ signed, so a block's parities are the smaller entry's,
    complemented when those flips are odd: its plus and minus are the smaller
    entry's (swapped on that flip) shifted one slot up with c in slot 0.

    Equal cells of a color in ``_CANCELLING[not signed]`` contribute the
    factorials of base.  Two cells of a color in ``_CANCELLING[signed]``
    would cancel the stabilizer sum, but ``_orbit_sums`` drops such terms and
    sorts the block colors of every other before any block sum, so a
    cancelling or an unsorted ``ordered`` raises ``IntegrityError``.
    """
    if not ordered:
        return 1, (0,), ()
    count = [ordered.count(c) for c in (0, 1, 2, 3)]
    cancel, bulk = _CANCELLING[signed], _CANCELLING[not signed]
    if any(count[c] >= 2 for c in cancel):
        raise IntegrityError(f"block sum received an annihilated term: {ordered}, signed={signed}")
    if list(ordered) != sorted(ordered):
        raise IntegrityError(f"block sum received an unsorted term: {ordered}, signed={signed}")
    base = math.factorial(count[bulk[0]]) * math.factorial(count[bulk[1]])
    plus, minus = [], []
    for c in (0, 1, 2, 3):
        if not count[c]:
            continue
        i = ordered.index(c)
        _, even, odd = _multiset(ordered[:i] + ordered[i + 1 :], signed)
        if sum(count[d] for d in range(c) if _ODD[c & d] ^ signed) & 1:
            even, odd = odd, even
        plus += [c | a << 2 for a in even]
        minus += [c | a << 2 for a in odd]
    return base, tuple(plus), tuple(minus)


def _apply_block_sum(terms: dict, block, signed: bool) -> dict:
    """Apply the sum over all permutations of the block's cells (signed by
    the permutation parity when ``signed``) to the packed terms ``terms``,
    each with its block colors sorted and not annihilated (``_orbit_sums``);
    ``block`` is the ``_block`` of consecutive cells, and a block with gaps
    raises ``IntegrityError`` (``_frame`` relabels the columns to consecutive
    blocks).

    For each term the sum over the stabilizer of its colors collapses to a
    closed-form factor, and what remains is one representative per distinct
    color arrangement, signed by the order-preserving permutation carrying
    the block colors onto it: the term's transfer.  The block colors are
    sorted, so they are the first arrangement of their ``_multiset`` entry,
    and the transfer is the entry's plus and minus lists, shifted to the
    block's first cell, at +base and -base.  Terms of one call with the same
    block colors share a transfer through a memo local to the call, which
    saves the key's tuple and the shift of each list, and each image is the
    term's other cells OR an arrangement.

    Each image is written once and never added to.  Two terms differ outside
    the block, or hold different sorted block colors, so different
    multisets, whose arrangements are disjoint; one term's arrangements are
    distinct; and coef * (+-base) is never 0.  A term whose block colors are
    unsorted or cancelling is never stored by ``_multiset``'s cache, so
    ``_multiset`` raises on every call before it could write a repeated
    image.
    """
    shifts, mask, inner, _ = block
    if inner:
        cells = [t // 2 + 1 for t in shifts]
        raise IntegrityError(f"block sum received a block with gaps: cells {cells}")
    first = shifts[0]
    keep = ~mask
    memo = {}
    out: dict[int, int] = {}
    for x, coef in terms.items():
        key = x & mask
        try:
            transfer = memo[key]
        except KeyError:
            base, plus, minus = _multiset(tuple([key >> t & 3 for t in shifts]), signed)
            if first:
                plus = [a << first for a in plus]
                minus = [a << first for a in minus]
            transfer = memo[key] = ((plus, base), (minus, -base))
        rest = x & keep
        for arrangements, factor in transfer:
            gain = coef * factor
            for y in arrangements:
                out[y | rest] = gain
    return out


def _sized(lam, n: int) -> Partition:
    """lam as a Partition, checked to be a partition of the vector size n and
    within the size cap (before any factorial of its rows is taken)."""
    lam = Partition(lam)
    if lam.n > MAX_N:
        raise ValueError(f"symmetrizers require n <= {MAX_N}, got {lam.n}")
    if lam.n != n:
        raise ValueError(f"partition of {lam.n} does not match vector size {n}")
    return lam


def _check_budget(pairs: int, budget: int, lam=None) -> None:
    """Refuse the symmetrizer of lam (restricted when lam is None) over budget."""
    if pairs > budget:
        what = "restricted symmetrizer" if lam is None else f"symmetrizer for {tuple(lam)}"
        raise BudgetError(f"{what} needs {pairs} (row, column) pairs, budget is {budget}")


# The ``_block_sort`` of each (block, block colors, ``signed``) met so far,
# keyed by ``(mask << 1 | signed) << 2 * MAX_N | colors`` (the mask names the
# block's cells, and the colors, the coloring's bits under the mask, lie in
# the low 2 * MAX_N bits); rows and columns share it.  It is emptied when it
# holds _BLOCK_SORTS_LIMIT entries, so it never holds more than 32,768:
# about 6.3 MB when all are sorts of n = 20 blocks (traced with tracemalloc).
# The prop32 sweep of n <= 10 fills 6,612 and the hooks sweep of n <= 9 747.
# It stays a dict with int keys, not a ``functools`` cache on
# ``_block_sort``: the lookup sits in ``_orbit_sums``' innermost loop, and an
# ``lru_cache`` there made exact verdict misses about 10% slower.
_block_sorts: dict = {}
_BLOCK_SORTS_LIMIT = 1 << 15
_KEY_BITS = 2 * MAX_N


def _block_sort(key: int, block, signed: bool):
    """The sort of a block under the block sum B selected by ``signed``: for
    the block's colors ``key`` (a coloring y's bits under the block's mask),
    (ordered, odd, crossing) such that w_y B = sigma(y) w_z B, where z is y
    with the block's bits replaced by ``ordered``, the colors ascending, and
    sigma(y) is (-1)^(odd + the bit count of y & crossing).  None when two
    cells of the block share a ``_CANCELLING[signed]`` color: a transposition
    of B then fixes y at the sign -1, so w_y B = 0.

    The colors are sorted by adjacent exchanges.  An exchange t of colors a
    and b across fixed cells of XOR g gives w_y t = e w_{y.t}
    (``action_sign``) and t B = B, times -1 when ``signed``; e is
    (-1)^_ODD[a & b] (both colors in one factor) times (-1)^_ODD[(a ^ b) & g]
    (one color crossing g).  The first factor and the -1 of B give ``odd``.
    The exchanges across one gap change the XOR of the block's colors after it
    from d0 to d1, so their crossings multiply to (-1)^_ODD[(d0 ^ d1) & g],
    and g is a GF(2) sum over the gap's fixed cells: ``crossing`` holds
    d0 ^ d1 in every fixed cell of the gap."""
    shifts, _, inner, gaps = block
    colors = [key >> t & 3 for t in shifts]
    if any(colors.count(c) > 1 for c in _CANCELLING[signed]):
        return None
    ordered = colors[:]
    odd = 0
    for j in range(1, len(ordered)):
        i = j  # insert cell j's color below the sorted cells 0..j-1
        while i and ordered[i - 1] > ordered[i]:
            a, b = ordered[i - 1], ordered[i]
            odd ^= signed ^ _ODD[a & b]
            ordered[i - 1], ordered[i] = b, a
            i -= 1
    crossing = 0
    for i, low in zip(inner, gaps):
        crossing |= functools.reduce(operator.xor, colors[i + 1 :] + ordered[i + 1 :]) * low
    return sum(map(operator.lshift, ordered, shifts)), odd, crossing


def _orbit_sums(terms: dict, blocks, signed: bool) -> dict:
    """The sums S of the packed terms per orbit of the ``_block`` values
    ``blocks``: for each coloring z with every block's colors sorted, S(z) is
    the sum of terms[y] * sigma(y) over the y whose blocks sort to z
    (``_block_sort`` under the block sums selected by ``signed``), nonzero
    sums only.  The blocks are sorted one after another, each sign read off
    the coloring its predecessors left.  So for the product B of the block
    sums, the sum of S(z) w_z B is the sum of terms[y] w_y B, and no z is
    annihilated by a block."""
    sorts = _block_sorts
    tags = [(block, block[1], (block[1] << 1 | signed) << _KEY_BITS) for block in blocks]
    out: dict[int, int] = {}
    get = out.get
    for y, coef in terms.items():
        for block, mask, tag in tags:
            key = y & mask
            try:
                entry = sorts[tag | key]
            except KeyError:
                if len(sorts) >= _BLOCK_SORTS_LIMIT:
                    sorts.clear()
                entry = sorts[tag | key] = _block_sort(key, block, signed)
            if entry is None:
                break
            ordered, odd, crossing = entry
            y ^= key ^ ordered
            if odd ^ (y & crossing).bit_count() & 1:
                coef = -coef
        else:
            total = get(y, 0) + coef
            if total:
                out[y] = total
            elif y in out:
                del out[y]
    return out


def _apply_blocks(w: TensorVector, blocks, signed: bool) -> TensorVector:
    """Apply the block sum of each ``_block`` in turn (``_blocks`` orders them
    shortest first) to the orbit sums of w (``_orbit_sums``): the row sums;
    the column sums take ``_apply_columns``.

    With B the product of the block sums, the reduction is exact and leaves
    every block sum only sorted terms that no block annihilates:

    - the blocks are disjoint, so their sums commute and B sums over the
      product of their groups;
    - w_y B = sigma(y) w_z B when the blocks of y sort to z, and w_y B = 0
      when a block annihilates y (``_block_sort``);
    - a block sum rewrites only its own cells, so every image of a sorted
      term keeps each other block's colors, sorted.
    """
    terms = _orbit_sums(w.packed, blocks, signed)
    for block in blocks:
        terms = _apply_block_sum(terms, block, signed)
    return TensorVector._raw(w.n, w.k, w.l, terms)


def apply_row_symmetrizer(w: TensorVector, lam) -> TensorVector:
    """Act with the sum of all row-preserving permutations of lam."""
    return _apply_blocks(w, _tableau(_sized(lam, w.n))[3], signed=False)


def _expand_columns(sums: dict, w: TensorVector, frame) -> dict:
    """(S tau) C' for the column-orbit sums ``sums`` (S) of a vector in w's
    space and the ``_frame`` ``frame``: S relabelled into the column reading
    by tau and expanded by the block sums of C', packed, still in the
    reading.  tau carries each column, top to bottom, onto a block of
    consecutive cells, so every term keeps its block colors sorted and not
    annihilated, as each block sum requires."""
    tau, _, blocks = frame
    if tau is not None:
        sums = TensorVector._raw(w.n, w.k, w.l, sums).act(tau).packed
    for block in blocks:
        sums = _apply_block_sum(sums, block, True)
    return sums


def _apply_columns(w: TensorVector, columns, frame) -> TensorVector:
    """Act with the signed sum C over the column groups whose ``_blocks``
    are ``columns`` and whose ``_frame`` is ``frame``: w C =
    ((S tau) C') tau^-1 for the orbit sums S of w on the columns as they lie
    (``_orbit_sums``, ``_expand_columns``)."""
    terms = _expand_columns(_orbit_sums(w.packed, columns, True), w, frame)
    image = TensorVector._raw(w.n, w.k, w.l, terms)
    return image if frame[1] is None else image.act(frame[1])


def apply_column_antisymmetrizer(w: TensorVector, lam) -> TensorVector:
    """Act with the signed sum of all column-preserving permutations of lam."""
    geometry = _tableau(_sized(lam, w.n))
    return _apply_columns(w, geometry[4], geometry[6])


def apply_symmetrizer(w: TensorVector, lam, budget: int = DEFAULT_PAIR_BUDGET) -> TensorVector:
    """Act with the Young symmetrizer of the canonical tableau of lam:
    the row sum followed by the signed column sum."""
    lam = _sized(lam, w.n)
    _, _, pairs, rows, columns, _, frame = _tableau(lam)
    _check_budget(pairs, budget, lam)
    return _apply_columns(_apply_blocks(w, rows, signed=False), columns, frame)


# ---------------------------------------------------------------------------
# restricted symmetrizers


def _restricted_blocks(lam, members):
    """The selected cells of each row and of each column of the canonical
    tableau of lam, or None unless they form a sub-diagram: each row's
    selected cells are a prefix of the row, and the nonempty row lengths do
    not increase.  lam beyond the size cap is refused before its geometry
    is built."""
    lam = Partition(lam)
    if lam.n > MAX_N:
        raise ValueError(f"restrictions require n <= {MAX_N}, got {lam.n}")
    chosen = set(members)
    rows, columns = _tableau(lam)[:2]
    row_blocks = [tuple(p for p in cells if p in chosen) for cells in rows]
    lengths = [len(block) for block in row_blocks if block]
    if (
        sum(lengths) != len(chosen)  # a cell outside the diagram
        or any(block != cells[: len(block)] for block, cells in zip(row_blocks, rows))
        or lengths != sorted(lengths, reverse=True)
    ):
        return None
    return row_blocks, [tuple(p for p in cells if p in chosen) for cells in columns]


def restriction_compatible(lam, members) -> bool:
    """Whether the cells ``members`` of the canonical tableau are left-aligned
    with non-increasing (nonempty) row lengths, i.e. form a sub-diagram."""
    return _restricted_blocks(lam, members) is not None


def _sub_diagram(lam, members):
    """The blocks of ``_restricted_blocks``, or ValueError when there are none."""
    blocks = _restricted_blocks(lam, members)
    if blocks is None:
        raise ValueError(f"cells {sorted(members)} are not compatible with {tuple(lam)}")
    return blocks


def restriction_shape(lam, members) -> Partition:
    """The partition formed by the selected cells of the canonical tableau."""
    return Partition([len(block) for block in _sub_diagram(lam, members)[0] if block])


def restriction_coloring(x: Coloring, members) -> Coloring:
    """The colors of x read off the selected cells in increasing cell order."""
    return _new(Coloring, [x[p - 1] for p in sorted(members)])


def embed_perm(n: int, members, sigma: Permutation) -> Permutation:
    """Transport a permutation of [|members|] along the unique increasing
    enumeration of ``members``, fixing everything else."""
    cells = sorted(members)
    if sigma.n != len(cells):
        raise ValueError(f"permutation of [{sigma.n}] does not match {len(cells)} cells")
    images = list(range(1, n + 1))
    for t, cell in enumerate(cells, start=1):
        images[cell - 1] = cells[sigma(t) - 1]
    return Permutation(images)


def apply_restricted_symmetrizer(
    w: TensorVector, lam, members, budget: int = DEFAULT_PAIR_BUDGET
) -> TensorVector:
    """Act with the Young symmetrizer restricted to the selected cells: row
    and column groups are replaced by the pointwise stabilizers of the
    complement of ``members``."""
    row_blocks, col_blocks = _sub_diagram(_sized(lam, w.n), members)
    _check_budget(_pair_count(row_blocks + col_blocks), budget)
    w = _apply_blocks(w, _blocks(row_blocks), signed=False)
    return _apply_columns(w, _blocks(col_blocks), _frame(col_blocks, w.n))


# ---------------------------------------------------------------------------
# projection onto the standard-module quotient


# the expansion of a wedge that does not hold cell n: itself, with sign +1
_UNCHANGED = ((0, 1),)


def _last_cell_expansion(head: int, n: int) -> list:
    """The wedge of the cells set in ``head`` (bit 2(i-1) for cell i < n)
    followed by u_n, in the quotient basis u_1, ..., u_{n-1}: u_n is minus
    the sum of the others, and u_i moves into place past the cells of head
    above i.  As (bit of cell i, sign) pairs for the cells i < n outside head,
    ascending."""
    sign = 1 if head.bit_count() & 1 else -1  # -1 times the parity of head above cell 1
    out = []
    for t in range(0, 2 * n - 2, 2):
        if head >> t & 1:
            sign = -sign
        else:
            out.append((1 << t, sign))
    return out


def project_to_standard(w: TensorVector) -> TensorVector:
    """Image of w under the projection induced by quotienting the permutation
    module by the all-ones vector, as a vector over the colorings of [n-1]
    (the quotient basis u_1, ..., u_{n-1}) with the same k and l.  It is zero
    exactly when w lies in the kernel.

    The projection is pi (x) pi, the same rule in each tensor factor, so it
    commutes with the unsigned swap of the factors: the image of
    ``tensor_swap(w)`` is ``tensor_swap`` of this image.

    Each term's cell n is blanked and each tensor factor holding it is
    expanded on the packed key, so the image's keys are packed colorings with
    cell n blank."""
    n = w.n
    top = 2 * max(n - 1, 0)
    low = _low(n)
    # expansions by head bits, the second factor's moved to its bits
    lefts = {}
    rights = {}
    out: dict[int, int] = {}
    get = out.get
    for x, c in w.packed.items():
        color = x >> top & 3
        head = x ^ color << top
        left = right = _UNCHANGED
        if color & 1:
            bits = head & low
            try:
                left = lefts[bits]
            except KeyError:
                left = lefts[bits] = _last_cell_expansion(bits, n)
        if color & 2:
            bits = head >> 1 & low
            try:
                right = rights[bits]
            except KeyError:
                right = rights[bits] = [(b << 1, s) for b, s in _last_cell_expansion(bits, n)]
        for a, sa in left:
            a |= head
            ca = c * sa
            for b, sb in right:
                key = a | b
                total = get(key, 0) + ca * sb
                if total:
                    out[key] = total
                elif key in out:
                    del out[key]
    return TensorVector._raw(max(n - 1, 0), w.k, w.l, out)


# ---------------------------------------------------------------------------
# skew-symmetry verification


SymmetrizerReport = namedtuple("SymmetrizerReport", "lam x sign mode verified")
SymmetrizerReport.__doc__ = """Outcome of one skew-symmetry check between a
coloring and its color-swapped partner."""


def expected_skew_sign(lam) -> tuple[int, str]:
    """The sign predicted for ``w_x c = sign * w_{swapped} c`` together with
    the natural comparison mode for the shape of lam.

    Double hooks with even tail compare exactly with sign (-1)^(d1/2); hooks
    compare after projection with sign (-1)^floor(m/2).  No sign is defined
    for other shapes or odd tails.
    """
    shape = classify_shape(lam)
    if isinstance(shape, DoubleHook):
        if shape.d1 % 2:
            raise ValueError(f"no skew-symmetry sign for odd tail length {shape.d1}")
        return (-1) ** (shape.d1 // 2 % 2), "exact"
    if isinstance(shape, Hook):
        return (-1) ** (shape.m // 2 % 2), "mod-K"
    raise ValueError(f"no skew-symmetry sign for shape {tuple(Partition(lam))}")


def _half_difference(terms: dict, sign: int, low: int) -> dict:
    """Q(v) for the packed terms v and sign s, with y' = ``_swap(y, low)``:

    - Q[y] = v[y] - s * v[y'] for y < y',
    - Q[y] = v[y] for y = y' (no cell of color 1 or 2) when s = -1, and
      nothing when s = +1.

    v - s * swap(v) = Q - s * swap(Q), and Q is empty exactly when v = s *
    swap(v)."""
    get = terms.get
    half = {}
    for y, c in terms.items():
        partner = (y & low) << 1 | (y >> 1 & low)  # _swap(y, low), written out
        if y < partner:
            d = c - sign * get(partner, 0)
            if d:
                half[y] = d
        elif y > partner:
            if partner not in terms:
                half[partner] = -sign * c
        elif sign == -1:
            half[y] = c
    return half


# One verdict per (lam, least coloring of the orbit, sign, mode), the
# coloring read off x by ``verify_skew_symmetry``, which checks the budget
# before the lookup.  The sweeps of every hook
# with n <= 10 and every even-tail double hook with n <= 9 have 7,666 orbits in
# total, at most 384 for one shape, (3,2,2,1,1), so 8,192 entries hold those
# sweeps; ``verify --max-n 10 --suites prop32`` has 8,806 orbits and evicts.
@functools.lru_cache(maxsize=8192)
def _skew_holds(lam: Partition, x: Coloring, sign: int, mode: str) -> bool:
    """Whether ``w_x c = sign * w_{swapped} c`` holds, exactly or after the
    projection ("mod-K"), for lam and x already checked and within the
    budget; c = R C for the row group R and the column group C.

    Only the left side is computed.  The color swap is a module map: it
    commutes with the signed action, since swapping colors 1 and 2 leaves
    both wedge-sorting parities unchanged, and hence with every element of
    the group algebra.  So the right side is the swap of the left side, and
    the identity is lhs = sign * swap(lhs).  For k != l the two sides lie in
    different spaces and the identity is lhs = 0.

    Both modes share the first step of every column sum, the column-orbit
    sums S of u = w_x R on the columns as they lie:

    - for t in C, w_y t = e(y, t) w_{y.t} (``action_sign``) and t C =
      sgn(t) C, so w_y C = e(y, t) sgn(t) w_{y.t} C; for z = y.t, y with
      each column's colors sorted, w_y C = sigma(y) w_z C, where sigma(y)
      multiplies the factors of the adjacent exchanges of those sorts
      (``_block_sort``);
    - w_y C = 0 when a column of y holds two cells of color 0 or two of
      color 3, since then a transposition in C fixes y at the sign -1;
    - so u C is the sum of S(z) w_z C over the column-orbit sums S(z) of u
      (``_orbit_sums``), each z sorted and not annihilated;
    - for distinct such z, the vectors w_z C lie on disjoint C-orbits of
      colorings and hold w_z at the factor of z's stabilizer, so they are
      linearly independent, and u C = 0 exactly when S is empty: the
      verdict of both modes for k != l.

    Exactly, C is never expanded.  The swap commutes with C, so swap(u) C =
    swap(u C) is the sum of S(z) w_{swap z} C, and the orbit sums of
    swap(u) are those of the vector S with its keys swapped; the identity
    lhs = sign * swap(lhs) is (u - sign * swap u) C = 0, which holds exactly
    when S equals sign times those sums.

    Mod K the identity is P(lhs) = sign * swap(P(lhs)) for the projection P,
    and S takes the route of every column sum (``_expand_columns``) except
    the relabelling back:

    - with tau and C' = tau^-1 C tau of the column frame (``_frame``),
      lhs = u C = v' tau^-1 for v' = (S tau) C';
    - P and the swap are module maps: the swap as above, and P because it
      quotients each tensor factor by the all-ones vector, which every
      permutation fixes; so both commute with tau^-1, and P(lhs) - sign *
      swap(P(lhs)) = (P(v') - sign * swap(P(v'))) tau^-1;
    - tau^-1 acts invertibly, so the identity holds exactly when P(v') =
      sign * swap(P(v'));
    - P commutes with the swap (``project_to_standard``), so P(v' - sign *
      swap(v')) = P(Q) - sign * swap(P(Q)) with Q = Q(v'), the half-pair
      vector (``_half_difference``): the check projects Q, which has half the
      terms of the full difference, and holds exactly when Q(P(Q)) is empty.
    """
    w = TensorVector.basis(x)
    _, _, _, _, columns, _, frame = _tableau(lam)
    sums = _orbit_sums(apply_row_symmetrizer(w, lam).packed, columns, True)
    if w.k != w.l:
        return not sums
    low = _low(w.n)  # also swaps the projection's keys, whose cell n is blank
    if mode == "exact":
        swapped = _orbit_sums({_swap(z, low): s for z, s in sums.items()}, columns, True)
        return sums == {z: sign * s for z, s in swapped.items()}
    half = _half_difference(_expand_columns(sums, w, frame), sign, low)
    image = project_to_standard(TensorVector._raw(w.n, w.k, w.l, half))
    return not _half_difference(image.packed, sign, low)


def verify_skew_symmetry(
    lam, x, expected_sign: int, mode: str = "exact", budget: int = DEFAULT_PAIR_BUDGET
) -> SymmetrizerReport:
    """Check ``w_x c = expected_sign * w_{swapped} c``, exactly or after
    projection ("mod-K"), and report whether it holds (``_skew_holds``).

    The verdict is computed once per orbit of colorings, not once per
    coloring.  Take c = R C for the row group R and the column group C of the
    canonical tableau, applied on the right.

    - For s in R, s R = R, so w_{x.s} c = +-w_x s R C = +-w_x c.
    - Let t exchange two rows of equal length, cell by cell down their
      columns.  Then t lies in C and t R t^-1 = R, so w_{x.t} c = +-w_x t R C
      = +-w_x R t C = +-w_x c.
    - The verdict, exact or after the projection, does not change when the
      computed side v is replaced by -v.

    So the verdict depends only on lam, the sign, the mode, and, for each run
    of equal rows, the multiset of the rows' color multisets; a run of
    single-cell rows, or of one row, reduces to its sorted colors.  The rows
    are contiguous, so each run is a slice of x (``_runs``), and the memo key
    is the orbit's least coloring: per run, the sorted slice, or the rows'
    sorted colors with the rows in ascending order.  A miss checks that
    coloring (``_skew_holds``); the report carries x.  The budget depends
    only on lam and is checked before the lookup, so a warm memo never
    answers an over-budget check.
    """
    if mode not in ("exact", "mod-K"):
        raise ValueError(f"mode must be 'exact' or 'mod-K', got {mode!r}")
    if type(expected_sign) is not int or expected_sign not in (1, -1):
        raise ValueError(f"expected sign must be +-1, got {expected_sign!r}")
    x = Coloring(x)
    lam = _sized(lam, len(x))  # the size guards run on every call, before the key
    geometry = _tableau(lam)
    _check_budget(geometry[2], budget, lam)
    least = []
    for a, b, r in geometry[5]:
        if r == b - a:
            least += sorted(x[a:b])
        else:
            for row in sorted([sorted(x[i : i + r]) for i in range(a, b, r)]):
                least += row
    verified = _skew_holds(lam, _new(Coloring, least), expected_sign, mode)
    return SymmetrizerReport(lam, x, expected_sign, mode, verified)
