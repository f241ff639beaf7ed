"""Colored tensor bases and exact Young-symmetrizer computations.

A coloring x: [n] -> {0,1,2,3} encodes a standard basis vector u_I (x) u_J of
the tensor product of two exterior powers of the n-dimensional permutation
module: I = x^-1({1,3}), J = x^-1({2,3}).  The symmetric group acts on the
right, permuting positions at the cost of a sign; this module implements that
sign, the color-switch module maps, proper swaps, full and restricted Young
symmetrizers for the canonical tableau, and the projection onto the
standard-module quotient.

The canonical tableau's geometry is computed once per shape (``_tableau``),
and ``Coloring`` and ``Partition`` return an existing instance unchanged.

Symmetrizer application never materializes the group-algebra element: each
row (column) factor is applied as a sum over distinct color arrangements of
that row (column), with the stabilizer of the coloring summed in closed form.
Arrangements whose stabilizer sum cancels are dropped before any expansion.
The signed arrangements a term expands into (its transfer) are derived from
one process-wide entry per sorted color multiset, which enumerates the
arrangements and their signs once (see the comment above ``_multisets``).  Two
parity identities, sort parity (the block's own order of colors) and gap
parity (the fixed cells between block cells), give each term's signs in O(r)
integer XORs.  A block without inner gaps, such as every row, writes each
arrangement as one slice.

A skew-symmetry check applies the symmetrizer once: the color swap is a
module map, so the swapped side is the swap of the computed side.  The check
then reads the computed side in one pass, looking up each term's color-swapped
partner, and builds neither the swapped vector nor a scaled copy of it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .partitions import (
    MAX_N,
    DoubleHook,
    Hook,
    Partition,
    Permutation,
    classify_shape,
)

DEFAULT_PAIR_BUDGET = 10**7


class BudgetError(RuntimeError):
    """Symmetrizer application would exceed the configured pair budget."""


_SWAP12 = (0, 2, 1, 3)
_COMPLEMENT = (3, 2, 1, 0)
# builds a Coloring from trusted colors without a classmethod frame
_new = tuple.__new__


class Coloring(tuple):
    """A function [n] -> {0,1,2,3}, position i carrying the color of cell i."""

    def __new__(cls, colors):
        if type(colors) is Coloring:
            return colors
        colors = tuple(int(c) for c in colors)
        if any(c not in (0, 1, 2, 3) for c in colors):
            raise ValueError(f"colors must lie in {{0,1,2,3}}: {colors}")
        return super().__new__(cls, colors)

    @classmethod
    def _unsafe(cls, colors) -> "Coloring":
        return tuple.__new__(cls, colors)

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
        return Coloring._unsafe(out)

    def swap_colors(self) -> "Coloring":
        """Exchange colors 1 and 2 everywhere (swap the tensor factors)."""
        return _new(Coloring, [_SWAP12[c] for c in self])

    def swap_colors_in(self, members) -> "Coloring":
        """Exchange colors 1 and 2 on the given cells only."""
        inside = set(members)
        return Coloring._unsafe(
            _SWAP12[c] if i + 1 in inside else c for i, c in enumerate(self)
        )

    def complement_colors(self) -> "Coloring":
        """Replace every color c by 3 - c (complement both index sets)."""
        return Coloring._unsafe([_COMPLEMENT[c] for c in self])

    def __repr__(self):
        return f"Coloring({tuple(self)})"


def enumerate_colorings(n: int, k: int, l: int):
    """All colorings with |x^-1({1,3})| = k and |x^-1({2,3})| = l, in
    lexicographic order of the color array."""
    if n < 0 or not 0 <= k <= n or not 0 <= l <= n:
        raise ValueError(f"need 0 <= k, l <= n, got n={n}, k={k}, l={l}")

    for colors in itertools.product((0, 1, 2, 3), repeat=n):
        threes = colors.count(3)
        if colors.count(1) + threes == k and colors.count(2) + threes == l:
            yield Coloring._unsafe(colors)


def _inversions(seq) -> int:
    count = 0
    for i in range(len(seq)):
        a = seq[i]
        for j in range(i + 1, len(seq)):
            if a > seq[j]:
                count += 1
    return count


def _sign_from_images(x, images) -> int:
    total = 0
    for pair in ((1, 3), (2, 3)):
        seq = [images[i] for i, c in enumerate(x) if c in pair]
        total += _inversions(seq)
    return -1 if total % 2 else 1


def action_sign(x: Coloring, s: Permutation) -> int:
    """The sign relating the acted basis vector to the acted coloring's basis
    vector: w_x . s = action_sign(x, s) * w_{x.s}.

    It is the product of the two wedge-sorting parities, one for each tensor
    factor.
    """
    if s.n != len(x):
        raise ValueError("permutation size does not match coloring size")
    return _sign_from_images(x, s.images)


class TensorVector:
    """A sparse exact-integer combination of colored basis vectors, all lying
    in one fixed product of exterior powers."""

    __slots__ = ("n", "k", "l", "terms")

    def __init__(self, n: int, k: int, l: int, terms=None):
        clean = {}
        for x, c in (terms or {}).items():
            x = Coloring(x)
            if x.n != n or x.k != k or x.l != l:
                raise ValueError(f"coloring {tuple(x)} does not lie in the ({n},{k},{l}) space")
            if c:
                clean[x] = c
        self.n, self.k, self.l = n, k, l
        self.terms = clean

    @classmethod
    def _raw(cls, n, k, l, terms) -> "TensorVector":
        v = object.__new__(cls)
        v.n, v.k, v.l = n, k, l
        v.terms = terms
        return v

    @classmethod
    def zero(cls, n: int, k: int, l: int) -> "TensorVector":
        return cls._raw(n, k, l, {})

    @classmethod
    def basis(cls, x, coeff: int = 1) -> "TensorVector":
        x = Coloring(x)
        return cls._raw(x.n, x.k, x.l, {x: coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_same_space(self, other):
        if (self.n, self.k, self.l) != (other.n, other.k, other.l):
            raise ValueError("vectors live in different spaces")

    def __add__(self, other: "TensorVector") -> "TensorVector":
        self._check_same_space(other)
        out = dict(self.terms)
        for x, c in other.terms.items():
            s = out.get(x, 0) + c
            if s:
                out[x] = s
            elif x in out:
                del out[x]
        return TensorVector._raw(self.n, self.k, self.l, out)

    def __neg__(self) -> "TensorVector":
        return TensorVector._raw(self.n, self.k, self.l, {x: -c for x, c in self.terms.items()})

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-other)

    def __mul__(self, scalar: int) -> "TensorVector":
        if not scalar:
            return TensorVector.zero(self.n, self.k, self.l)
        return TensorVector._raw(
            self.n, self.k, self.l, {x: c * scalar for x, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def act(self, s: Permutation) -> "TensorVector":
        """Linear extension of the signed basis action; invertible."""
        if s.n != self.n:
            raise ValueError("permutation size does not match vector size")
        out = {}
        for x, c in self.terms.items():
            out[x.act(s)] = c * _sign_from_images(x, s.images)
        return TensorVector._raw(self.n, self.k, self.l, out)

    def __eq__(self, other):
        return (
            isinstance(other, TensorVector)
            and (self.n, self.k, self.l) == (other.n, other.k, other.l)
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return f"TensorVector.zero({self.n}, {self.k}, {self.l})"
        body = " + ".join(f"{c}*w{tuple(x)}" for x, c in sorted(self.terms.items()))
        return f"TensorVector[{body}]"


def tensor_swap(w: TensorVector) -> TensorVector:
    """The module map sending each basis vector to its color-swapped partner
    (exchanging the two tensor factors); no signs appear."""
    return TensorVector._raw(
        w.n, w.l, w.k, {x.swap_colors(): c for x, c in w.terms.items()}
    )


def _complement_sign(x: Coloring) -> int:
    I, J = x.support()
    k, l = len(I), len(J)
    expo = sum(I) + sum(J) + k * (k + 1) // 2 + l * (l + 1) // 2
    return -1 if expo % 2 else 1


def tensor_complement(w: TensorVector) -> TensorVector:
    """The module map w_x -> h(x) * w over the complemented coloring, where
    h(x) is the parity of sorting each index set against its complement."""
    return TensorVector._raw(
        w.n,
        w.n - w.k,
        w.n - w.l,
        {x.complement_colors(): c * _complement_sign(x) for x, c in w.terms.items()},
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


@functools.lru_cache(maxsize=4096)
def _tableau(lam: Partition) -> tuple[tuple, tuple, int]:
    """Row and column blocks of the canonical tableau of lam (filled 1..n row by
    row) and their pair count; the bound exceeds the 2,714 shapes of n <= MAX_N."""
    ends = tuple(itertools.accumulate(lam, initial=0))
    rows = tuple(tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:]))
    columns = tuple(tuple(p for p in column if p) for column in itertools.zip_longest(*rows))
    return rows, columns, _pair_count(rows + columns)


def row_cells(lam) -> list[tuple[int, ...]]:
    """Cell numbers of each row of the canonical tableau."""
    return list(_tableau(Partition(lam))[0])


def column_cells(lam) -> list[tuple[int, ...]]:
    """Cell numbers of each column of the canonical tableau."""
    return list(_tableau(Partition(lam))[1])


def symmetrizer_pair_count(lam) -> int:
    """|row group| * |column group|: the work estimate guarded by the budget."""
    return _tableau(Partition(lam))[2]


# parity of the number of set bits of a color read as a two-bit mask: bit 0
# marks the first tensor factor (colors 1, 3), bit 1 the second (colors 2, 3)
_ODD = (0, 1, 1, 0)


# The only state the symmetrizer kernel keeps across calls: one entry per
# (sorted block colors, ``signed``), None when the stabilizer sum cancels, else
# the shared arrangements, index, parity planes, sign mask and stabilizer factor
# of ``_multiset``.  It holds at most one entry per multiset of length 2..MAX_N
# over four colors and per ``signed``, 2 * (C(24, 4) - 5), so it needs no limit.
#
# A term's transfer depends only on its block colors and, per inner gap (block
# cells i and i+1 not adjacent), the XOR of the colors of the fixed cells in it:
# only the parities of the fixed cells of color 1 or 3 and of color 2 or 3
# matter.  Sort parity: signs compose along order-preserving permutations, so
# the gapless mask of any arrangement of the multiset is the sorted mask,
# complemented when the sorted mask's bit at that arrangement is set.  Gap
# parity: the crossing sign _ODD[c & g] is a GF(2) dot product, so the fixed
# cells a block cell crosses split into a source part (fixed by the term) and a
# target part (one plane per slot).
_multisets: dict = {}


def _multiset(ordered, signed: bool):
    """The ``_multisets`` value of the sorted colors ``ordered``: None when
    the stabilizer sum cancels, else (arrangements, index, planes, mask, base).
    Bit i of mask is the sign parity of arrangement i against ``ordered`` in a
    gapless block, and bit i of planes[j][g] is _ODD[arrangement i's slot-j
    color & g].

    With the plain sum, two equal cells of color 1 or 2 cancel the stabilizer
    sum and equal 0/3 cells contribute factorials; with the signed sum the
    roles of {1,2} and {0,3} swap.
    """
    r = len(ordered)
    left = [ordered.count(c) for c in (0, 1, 2, 3)]
    total = tuple(left)
    cancel, bulk = ((0, 3), (1, 2)) if signed else ((1, 2), (0, 3))
    if any(total[c] >= 2 for c in cancel):
        return None
    base = math.factorial(total[bulk[0]]) * math.factorial(total[bulk[1]])
    # the colors d > c whose inverted pairs with c change the sign: in sorted
    # order every placed cell of such a color lies right of the next cell of c
    later = [[d for d in range(c + 1, 4) if _ODD[c & d] ^ signed] for c in (0, 1, 2, 3)]
    slot = [0] * r
    arrangements = []
    mask = 0

    def place(j, odd):
        # fill arrangement slot j with the next unused cell of some color
        nonlocal mask
        if j == r:
            mask |= odd << len(arrangements)
            arrangements.append(tuple(slot))
            return
        for c in (0, 1, 2, 3):
            if left[c]:
                step = odd
                for d in later[c]:
                    step ^= total[d] - left[d]
                left[c] -= 1
                slot[j] = c
                place(j + 1, step & 1)
                left[c] += 1

    place(0, 0)
    bits = [[0, 0] for _ in range(r)]
    for i, arrangement in enumerate(arrangements):
        for j, c in enumerate(arrangement):
            if c & 1:
                bits[j][0] |= 1 << i
            if c & 2:
                bits[j][1] |= 1 << i
    planes = tuple((0, a, b, a ^ b) for a, b in bits)
    index = {arrangement: i for i, arrangement in enumerate(arrangements)}
    return tuple(arrangements), index, planes, mask, base


def _block_transfer(colors, inner, xors, signed: bool):
    """The transfer of a term with block ``colors`` and gap XORs ``xors`` at
    ``inner`` under the block sum selected by ``signed``: None when the
    stabilizer sum cancels, else (arrangements, base, mask), bit i of mask set
    when arrangement i carries the factor -base.

    The factor of an arrangement is the closed-form stabilizer sum times the
    sign of the order-preserving permutation carrying ``colors`` onto it: one
    sign per inverted pair of block cells sharing a tensor factor (plus one per
    inversion when ``signed``), and one per fixed cell that a moving block cell
    crosses and shares a tensor factor with.  The signs are derived from the
    multiset's gapless mask by the two parities above ``_multisets``.
    """
    multiset = (tuple(sorted(colors)), signed)
    try:
        entry = _multisets[multiset]
    except KeyError:
        entry = _multisets[multiset] = _multiset(*multiset)
    if entry is None:
        return None
    arrangements, index, planes, mask, base = entry
    full = (1 << len(arrangements)) - 1
    if mask >> index[colors] & 1:
        mask ^= full
    # reach: XOR of the fixed cells between block cells 0 and j
    reach = odd = gap = 0
    for j, c in enumerate(colors):
        if reach:
            mask ^= planes[j][reach]
            odd ^= _ODD[c & reach]
        if gap < len(inner) and inner[gap] == j:
            reach ^= xors[gap]
            gap += 1
    if odd:
        mask ^= full
    return arrangements, base, mask


def _apply_block_sum(v: TensorVector, cells, signed: bool) -> TensorVector:
    """Apply the sum over all permutations of ``cells`` (ascending; signed by
    the permutation parity when ``signed``) to v.

    For each term the sum over the stabilizer of its colors collapses to a
    closed-form factor, and what remains is one signed representative per
    distinct color arrangement: the term's transfer (``_block_transfer``).
    Terms of one call that share their block colors (and, in a block with
    gaps, their gap XORs) share a transfer through a memo local to the call.
    """
    r = len(cells)
    if r < 2:
        return v
    take = operator.itemgetter(*(p - 1 for p in cells))
    inner = tuple(i for i in range(r - 1) if cells[i + 1] - cells[i] > 1)
    spans = [(cells[i], cells[i + 1] - 1) for i in inner]
    # a block without inner gaps (every row) is written as one slice
    lo, hi = cells[0] - 1, cells[-1]
    positions = [p - 1 for p in cells]
    xors = ()
    new = _new
    memo = {}
    out: dict[Coloring, int] = {}
    for x, coef in v.terms.items():
        key = colors = take(x)
        if inner:
            xors = tuple(functools.reduce(operator.xor, x[a:b]) for a, b in spans)
            key = colors, xors
        try:
            entry = memo[key]
        except KeyError:
            entry = memo[key] = _block_transfer(colors, inner, xors, signed)
        if entry is None:
            continue
        arrangements, base, mask = entry
        plus = coef * base
        minus = -plus
        head, tail = x[:lo], x[hi:]
        for arrangement in arrangements:
            if arrangement == colors:
                y = x
            elif not inner:
                y = new(Coloring, head + arrangement + tail)
            else:
                ylist = list(x)
                for p, col in zip(positions, arrangement):
                    ylist[p] = col
                y = new(Coloring, ylist)
            total = out.get(y, 0) + (minus if mask & 1 else plus)
            mask >>= 1
            if total:
                out[y] = total
            elif y in out:
                del out[y]
    return TensorVector._raw(v.n, v.k, v.l, out)


def _sized(lam, w: TensorVector) -> Partition:
    """lam as a Partition, checked to be a partition of the vector size and
    within the size cap (before any factorial of its rows is taken)."""
    lam = Partition(lam)
    if lam.n > MAX_N:
        raise ValueError(f"symmetrizers require n <= {MAX_N}, got {lam.n}")
    if lam.n != w.n:
        raise ValueError(f"partition of {lam.n} does not match vector size {w.n}")
    return lam


def _check_budget(pairs: int, budget: int, lam=None) -> None:
    """Refuse the symmetrizer of lam (restricted when lam is None) over budget."""
    if pairs > budget:
        what = "restricted symmetrizer" if lam is None else f"symmetrizer for {tuple(lam)}"
        raise BudgetError(f"{what} needs {pairs} (row, column) pairs, budget is {budget}")


def _apply_blocks(w: TensorVector, blocks, signed: bool) -> TensorVector:
    for cells in blocks:
        w = _apply_block_sum(w, cells, signed)
    return w


def apply_row_symmetrizer(w: TensorVector, lam) -> TensorVector:
    """Act with the sum of all row-preserving permutations of lam."""
    return _apply_blocks(w, _tableau(_sized(lam, w))[0], signed=False)


def apply_column_antisymmetrizer(w: TensorVector, lam) -> TensorVector:
    """Act with the signed sum of all column-preserving permutations of lam."""
    return _apply_blocks(w, _tableau(_sized(lam, w))[1], signed=True)


def apply_symmetrizer(w: TensorVector, lam, budget: int = DEFAULT_PAIR_BUDGET) -> TensorVector:
    """Act with the Young symmetrizer of the canonical tableau of lam:
    the row sum followed by the signed column sum."""
    lam = _sized(lam, w)
    _check_budget(_tableau(lam)[2], budget, lam)
    return apply_column_antisymmetrizer(apply_row_symmetrizer(w, lam), lam)


# ---------------------------------------------------------------------------
# restricted symmetrizers


def _restricted_blocks(lam: Partition, members):
    """The selected cells of each row and of each column of the canonical
    tableau of lam, or None unless they form a sub-diagram: each row's
    selected cells are a prefix of the row, and the nonempty row lengths do
    not increase."""
    chosen = set(members)
    rows, columns, _ = _tableau(lam)
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
    return _restricted_blocks(Partition(lam), members) is not None


def _sub_diagram(lam: Partition, members):
    """The blocks of ``_restricted_blocks``, or ValueError when there are none."""
    blocks = _restricted_blocks(lam, members)
    if blocks is None:
        raise ValueError(f"cells {sorted(members)} are not compatible with {tuple(lam)}")
    return blocks


def restriction_shape(lam, members) -> Partition:
    """The partition formed by the selected cells of the canonical tableau."""
    return Partition([len(block) for block in _sub_diagram(Partition(lam), members)[0] if block])


def restriction_coloring(x: Coloring, members) -> Coloring:
    """The colors of x read off the selected cells in increasing cell order."""
    return Coloring._unsafe(x[p - 1] for p in sorted(members))


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
    row_blocks, col_blocks = _sub_diagram(_sized(lam, w), members)
    _check_budget(_pair_count(row_blocks + col_blocks), budget)
    return _apply_blocks(_apply_blocks(w, row_blocks, signed=False), col_blocks, signed=True)


# ---------------------------------------------------------------------------
# projection onto the standard-module quotient


@functools.lru_cache(maxsize=4096)
def _reduce_index_set(n: int, idx: tuple[int, ...]) -> tuple:
    """Rewrite a wedge of permutation-basis vectors in the quotient basis
    v_1, ..., v_{n-1}: the last basis vector maps to minus the sum of the
    others.  Cached, so the result is a tuple of (sign, index set) pairs."""
    if n not in idx:
        return ((1, idx),)
    head = idx[:-1]
    out = []
    for i in range(1, n):
        if i in head:
            continue
        bigger = sum(1 for a in head if a > i)
        sign = -1 if bigger % 2 == 0 else 1
        out.append((sign, tuple(sorted(head + (i,)))))
    return tuple(out)


def project_to_standard(w: TensorVector) -> dict:
    """Image of w under the projection induced by quotienting the permutation
    module by the all-ones vector, as coordinates over pairs of index sets
    inside [n-1].  The result is empty exactly when w lies in the kernel."""
    out: dict[tuple, int] = {}
    for x, c in w.terms.items():
        I, J = x.support()
        left = _reduce_index_set(w.n, I)
        right = _reduce_index_set(w.n, J)
        for sa, A in left:
            for sb, B in right:
                key = (A, B)
                total = out.get(key, 0) + c * sa * sb
                if total:
                    out[key] = total
                elif key in out:
                    del out[key]
    return out


# ---------------------------------------------------------------------------
# skew-symmetry verification


@dataclass(frozen=True)
class SymmetrizerReport:
    """Outcome of one skew-symmetry check between a coloring and its
    color-swapped partner."""

    lam: Partition
    x: Coloring
    sign: int
    mode: str
    verified: bool


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


def verify_skew_symmetry(
    lam, x, expected_sign: int, mode: str = "exact", budget: int = DEFAULT_PAIR_BUDGET
) -> SymmetrizerReport:
    """Check ``w_x c = expected_sign * w_{swapped} c``, exactly or after
    projection ("mod-K"), and report whether it holds.

    Only the left side is computed.  The color swap is a module map: it
    commutes with the signed action, since swapping colors 1 and 2 leaves
    both wedge-sorting parities unchanged, and hence with every element of
    the group algebra.  So the right side is the swap of the left side.

    Neither the swapped side nor a difference vector is built.  The swap is
    an involution and no stored coefficient is 0, so the exact identity holds
    when every term's swapped partner carries expected_sign times its
    coefficient.  The mod-K check projects lhs - expected_sign * swap(lhs),
    whose coefficients at a coloring and at its swapped partner are d and
    -expected_sign * d; one pass over the terms of lhs writes both.
    """
    if mode not in ("exact", "mod-K"):
        raise ValueError(f"mode must be 'exact' or 'mod-K', got {mode!r}")
    if expected_sign not in (1, -1):
        raise ValueError(f"expected sign must be +-1, got {expected_sign}")
    lam = Partition(lam)
    x = Coloring(x)
    lhs = apply_symmetrizer(TensorVector.basis(x), lam, budget)
    terms = lhs.terms
    get = terms.get
    if x.k != x.l:
        verified = not terms
    elif mode == "exact":
        # a Coloring hashes and compares as the plain tuple of its colors
        verified = True
        for y, c in terms.items():
            if get(tuple([_SWAP12[a] for a in y])) != expected_sign * c:
                verified = False
                break
    else:
        diff = {}
        for y, c in terms.items():
            partner = _new(Coloring, [_SWAP12[a] for a in y])
            d = c - expected_sign * get(partner, 0)
            if d:
                diff[y] = d
                diff[partner] = -expected_sign * d
        verified = not project_to_standard(TensorVector._raw(lhs.n, lhs.k, lhs.l, diff))
    return SymmetrizerReport(lam=lam, x=x, sign=expected_sign, mode=mode, verified=verified)
