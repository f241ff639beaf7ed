"""Independent brute-force oracles used to pin expected test values.

Everything here deliberately avoids the code paths under test: groups are
enumerated element by element, partitions by multiplicity vectors, dimensions
by counting standard tableaux, symmetrizers by the literal double sum,
block transfers by the full recursion over each key's arrangement slots,
projections by rewriting u_n and sorting each wedge by counting inversions,
skew-symmetry verdicts by computing the swapped side on its own, and orbits
of colorings by closing under one permutation per generator.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache, lru_cache

from hooksq import Permutation, TensorVector, apply_symmetrizer


def brute_partitions(n):
    """All partitions of n via multiplicity vectors (largest part first)."""
    out = set()

    def rec(largest, remaining, acc):
        if remaining == 0:
            out.add(tuple(acc))
            return
        if largest == 0:
            return
        for count in range(remaining // largest, -1, -1):
            rec(largest - 1, remaining - count * largest, acc + [largest] * count)

    rec(n, n, [])
    return out


def brute_transpose(lam):
    """Column lengths read off a filled grid."""
    lam = tuple(lam)
    if not lam:
        return ()
    grid = [[1] * r for r in lam]
    cols = []
    for j in range(lam[0]):
        cols.append(sum(1 for row in grid if len(row) > j))
    return tuple(cols)


def brute_coordinates(lam):
    """The (row, column) coordinates of each cell of the canonical tableau,
    cells numbered 1..n row by row."""
    coords = {}
    for r, length in enumerate(lam):
        for c in range(length):
            coords[len(coords) + 1] = (r, c)
    return coords


def brute_cells(lam):
    """The cell numbers of each row and of each column of the canonical
    tableau, read off (row, column) coordinates."""
    coords = brute_coordinates(lam)
    rows = [tuple(p for p, (r, _) in coords.items() if r == i) for i in range(len(lam))]
    width = max(lam, default=0)
    cols = [tuple(p for p, (_, c) in coords.items() if c == j) for j in range(width)]
    return rows, cols


def brute_restriction(lam, members):
    """The row lengths of the sub-diagram that the cells ``members`` of the
    canonical tableau (numbered row by row) form, read off (row, column)
    coordinates, or None unless every member lies in the diagram, each row's
    selected columns are 0..h-1, and the nonempty row lengths do not
    increase."""
    coords = brute_coordinates(lam)
    if any(p not in coords for p in members):
        return None
    lengths = []
    for r in range(len(lam)):
        columns = sorted(c for p, (row, c) in coords.items() if row == r and p in members)
        if columns != list(range(len(columns))):
            return None
        if columns:
            lengths.append(len(columns))
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        return None
    return tuple(lengths)


def brute_class_sizes(n):
    """Cycle-type census of the full symmetric group, n <= 8."""
    sizes = {}
    for images in itertools.permutations(range(1, n + 1)):
        ct = Permutation(images).cycle_type()
        sizes[ct] = sizes.get(ct, 0) + 1
    return sizes


@cache
def brute_mn(lam, ct):
    """Murnaghan-Nakayama rule on plain tuples: for each bead of the beta list
    of lam that can drop by ct[0] onto an empty position, rebuild, sort and
    strip the shape, and recurse on the remaining cycles."""
    lam, ct = tuple(lam), tuple(ct)
    if not ct:
        return 1
    strip, rest = ct[0], ct[1:]
    h = len(lam)
    beta = [lam[i] + h - 1 - i for i in range(h)]
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for other in beta if nb < other < b)
        newbeta = sorted((nb if other == b else other for other in beta), reverse=True)
        newlam = tuple(v - (h - 1 - i) for i, v in enumerate(newbeta))
        while newlam and newlam[-1] == 0:
            newlam = newlam[:-1]
        total += (-1) ** height * brute_mn(newlam, rest)
    return total


def brute_standard_tableaux(lam):
    """Number of standard fillings, counted by direct recursion."""
    lam = tuple(lam)
    n = sum(lam)
    heights = [0] * len(lam)

    def rec(placed):
        if placed == n:
            return 1
        total = 0
        for r, width in enumerate(lam):
            if heights[r] < width and (r == 0 or heights[r] < heights[r - 1]):
                heights[r] += 1
                total += rec(placed + 1)
                heights[r] -= 1
        return total

    return rec(0)


def brute_branch_up(mu):
    """All partitions of |mu|+1 whose diagram contains mu."""
    mu = tuple(mu)
    boxes = {(r, c) for r, width in enumerate(mu) for c in range(width)}
    out = set()
    for lam in brute_partitions(sum(mu) + 1):
        bigger = {(r, c) for r, width in enumerate(lam) for c in range(width)}
        if boxes <= bigger:
            out.add(lam)
    return out


def representative_permutation(ct):
    """A permutation with the given cycle type, cycles filled consecutively."""
    ct = tuple(ct)
    cycles = []
    nxt = 1
    for length in ct:
        cycles.append(tuple(range(nxt, nxt + length)))
        nxt += length
    return Permutation.from_cycles(sum(ct), cycles)


def block_group(n, blocks):
    """All permutations preserving each block, as explicit elements."""
    return _block_group(n, tuple(map(tuple, blocks)))


@lru_cache(maxsize=8)
def _block_group(n, blocks):
    per_block = []
    for cells in blocks:
        cells = list(cells)
        perms = []
        for images in itertools.permutations(cells):
            full = list(range(1, n + 1))
            for src, dst in zip(cells, images):
                full[src - 1] = dst
            perms.append(Permutation(full))
        per_block.append(perms)
    out = []
    for combo in itertools.product(*per_block):
        g = Permutation.identity(n)
        for p in combo:
            g = g * p
        out.append(g)
    return tuple(out)


def brute_block_sum(w, cells, signed):
    """The literal sum of w.b over every permutation b of ``cells``, each
    term times b.sign() when ``signed``."""
    out = TensorVector.zero(w.n, w.k, w.l)
    for b in block_group(w.n, [cells]):
        out = out + (b.sign() if signed else 1) * w.act(b)
    return out


def brute_transfer(colors, inner, xors, signed):
    """The transfer-table entry of one block-sum key, by the full recursion
    over the arrangement slots: None when the stabilizer sum cancels, else
    (arrangements in lexicographic order, stabilizer factor, sign mask).

    Slot j takes the next unused block cell i of some color c.  The sign
    flips once per earlier-placed cell right of i that shares a tensor factor
    with it (or for every such cell when ``signed``), and once per fixed cell
    of a shared factor that cell i crosses on its way to slot j.
    """
    m = [colors.count(c) for c in (0, 1, 2, 3)]
    if signed:
        if m[0] >= 2 or m[3] >= 2:
            return None
        base = math.factorial(m[1]) * math.factorial(m[2])
    else:
        if m[1] >= 2 or m[2] >= 2:
            return None
        base = math.factorial(m[0]) * math.factorial(m[3])
    r = len(colors)
    # reach[i] ^ reach[j]: XOR of the fixed cells between block cells i and j
    reach = [0] * r
    for i, g in zip(inner, xors):
        for j in range(i + 1, r):
            reach[j] ^= g
    src = ([], [], [], [])
    # below[d][i]: block cells of color d left of block cell i
    below = ([], [], [], [])
    for i, c in enumerate(colors):
        for d in (0, 1, 2, 3):
            below[d].append(len(src[d]))
        src[c].append(i)
    odd_bits = (0, 1, 1, 0)
    flip = [[odd_bits[c & d] ^ signed for d in (0, 1, 2, 3)] for c in (0, 1, 2, 3)]
    taken = [0, 0, 0, 0]
    slot = [0] * r
    arrangements = []
    mask = 0

    def place(j, odd):
        nonlocal mask
        if j == r:
            mask |= odd << len(arrangements)
            arrangements.append(tuple(slot))
            return
        for c in (0, 1, 2, 3):
            if taken[c] == m[c]:
                continue
            i = src[c][taken[c]]
            step = odd ^ odd_bits[c & (reach[i] ^ reach[j])]
            for d in (0, 1, 2, 3):
                if flip[c][d] and taken[d] > below[d][i]:
                    step ^= (taken[d] - below[d][i]) & 1
            taken[c] += 1
            slot[j] = c
            place(j + 1, step)
            taken[c] -= 1

    place(0, 0)
    return tuple(arrangements), base, mask


def brute_blocks(n):
    """Every block (cells, signed) of more than one cell that a full or a
    restricted symmetrizer of some lambda of n applies: the rows (signed
    False) and the columns (signed True) of each sub-diagram, read off
    ``brute_cells`` and ``brute_restriction``."""
    blocks = set()
    for lam in brute_partitions(n):
        rows, cols = brute_cells(lam)
        for size in range(2, n + 1):
            for members in itertools.combinations(range(1, n + 1), size):
                if brute_restriction(lam, members) is None:
                    continue
                for group, signed in ((rows, False), (cols, True)):
                    for cells in group:
                        block = tuple(p for p in cells if p in members)
                        if len(block) > 1:
                            blocks.add((block, signed))
    return sorted(blocks)


def brute_symmetrizer(w, lam):
    """The literal double sum over the row and column groups."""
    rows, cols = brute_cells(lam)
    n = w.n
    out = TensorVector.zero(n, w.k, w.l)
    for a in block_group(n, rows):
        wa = w.act(a)
        for b in block_group(n, cols):
            out = out + b.sign() * wa.act(b)
    return out


def brute_wedge_in_quotient(n, idx):
    """The wedge u_idx (idx ascending) in the basis u_1, ..., u_{n-1} of the
    quotient by the all-ones vector, as (coefficient, index set) pairs: u_n
    is replaced by -(u_1 + ... + u_{n-1}), a wedge with a repeated index is
    dropped, and each other wedge is sorted at the sign of its inversion
    count."""
    if n not in idx:
        return [(1, tuple(idx))]
    head = [a for a in idx if a != n]
    out = []
    for i in range(1, n):
        if i in head:
            continue
        seq = head + [i]
        inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
        out.append((-((-1) ** inversions), tuple(sorted(seq))))
    return out


def brute_projection(w):
    """The coordinates over pairs of index sets inside [n-1] of the image of
    w in the quotient of both tensor factors by the all-ones vector, with
    zero coordinates dropped; the index sets are read off each coloring."""
    out = {}
    for x, c in w.terms.items():
        I = [i for i, color in enumerate(x, start=1) if color in (1, 3)]
        J = [i for i, color in enumerate(x, start=1) if color in (2, 3)]
        for a, A in brute_wedge_in_quotient(w.n, I):
            for b, B in brute_wedge_in_quotient(w.n, J):
                out[A, B] = out.get((A, B), 0) + c * a * b
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=64)
def _symmetrized(lam, x):
    """w_x c, kept for the other sign and for the check of x's swap partner."""
    return apply_symmetrizer(TensorVector.basis(x), lam)


def brute_skew_verdict(lam, x, sign, mode):
    """Whether ``w_x c = sign * w_{swapped} c`` holds (exactly, or after
    ``brute_projection`` when mode is "mod-K"), with the right side computed
    on its own rather than as the color swap of the left side.  Vectors of
    different spaces (k != l) are equal only when both are zero."""
    lhs = _symmetrized(lam, x)
    if x.k != x.l:
        return lhs.is_zero()
    rhs = _symmetrized(lam, x.swap_colors())
    if mode == "exact":
        return lhs == sign * rhs
    return not brute_projection(lhs - sign * rhs)


def brute_orbit(lam, x):
    """x's orbit under the permutations within the rows of lam and the
    exchanges of equal rows down their columns, closed from one generator
    per move: each adjacent transposition of a row, each pair of equal rows."""
    ends = list(itertools.accumulate(lam, initial=0))
    rows = [range(a + 1, b + 1) for a, b in zip(ends, ends[1:])]
    generators = [Permutation.transposition(len(x), i, i + 1) for row in rows for i in row[:-1]]
    generators += [
        Permutation.from_cycles(len(x), zip(top, bottom))
        for top, bottom in itertools.combinations(rows, 2)
        if len(top) == len(bottom)
    ]
    orbit, frontier = {x}, [x]
    while frontier:
        frontier = [y for y in {z.act(g) for z in frontier for g in generators} if y not in orbit]
        orbit.update(frontier)
    return orbit


def brute_restricted_symmetrizer(w, lam, members):
    """The literal double sum over the restricted row and column groups."""
    chosen = set(members)
    n = w.n
    rows, cols = brute_cells(lam)
    rows = [tuple(p for p in cells if p in chosen) for cells in rows]
    cols = [tuple(p for p in cells if p in chosen) for cells in cols]
    out = TensorVector.zero(n, w.k, w.l)
    for a in block_group(n, rows):
        wa = w.act(a)
        for b in block_group(n, cols):
            out = out + b.sign() * wa.act(b)
    return out


def coloring_sets(n, I, J):
    """Color tuple for the basis vector with index sets I and J."""
    I, J = set(I), set(J)
    colors = []
    for i in range(1, n + 1):
        if i in I and i in J:
            colors.append(3)
        elif i in I:
            colors.append(1)
        elif i in J:
            colors.append(2)
        else:
            colors.append(0)
    return tuple(colors)


@cache
def literal_balanced_colorings(n):
    """The color tuples of length n with as many 1s as 2s: the 4^n product
    filtered, in its (lexicographic) order."""
    return tuple(
        colors for colors in itertools.product((0, 1, 2, 3), repeat=n)
        if colors.count(1) == colors.count(2)
    )


def literal_first_row_colorings(lam):
    """The balanced color tuples of |lam| cells whose first row (the first
    lam[0] cells, none for the empty partition) holds only 0s and 3s, in
    lexicographic order."""
    q = lam[0] if lam else 0
    return [colors for colors in literal_balanced_colorings(sum(lam)) if set(colors[:q]) <= {0, 3}]


def balance_condition(x, members):
    """Whether every mixed 1-2 pair inside the selection encloses equally
    many outside 1s as outside 2s."""
    inside = sorted(members)
    outside = [i for i in range(1, x.n + 1) if i not in set(members)]
    for h1 in inside:
        for h2 in inside:
            if {x.color(h1), x.color(h2)} != {1, 2}:
                continue
            lo, hi = min(h1, h2), max(h1, h2)
            ones = sum(1 for v in outside if lo < v < hi and x.color(v) == 1)
            twos = sum(1 for v in outside if lo < v < hi and x.color(v) == 2)
            if ones != twos:
                return False
    return True


def exact_rank(vectors):
    """Rank over the rationals of a list of sparse vectors (dicts)."""
    keys = sorted({key for vec in vectors for key in vec})
    index = {key: i for i, key in enumerate(keys)}
    mat = []
    for vec in vectors:
        row = [Fraction(0)] * len(keys)
        for key, c in vec.items():
            row[index[key]] = Fraction(c)
        mat.append(row)
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / lead[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], lead)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def literal_table_json(table):
    """The ``v: 1`` JSON object of a table, field by field: one object per
    nonzero row, double hooks (second row of two or more boxes, third of at
    most two) first, then hooks, then the rest, each in reverse-lexicographic
    order."""

    def group(lam):
        second, third = (tuple(lam) + (0, 0))[1:3]
        return 1 if second <= 1 else 0 if third <= 2 else 2

    nonzero = sorted((tuple(lam) for lam, row in table.rows.items() if any(row)), reverse=True)
    return {
        "v": 1,
        "n": table.n,
        "k": table.k,
        "rows": [
            {"lambda": list(lam), "tensor": t, "sym": s, "ext": e}
            for lam in sorted(nonzero, key=group)
            for t, s, e in [table.rows[lam]]
        ],
    }


# The ten nonzero rows of the n=8, k=2 decomposition used as the golden table.
TABLE_8_2 = {
    (6, 2): (2, 2, 0),
    (5, 3): (1, 1, 0),
    (5, 2, 1): (2, 1, 1),
    (4, 2, 2): (1, 1, 0),
    (4, 2, 1, 1): (1, 0, 1),
    (8,): (1, 1, 0),
    (7, 1): (1, 1, 0),
    (6, 1, 1): (1, 0, 1),
    (5, 1, 1, 1): (1, 0, 1),
    (4, 1, 1, 1, 1): (1, 1, 0),
}

TABLE_8_2_ORDER = [
    (6, 2),
    (5, 3),
    (5, 2, 1),
    (4, 2, 2),
    (4, 2, 1, 1),
    (8,),
    (7, 1),
    (6, 1, 1),
    (5, 1, 1, 1),
    (4, 1, 1, 1, 1),
]
