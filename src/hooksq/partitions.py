"""Integer partitions, Young-diagram shape classes, permutations of [n], and
the multiplicity table that every engine returns.

Everything here is exact integer combinatorics.  Partitions double as Young
diagrams (parts = row lengths) and as cycle types of conjugacy classes of the
symmetric group.  All functions are pure; all values are immutable.  The
engines share this module and no other: ``MultiplicityTable`` and
``IntegrityError`` live here so that none of them imports another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

# Hard cap on the symbol count: factorials up to 20! are formed explicitly
# and every desk-scale computation in this package stays far below it.
MAX_N = 20


class IntegrityError(RuntimeError):
    """An exactness assumption failed: a value that must be an exact integer,
    or obey a parity law, did not, so it is raised rather than rounded."""


def _integers(values) -> tuple[int, ...]:
    """``values`` as ints: a digit string gives its digits, and a number that
    ``int()`` would truncate raises ValueError."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values and any(v != i and not isinstance(v, str) for v, i in zip(values, ints)):
        raise ValueError(f"entries must be integers: {values}")
    return ints


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    def __new__(cls, parts=()):
        if type(parts) is Partition:
            return parts
        parts = _integers(parts)
        prev = None
        for p in parts:
            if p < 1:
                raise ValueError(f"partition parts must be positive: {parts}")
            if prev is not None and p > prev:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
            prev = p
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self)

    def row(self, i: int) -> int:
        """Length of row i (1-indexed), 0 for rows below the diagram."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def __repr__(self):
        return f"Partition({tuple(self)})"


@dataclass(frozen=True)
class Hook:
    """Shape (n-m, 1^m): a first row with a tail of m single-box rows."""

    m: int


@dataclass(frozen=True)
class DoubleHook:
    """Shape (q, p, 2^d2, 1^d1) with q >= p >= 2."""

    q: int
    p: int
    d2: int
    d1: int


@dataclass(frozen=True)
class OtherShape:
    """Neither a hook nor a double hook: the third row has three or more boxes."""


def classify_shape(lam) -> Hook | DoubleHook | OtherShape:
    """Classify a nonempty partition as Hook, DoubleHook or OtherShape.

    Hook means the second row has at most one box; DoubleHook means the second
    row has at least two boxes and the third at most two.  The two cases are
    disjoint: a shape (q, 1, 1, ...) is always reported as a hook.
    """
    lam = Partition(lam)
    if not lam:
        raise ValueError("cannot classify the empty partition")
    if lam.row(2) <= 1:
        return Hook(m=len(lam) - 1)
    if lam.row(3) <= 2:
        q, p = lam[0], lam[1]
        tail = lam[2:]
        d2 = sum(1 for r in tail if r == 2)
        d1 = sum(1 for r in tail if r == 1)
        return DoubleHook(q=q, p=p, d2=d2, d1=d1)
    return OtherShape()


def hook_partition(n: int, m: int) -> Partition:
    """The partition (n-m, 1^m)."""
    if not 0 <= m <= n - 1:
        raise ValueError(f"hook tail length must satisfy 0 <= m <= n-1, got m={m}, n={n}")
    return Partition((n - m,) + (1,) * m)


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"partition enumeration requires 0 <= n <= {MAX_N}, got {n}")
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(largest, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return tuple(out)


@cache
def partition_shapes(n: int) -> tuple[tuple[Partition, Hook | DoubleHook | OtherShape], ...]:
    """Every partition of n, in ``enumerate_partitions(n)`` order, paired
    with its ``classify_shape`` class; each shape is classified once per n."""
    return tuple((lam, classify_shape(lam)) for lam in enumerate_partitions(n))


def transpose(lam) -> Partition:
    """Column lengths of the diagram; an involution."""
    lam = Partition(lam)
    if not lam:
        return lam
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


@cache
def class_size(ct) -> int:
    """Number of permutations of the given cycle type."""
    ct = Partition(ct)
    n = ct.n
    if n > MAX_N:
        raise ValueError(f"class size requires n <= {MAX_N}, got {n}")
    z = 1
    mult: dict[int, int] = {}
    for c in ct:
        mult[c] = mult.get(c, 0) + 1
    for c, m in mult.items():
        z *= c**m * math.factorial(m)
    return math.factorial(n) // z


def power_square(ct) -> Partition:
    """Cycle type of g^2 given the cycle type of g.

    Each even cycle of length 2m splits into two m-cycles; odd cycles persist.
    """
    ct = Partition(ct)
    parts = []
    for c in ct:
        if c % 2 == 0:
            parts.extend([c // 2, c // 2])
        else:
            parts.append(c)
    return Partition(sorted(parts, reverse=True))


@cache
def dimension(lam) -> int:
    """Dimension of the irreducible module for lam, by the hook length formula."""
    lam = Partition(lam)
    n = lam.n
    if n > MAX_N:
        raise ValueError(f"dimension requires n <= {MAX_N}, got {n}")
    if n == 0:
        return 1
    cols = transpose(lam)
    d = math.factorial(n)
    for i, row in enumerate(lam):
        for j in range(row):
            d //= (row - j) + (cols[j] - i) - 1
    return d


@cache
def _dimensions(n: int) -> tuple[int, ...]:
    """``dimension`` of every partition of n, in ``enumerate_partitions(n)`` order."""
    return tuple(map(dimension, enumerate_partitions(n)))


def branch_up(mu) -> tuple[Partition, ...]:
    """All partitions obtained from mu by adding one box, top row first."""
    mu = Partition(mu)
    out = []
    for r in range(len(mu)):
        if r == 0 or mu[r - 1] > mu[r]:
            grown = list(mu)
            grown[r] += 1
            out.append(Partition(grown))
    out.append(Partition(tuple(mu) + (1,)))
    return tuple(out)


def add_box_column(mu, i: int) -> Partition | None:
    """Add a box to column i of mu, or None when no valid diagram results."""
    mu = Partition(mu)
    if i < 1:
        raise ValueError(f"column index must be >= 1, got {i}")
    height = sum(1 for r in mu if r >= i)
    if height == len(mu):
        return Partition(tuple(mu) + (1,)) if i == 1 else None
    if mu[height] != i - 1:
        return None
    grown = list(mu)
    grown[height] = i
    return Partition(grown)


class Permutation:
    """A bijection of [n] = {1, ..., n} acting on the right.

    ``s * t`` means "apply s, then t", so ``(s * t)(i) == t(s(i))``.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = _integers(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of [n]: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        return cls.from_cycles(n, [(i, j)])

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        images = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            if any(c in seen for c in cyc):
                raise ValueError(f"cycles are not disjoint: {cycles}")
            seen.update(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles of length >= 2, each starting at its least element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> Partition:
        lengths = [len(c) for c in self.cycles()]
        fixed = self.n - sum(lengths)
        return Partition(sorted(lengths + [1] * fixed, reverse=True))

    def sign(self) -> int:
        parity = sum(len(c) - 1 for c in self.cycles()) % 2
        return -1 if parity else 1

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return f"Permutation.identity({self.n})"
        body = "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)
        return f"Permutation[{self.n}]{body}"


@dataclass(frozen=True)
class MultiplicityTable:
    """Multiplicities of every irreducible in the tensor, symmetric and
    exterior squares of the k-th hook representation of S_n.

    ``rows`` maps each partition of n to a (tensor, sym, ext) triple; zero
    rows are kept internally and filtered only when serializing.
    """

    n: int
    k: int
    rows: dict

    def __post_init__(self):
        if not 0 <= self.k <= self.n - 1:
            raise ValueError(f"need 0 <= k <= n-1, got k={self.k}, n={self.n}")
        parts = enumerate_partitions(self.n)
        triples = list(map(self.rows.get, parts))
        if len(self.rows) != len(parts) or None in triples:
            raise ValueError(f"table must have a row for every partition of {self.n}")
        d = math.comb(self.n - 1, self.k)
        sym_dim = 0
        ext_dim = 0
        for lam, dim, (tensor, sym, ext) in zip(parts, _dimensions(self.n), triples):
            if tensor != sym + ext or min(tensor, sym, ext) < 0:
                raise ValueError(f"inconsistent multiplicities at {tuple(lam)}: {(tensor, sym, ext)}")
            sym_dim += sym * dim
            ext_dim += ext * dim
        if sym_dim != d * (d + 1) // 2 or ext_dim != d * (d - 1) // 2:
            raise ValueError(
                f"dimension identity violated for n={self.n}, k={self.k}: "
                f"sym={sym_dim}, ext={ext_dim}, d={d}"
            )

    def multiplicity(self, lam) -> tuple[int, int, int]:
        return self.rows[Partition(lam)]

    def nonzero_rows(self) -> list[tuple[Partition, tuple[int, int, int]]]:
        """Nonzero rows sorted double hooks first, then hooks, each reverse-lex."""
        groups = {DoubleHook: [], Hook: [], OtherShape: []}
        for lam, shape in partition_shapes(self.n):
            triple = self.rows[lam]
            if any(triple):
                groups[type(shape)].append((lam, triple))
        return [row for group in groups.values() for row in group]

    def to_json_dict(self) -> dict:
        return {
            "v": 1,
            "n": self.n,
            "k": self.k,
            "rows": [
                {"lambda": list(lam), "tensor": t, "sym": s, "ext": e}
                for lam, (t, s, e) in self.nonzero_rows()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiplicityTable":
        """Parse the ``v: 1`` schema written by ``to_json_dict``.  A missing
        field, a wrong type, a ``lambda`` that is not a partition of n, or a
        repeated row raises ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"table must be a JSON object, got {type(data).__name__}")
        if data.get("v") != 1:
            raise ValueError(f"unsupported table schema version: {data.get('v')!r}")
        n = _json_field(data, "n", int, "n")
        k = _json_field(data, "k", int, "k")
        rows = {lam: (0, 0, 0) for lam in enumerate_partitions(n)}
        seen = set()
        for i, row in enumerate(_json_field(data, "rows", list, "rows")):
            where = f"rows[{i}]"
            if not isinstance(row, dict):
                raise ValueError(f"table field {where!r} must be an object, got {type(row).__name__}")
            parts = _json_field(row, "lambda", list, f"{where}.lambda")
            if not all(isinstance(p, int) and not isinstance(p, bool) for p in parts):
                raise ValueError(f"table field '{where}.lambda' must be a list of integers: {parts!r}")
            try:
                lam = Partition(parts)
            except ValueError:
                lam = None
            if lam is None or lam.n != n:
                raise ValueError(f"table field '{where}.lambda' = {parts} is not a partition of n={n}")
            if lam in seen:
                raise ValueError(f"table field '{where}.lambda' repeats the row for {tuple(lam)}")
            seen.add(lam)
            rows[lam] = tuple(
                _json_field(row, name, int, f"{where}.{name}") for name in ("tensor", "sym", "ext")
            )
        return cls(n, k, rows)


def _json_field(obj: dict, key: str, kind: type, where: str):
    """``obj[key]`` checked to be present and of type ``kind`` (bool is not
    an int here)."""
    if key not in obj:
        raise ValueError(f"table field {where!r} is missing")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"table field {where!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value
