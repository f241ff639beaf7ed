"""Integer partitions, Young-diagram shape classes, permutations of [n], and
the multiplicity table that every engine returns.

Everything here is exact integer combinatorics.  Partitions double as Young
diagrams (parts = row lengths) and as cycle types of conjugacy classes of the
symmetric group.  All functions are pure.  Partitions, shapes and tables
refuse assignment, though a table's ``rows`` is a plain dict; a
``Permutation`` does not refuse it, and no function here changes one.  The
engines share this module and no other: ``MultiplicityTable`` and
``IntegrityError`` live here so that none of them imports another.

Work that depends on n alone is done once per n and cached: the partitions
of n, and one walk over them (``_walk``) that records each one's position,
conjugate, class size, class of squares, dimension and shape class.  The
table order of the partitions of n and the head of each one's JSON row
(``_display``) are cached per n too, so a table is checked, listed and
written with no per-n work of its own.
"""

from __future__ import annotations

import math
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


class _Record:
    """An immutable record of the fields its class names in ``__slots__``.

    The constructor takes the fields by position or by keyword.  Records of
    one type compare and hash by their fields, records of different types
    are unequal, and the repr reads ``Hook(m=2)``.  It stands in for a frozen
    dataclass: importing ``dataclasses`` would take most of the package's
    import time.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args) :] if name in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(names)}), each once")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not by assignment
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

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


class Hook(_Record):
    """Shape (n-m, 1^m): a first row with a tail of m single-box rows."""

    __slots__ = ("m",)


class DoubleHook(_Record):
    """Shape (q, p, 2^d2, 1^d1) with q >= p >= 2."""

    __slots__ = ("q", "p", "d2", "d1")


class OtherShape(_Record):
    """Neither a hook nor a double hook: the third row has three or more boxes."""

    __slots__ = ()


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
        return Hook(len(lam) - 1)
    if lam.row(3) <= 2:
        q, p = lam[0], lam[1]
        tail = lam[2:]
        return DoubleHook(q, p, tail.count(2), tail.count(1))
    return OtherShape()


def hook_partition(n: int, m: int) -> Partition:
    """The partition (n-m, 1^m)."""
    if not 0 <= m <= n - 1:
        raise ValueError(f"hook tail length must satisfy 0 <= m <= n-1, got m={m}, n={n}")
    return Partition((n - m,) + (1,) * m)


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first.

    The partitions with first part r are r followed by the partitions of
    n - r with no part above r, a final run of ``enumerate_partitions(n - r)``;
    each is weakly decreasing and positive by construction, so it is built
    without ``Partition``'s checks.
    """
    if not 0 <= n <= MAX_N:
        raise ValueError(f"partition enumeration requires 0 <= n <= {MAX_N}, got {n}")
    if not n:
        return (Partition(),)
    out = []
    for r in range(n, 0, -1):
        first = (r,)
        for rest in enumerate_partitions(n - r):
            if not rest or rest[0] <= r:
                out.append(tuple.__new__(Partition, first + rest))
    return tuple(out)


class _Walk(_Record):
    """What the package reads of the partitions of n, from one walk over
    them; every tuple is in ``enumerate_partitions(n)`` order.

    ``parts`` are the partitions and ``index`` maps each to its position.
    For each partition lam, ``conjugates`` holds the position of lam's
    conjugate, ``sizes`` the size of the conjugacy class of cycle type lam,
    ``squares`` the position of the class of g^2 for g in that class,
    ``dims`` the dimension of the irreducible module for lam, and ``shapes``
    its ``classify_shape`` class (None for n = 0, whose one partition has no
    shape class).
    """

    __slots__ = ("parts", "index", "conjugates", "sizes", "squares", "dims", "shapes")


@cache
def _walk(n: int) -> _Walk:
    """The per-n data of ``_Walk``, each partition of n visited once by the
    single-partition helpers."""
    parts = enumerate_partitions(n)
    index = {lam: i for i, lam in enumerate(parts)}
    return _Walk(
        parts,
        index,
        tuple([index[transpose(lam)] for lam in parts]),
        tuple(map(class_size, parts)),
        tuple([index[power_square(lam)] for lam in parts]),
        tuple(map(dimension, parts)),
        tuple(map(classify_shape, parts)) if n else None,
    )


@cache
def _display(n: int) -> tuple[tuple[Partition, str], ...]:
    """Every partition of n in table order, double hooks first, then hooks,
    then the rest, each in ``enumerate_partitions(n)`` order, with the head
    of its JSON row as ``json.dumps`` writes it, ``{"lambda": [6, 2],
    "tensor": ``."""
    groups = {DoubleHook: [], Hook: [], OtherShape: []}
    walk = _walk(n)
    for lam, shape in zip(walk.parts, walk.shapes):
        head = '{"lambda": [' + ", ".join(map(str, lam)) + '], "tensor": '
        groups[type(shape)].append((lam, head))
    return tuple([row for group in groups.values() for row in group])


def transpose(lam) -> Partition:
    """Column lengths of the diagram; an involution."""
    lam = Partition(lam)
    # the columns lam[i + 1] + 1 .. lam[i] (lam[len(lam)] = 0) have length
    # i + 1, so reading the rows bottom up gives the columns left to right
    cols = []
    for i in range(len(lam) - 1, -1, -1):
        if lam[i] > len(cols):
            cols += [i + 1] * (lam[i] - len(cols))
    return tuple.__new__(Partition, cols)


def class_size(ct) -> int:
    """Number of permutations of the given cycle type."""
    ct = Partition(ct)
    n = ct.n
    if n > MAX_N:
        raise ValueError(f"class size requires n <= {MAX_N}, got {n}")
    # z = product of c^m * m! over the parts c of multiplicity m: the j-th
    # occurrence of a part c contributes c * j
    z = 1
    previous = occurrence = 0
    for c in ct:
        occurrence = occurrence + 1 if c == previous else 1
        previous = c
        z *= c * occurrence
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
    return tuple.__new__(Partition, sorted(parts, reverse=True))


def dimension(lam) -> int:
    """Dimension of the irreducible module for lam, by the hook length formula."""
    lam = Partition(lam)
    n = lam.n
    if n > MAX_N:
        raise ValueError(f"dimension requires n <= {MAX_N}, got {n}")
    cols = transpose(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return math.factorial(n) // hooks


def branch_up(mu) -> tuple[Partition, ...]:
    """All partitions obtained from mu by adding one box, top row first.

    A box goes on row r only below a longer row, so each result is a
    partition by construction and is built without ``Partition``'s checks.
    """
    mu = Partition(mu)
    out = []
    for r in range(len(mu)):
        if r == 0 or mu[r - 1] > mu[r]:
            out.append(tuple.__new__(Partition, mu[:r] + (mu[r] + 1,) + mu[r + 1 :]))
    out.append(tuple.__new__(Partition, mu + (1,)))
    return tuple(out)


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


class MultiplicityTable(_Record):
    """Multiplicities of every irreducible in the tensor, symmetric and
    exterior squares of the k-th hook representation of S_n.

    ``rows`` maps each partition of n to a (tensor, sym, ext) triple; zero
    rows are kept internally and filtered only when serializing.  A table
    compares by its fields, and is unhashable, as its ``rows`` dict is.
    """

    __slots__ = ("n", "k", "rows")
    __hash__ = None

    def __init__(self, n: int, k: int, rows: dict):
        if type(n) is not int or type(k) is not int:
            raise ValueError(f"table n and k must be ints, got n={n!r}, k={k!r}")
        if not 0 <= k <= n - 1:
            raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
        walk = _walk(n)
        triples = list(map(rows.get, walk.parts))
        if len(rows) != len(triples) or None in triples:
            raise ValueError(f"table must have a row for every partition of {n}")
        d = math.comb(n - 1, k)
        sym_dim = 0
        ext_dim = 0
        for lam, dim, (tensor, sym, ext) in zip(walk.parts, walk.dims, triples):
            if type(tensor) is not int or type(sym) is not int or type(ext) is not int:
                raise ValueError(f"multiplicities at {tuple(lam)} must be ints: {(tensor, sym, ext)!r}")
            if tensor != sym + ext or sym < 0 or ext < 0:
                raise ValueError(f"inconsistent multiplicities at {tuple(lam)}: {(tensor, sym, ext)}")
            sym_dim += sym * dim
            ext_dim += ext * dim
        if sym_dim != d * (d + 1) // 2 or ext_dim != d * (d - 1) // 2:
            raise ValueError(
                f"dimension identity violated for n={n}, k={k}: "
                f"sym={sym_dim}, ext={ext_dim}, d={d}"
            )
        super().__init__(n, k, rows)

    def multiplicity(self, lam) -> tuple[int, int, int]:
        return self.rows[Partition(lam)]

    def nonzero_rows(self) -> list[tuple[Partition, tuple[int, int, int]]]:
        """Nonzero rows sorted double hooks first, then hooks, then the rest,
        each reverse-lex."""
        rows = self.rows
        return [(lam, triple) for lam, _ in _display(self.n) if any(triple := rows[lam])]

    def to_json(self) -> str:
        """The ``v: 1`` schema as ``json.dumps`` writes it: ``{"v": 1, "n":
        8, "k": 2, "rows": [{"lambda": [6, 2], "tensor": 2, "sym": 2, "ext":
        0}, ...]}``, one object per nonzero row in ``nonzero_rows`` order.
        Every field is an int, whose text is the same in both."""
        rows = self.rows
        body = ", ".join(
            [
                f'{head}{t}, "sym": {s}, "ext": {e}}}'
                for lam, head in _display(self.n)
                for t, s, e in (rows[lam],)
                if t or s or e
            ]
        )
        return f'{{"v": 1, "n": {self.n}, "k": {self.k}, "rows": [{body}]}}'

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiplicityTable":
        """Parse the ``v: 1`` schema, as ``json.loads`` reads the text that
        ``to_json`` writes.  A missing field, a wrong type, a ``lambda`` that
        is not a partition of n, or a repeated row raises ValueError naming
        the field."""
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
