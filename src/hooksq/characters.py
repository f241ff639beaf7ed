"""Brute-force character-theoretic ground truth for square decompositions.

Irreducible characters of symmetric groups are computed exactly with the
Murnaghan-Nakayama border-strip recursion; symmetric/exterior square
characters and inner products then produce full multiplicity tables that the
closed forms are checked against.  Everything is exact integer arithmetic;
any non-integrality is raised as a hard error rather than rounded away.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .partitions import (
    MAX_N,
    Partition,
    class_size,
    classify_shape,
    dimension,
    enumerate_partitions,
    hook_partition,
    Hook,
    DoubleHook,
    power_square,
)


class IntegrityError(RuntimeError):
    """An exactness assumption failed: the input cannot be a genuine character."""


def mn_character(lam, ct) -> int:
    """Value of the irreducible character of lam on the class of cycle type ct."""
    lam = Partition(lam)
    ct = Partition(ct)
    if lam.n != ct.n:
        raise ValueError(f"partition sizes differ: |{tuple(lam)}| != |{tuple(ct)}|")
    if lam.n > MAX_N:
        raise ValueError(f"characters require n <= {MAX_N}, got {lam.n}")
    return _mn(tuple(lam), tuple(ct))


@cache
def _mn(lam: tuple, ct: tuple) -> int:
    if not ct:
        return 1
    strip, rest = ct[0], ct[1:]
    h = len(lam)
    beta = [lam[i] + h - 1 - i for i in range(h)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for other in beta if nb < other < b)
        newbeta = sorted((nb if other == b else other for other in beta), reverse=True)
        newlam = tuple(v - (h - 1 - i) for i, v in enumerate(newbeta))
        while newlam and newlam[-1] == 0:
            newlam = newlam[:-1]
        total += (-1) ** height * _mn(newlam, rest)
    return total


@dataclass(frozen=True)
class ClassFunction:
    """An exact integer-valued function on the conjugacy classes of S_n.

    ``values`` is a read-only mapping from every partition of n to an int;
    the constructor checks the domain once and copies the input, so a cached
    character can never be changed behind its callers' backs.
    """

    n: int
    values: Mapping

    def __post_init__(self):
        values = dict(self.values)
        if set(values) != set(enumerate_partitions(self.n)):
            raise ValueError(f"class function must be defined on all partitions of {self.n}")
        object.__setattr__(self, "values", MappingProxyType(values))

    def __getitem__(self, ct) -> int:
        if type(ct) is not Partition:
            ct = Partition(ct)
        try:
            return self.values[ct]
        except KeyError:
            raise ValueError(f"class {tuple(ct)} is not a partition of n={self.n}") from None

    @property
    def dim(self) -> int:
        return self.values[(1,) * self.n]

    def _combine(self, other, op):
        if isinstance(other, ClassFunction):
            if other.n != self.n:
                raise ValueError("class functions live on different groups")
            return ClassFunction(self.n, {ct: op(v, other.values[ct]) for ct, v in self.values.items()})
        return ClassFunction(self.n, {ct: op(v, other) for ct, v in self.values.items()})

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    __rmul__ = __mul__


@cache
def _class_sizes(n: int) -> tuple[tuple[Partition, int], ...]:
    """(cycle type, class size) for every conjugacy class of S_n."""
    return tuple((ct, class_size(ct)) for ct in enumerate_partitions(n))


@cache
def _square_classes(n: int) -> tuple[tuple[Partition, Partition], ...]:
    """(cycle type of g, cycle type of g^2) for every conjugacy class of S_n."""
    return tuple((ct, power_square(ct)) for ct in enumerate_partitions(n))


@cache
def irreducible_character(lam) -> ClassFunction:
    """The full character row of the irreducible module for lam."""
    lam = Partition(lam)
    return ClassFunction(lam.n, {ct: _mn(lam, ct) for ct in enumerate_partitions(lam.n)})


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
    values = chi.values
    sym = {}
    ext = {}
    for ct, ct_squared in _square_classes(chi.n):
        square = values[ct] ** 2
        twisted = values[ct_squared]
        if (square + twisted) % 2:
            raise IntegrityError(f"square-character parity violated on class {tuple(ct)}")
        sym[ct] = (square + twisted) // 2
        ext[ct] = (square - twisted) // 2
    return ClassFunction(chi.n, sym), ClassFunction(chi.n, ext)


def inner_product(chi: ClassFunction, psi: ClassFunction) -> int:
    """Scalar product (1/n!) * sum over classes of |class| * chi * psi.

    The sum is formed exactly and must be divisible by n!; a remainder is a
    bug signal, never rounded.
    """
    if chi.n != psi.n:
        raise ValueError("class functions live on different groups")
    a, b = chi.values, psi.values
    total = sum([size * a[ct] * b[ct] for ct, size in _class_sizes(chi.n)])
    order = math.factorial(chi.n)
    q, r = divmod(total, order)
    if r:
        raise IntegrityError(f"inner product sum {total} is not divisible by {chi.n}!")
    return q


def restrict_character(chi: ClassFunction) -> ClassFunction:
    """Restriction to the subgroup fixing the last point, evaluated pointwise."""
    if chi.n == 0:
        raise ValueError("cannot restrict a class function on the trivial group")
    values = chi.values
    return ClassFunction(
        chi.n - 1, {ct: values[ct + (1,)] for ct in enumerate_partitions(chi.n - 1)}
    )


ORACLE_MAX_N = 14


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
        expected = set(enumerate_partitions(self.n))
        if set(self.rows) != expected:
            raise ValueError(f"table must have a row for every partition of {self.n}")
        d = math.comb(self.n - 1, self.k)
        sym_dim = 0
        ext_dim = 0
        for lam, (tensor, sym, ext) in self.rows.items():
            if tensor != sym + ext or min(tensor, sym, ext) < 0:
                raise ValueError(f"inconsistent multiplicities at {tuple(lam)}: {(tensor, sym, ext)}")
            sym_dim += sym * dimension(lam)
            ext_dim += ext * dimension(lam)
        if sym_dim != d * (d + 1) // 2 or ext_dim != d * (d - 1) // 2:
            raise ValueError(
                f"dimension identity violated for n={self.n}, k={self.k}: "
                f"sym={sym_dim}, ext={ext_dim}, d={d}"
            )

    def multiplicity(self, lam) -> tuple[int, int, int]:
        return self.rows[Partition(lam)]

    def nonzero_rows(self) -> list[tuple[Partition, tuple[int, int, int]]]:
        """Nonzero rows sorted double hooks first, then hooks, each reverse-lex."""

        def group(lam):
            shape = classify_shape(lam)
            if isinstance(shape, DoubleHook):
                return 0
            if isinstance(shape, Hook):
                return 1
            return 2

        keep = [(lam, triple) for lam, triple in self.rows.items() if any(triple)]
        keep.sort(key=lambda item: item[0], reverse=True)
        keep.sort(key=lambda item: group(item[0]))
        return keep

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


def decompose_oracle(n: int, k: int, budget: int = ORACLE_MAX_N) -> MultiplicityTable:
    """Full multiplicity table computed purely from characters."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    if n > budget:
        raise ValueError(f"character oracle budget is n <= {budget}, got {n}")
    chi = hook_rep_character(n, k)
    tensor = chi * chi
    sym, ext = square_characters(chi)
    rows = {}
    for lam in enumerate_partitions(n):
        row_char = irreducible_character(lam)
        rows[lam] = (
            inner_product(row_char, tensor),
            inner_product(row_char, sym),
            inner_product(row_char, ext),
        )
    return MultiplicityTable(n, k, rows)
