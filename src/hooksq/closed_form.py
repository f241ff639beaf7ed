"""Closed-form multiplicity formulas for squares of hook representations.

The answers depend only on the shape class of the target partition: double
hooks split by the residue of their tail length mod 4, hooks by the residue
of m mod 4, everything else has multiplicity zero.
"""

from __future__ import annotations

from functools import cache

from .partitions import (
    DoubleHook,
    Hook,
    IntegrityError,
    MultiplicityTable,
    OtherShape,
    Partition,
    _walk,
    classify_shape,
)


def psi(a: int, b: int) -> int:
    """2 if |a| < b, 1 if |a| == b, 0 otherwise: the window of Remmel's
    double-hook rule (``_remmel``)."""
    if abs(a) < b:
        return 2
    if abs(a) == b:
        return 1
    return 0


def remmel_multiplicity(n: int, k: int, l: int, lam) -> int:
    """Multiplicity of the irreducible for lam in the tensor product of the
    k-th and l-th hook representations (Remmel's decomposition)."""
    return _remmel(n, k, l, _classified(n, k, l, lam)[1])


def _classified(n: int, k: int, l: int, lam) -> tuple:
    """lam as a checked partition of n, and its shape class."""
    if not (0 <= k <= n - 1 and 0 <= l <= n - 1):
        raise ValueError(f"need 0 <= k, l <= n-1, got k={k}, l={l}, n={n}")
    lam = Partition(lam)
    if lam.n != n:
        raise ValueError(f"partition {tuple(lam)} is not a partition of {n}")
    return lam, classify_shape(lam)


def _remmel(n: int, k: int, l: int, shape) -> int:
    """Remmel's multiplicity for a target of the given shape class."""
    if isinstance(shape, DoubleHook):
        window = psi(k + l + 1 - n, shape.q - shape.p + 1)
        if abs(k - l) <= shape.d1:
            return window
        if abs(k - l) == shape.d1 + 1:
            return window // 2
        return 0
    if isinstance(shape, Hook):
        kp = min(k, n - k - 1)
        lp = min(l, n - l - 1)
        span = shape.m if (k == kp) == (l == lp) else n - shape.m - 1
        return int(abs(kp - lp) <= span <= kp + lp)
    return 0


def sym_ext_multiplicity(n: int, k: int, lam) -> tuple[int, int]:
    """Multiplicities of the irreducible for lam in the symmetric and the
    exterior square of the k-th hook representation."""
    return _row(n, k, *_classified(n, k, k, lam))[1:]


def _row(n: int, k: int, lam: Partition, shape) -> tuple[int, int, int]:
    """The (tensor, sym, ext) multiplicities of lam, of the given shape class:
    Remmel's tensor multiplicity split into its symmetric and exterior parts."""
    tensor = _remmel(n, k, k, shape)
    if isinstance(shape, DoubleHook):
        if shape.d1 % 2:
            # an odd tail forces an even tensor multiplicity, split evenly
            if tensor % 2:
                raise IntegrityError(
                    f"odd tensor multiplicity {tensor} at odd-tail shape {tuple(lam)} (n={n}, k={k})"
                )
            return tensor, tensor // 2, tensor // 2
        if shape.d1 % 4 == 0:
            return tensor, tensor, 0
        return tensor, 0, tensor
    if isinstance(shape, Hook):
        if shape.m % 4 in (0, 1):
            return tensor, tensor, 0
        return tensor, 0, tensor
    if tensor:
        raise IntegrityError(
            f"nonzero tensor multiplicity {tensor} at shape {tuple(lam)} (n={n}, k={k}), "
            "which is neither a hook nor a double hook"
        )
    return 0, 0, 0


@cache
def _targets(n: int) -> tuple[tuple[tuple[Partition, Hook | DoubleHook], ...], dict]:
    """The hooks and double hooks of n with their shape classes, as ``_walk``
    records them, and the zero row of every partition of n, in
    ``enumerate_partitions(n)`` order."""
    walk = _walk(n)
    targets = [row for row in zip(walk.parts, walk.shapes) if not isinstance(row[1], OtherShape)]
    return tuple(targets), dict.fromkeys(walk.parts, (0, 0, 0))


def full_table(n: int, k: int) -> MultiplicityTable:
    """Closed-form multiplicity table over every partition of n.  Remmel's
    rule gives 0 on every shape that is neither a hook nor a double hook, so
    only the hooks and double hooks (``_targets``) get a ``_row``; every
    other row is zero."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    targets, zeros = _targets(n)
    rows = zeros.copy()
    for lam, shape in targets:
        rows[lam] = _row(n, k, lam, shape)
    return MultiplicityTable(n, k, rows)
