"""Exhaustive and randomized invariant sweeps behind the ``verify`` command.

Each suite walks one family of identities up to a size bound and reports how
many checks ran, how many failed, and the first counterexample seen.  The
suites are shared by the command-line front end and the acceptance tests.
"""

from __future__ import annotations

import itertools
import random

from .characters import (
    decompose_oracle,
    hook_rep_character,
    inner_product,
    irreducible_character,
    multiplicities,
    restrict_character,
    square_characters,
)
from .closed_form import full_table, psi
from .partitions import (
    MAX_N,
    DoubleHook,
    Hook,
    Partition,
    Permutation,
    _walk,
    branch_up,
    classify_shape,
    enumerate_partitions,
    hook_partition,
)
from .tableaux import (
    DEFAULT_PAIR_BUDGET,
    Coloring,
    _check_budget,
    _new,
    _tableau,
    action_sign,
    expected_skew_sign,
    is_proper_swap,
    verify_skew_symmetry,
)


class SuiteResult:
    """One suite's tally: checks run, failures, the first failure's message
    and any suite-specific ``details``."""

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures = 0
        self.first_failure: str | None = None
        self.details: dict = {}

    def record(self, ok: bool, message):
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = message() if callable(message) else message

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _all_colorings(n: int):
    for colors in itertools.product((0, 1, 2, 3), repeat=n):
        yield _new(Coloring, colors)


def _balanced(n: int):
    """The balanced color tuples of length n, in lexicographic order: each
    first half, in that order, followed by every second half whose excess
    of 2s over 1s cancels its excess, in that order too."""
    half = n // 2
    groups: dict[int, list] = {}
    for tail in itertools.product((0, 1, 2, 3), repeat=n - half):
        groups.setdefault(tail.count(2) - tail.count(1), []).append(tail)
    return (
        head + tail
        for head in itertools.product((0, 1, 2, 3), repeat=half)
        for tail in groups.get(head.count(1) - head.count(2), ())
    )


# Both return iterators over the literal filters of the lexicographic
# product, in its order, which matters: the bench samples them by position.
# Neither walks the 4^n product nor holds its output: balanced_colorings
# holds the 4^ceil(n/2) second halves, and first_row_constrained_colorings
# the balanced tails below the first row.
def balanced_colorings(n: int):
    """All colorings of [n] with equally many cells of color 1 and color 2."""
    return map(_new, itertools.repeat(Coloring), _balanced(n))


def first_row_constrained_colorings(lam: Partition):
    """Balanced colorings whose first row carries only colors 0 and 3."""
    q = lam.row(1)
    tails = list(_balanced(lam.n - q))
    colors = (head + tail for head in itertools.product((0, 3), repeat=q) for tail in tails)
    return map(_new, itertools.repeat(Coloring), colors)


def sweep_colorings(lam):
    """The colorings a skew-symmetry sweep of lam checks, one per color-swap
    pair (x when x <= x.swap_colors()): every balanced coloring for a hook,
    and those whose first row is colored 0/3 only for a double hook."""
    lam = Partition(lam)
    if isinstance(classify_shape(lam), Hook):
        pool = balanced_colorings(lam.n)
    else:
        pool = first_row_constrained_colorings(lam)
    return (x for x in pool if not x.swap_colors() < x)


def _record_skew_checks(result: SuiteResult, lam, colorings) -> None:
    sign, mode = expected_skew_sign(lam)
    for x in colorings:
        result.record(
            verify_skew_symmetry(lam, x, sign, mode).verified,
            lambda x=x: f"lam={tuple(lam)}, x={tuple(x)}, expected {sign}",
        )


def suite_epsilon(max_n: int) -> SuiteResult:
    """Sign cocycle and the elementary transposition sign rules: exhaustive
    over transposition generators up to n = 6, randomized beyond."""
    result = SuiteResult("epsilon")
    for n in range(2, min(max_n, 6) + 1):
        cells = [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
        trans = [Permutation.transposition(n, i, j) for i, j in cells]
        products = {
            (a, b): trans[a] * trans[b]
            for a in range(len(trans))
            for b in range(len(trans))
        }
        for x in _all_colorings(n):
            acted = [x.act(s) for s in trans]
            signs = [action_sign(x, s) for s in trans]
            swapped = x.swap_colors()
            for idx, s in enumerate(trans):
                result.record(
                    action_sign(swapped, s) == signs[idx],
                    lambda x=x, s=s: f"sign changed under color swap: x={tuple(x)}, s={s!r}",
                )
                i, j = cells[idx]
                if x.color(i) == x.color(j):
                    if x.color(i) in (1, 2):
                        result.record(
                            signs[idx] == -1,
                            lambda x=x, s=s: f"equal painted cells must give -1: x={tuple(x)}, s={s!r}",
                        )
                    else:
                        result.record(
                            signs[idx] == 1,
                            lambda x=x, s=s: f"equal blank cells must give +1: x={tuple(x)}, s={s!r}",
                        )
            for a in range(len(trans)):
                xs = acted[a]
                ea = signs[a]
                for b in range(len(trans)):
                    lhs = action_sign(x, products[(a, b)])
                    rhs = ea * action_sign(xs, trans[b])
                    result.record(
                        lhs == rhs,
                        lambda x=x, s=trans[a], t=trans[b]: (
                            f"cocycle failed: x={tuple(x)}, s={s!r}, t={t!r}"
                        ),
                    )
    rng = random.Random(0xC0C)
    for n in range(2, max_n + 1):
        for _ in range(200):
            x = _new(Coloring, rng.choices((0, 1, 2, 3), k=n))
            s = Permutation(rng.sample(range(1, n + 1), n))
            t = Permutation(rng.sample(range(1, n + 1), n))
            lhs = action_sign(x, s * t)
            rhs = action_sign(x, s) * action_sign(x.act(s), t)
            result.record(
                lhs == rhs,
                lambda x=x, s=s, t=t: f"cocycle failed: x={tuple(x)}, s={s!r}, t={t!r}",
            )
    return result


def suite_swaps(max_n: int) -> SuiteResult:
    """Order-preserving 1-2 pairings: the balance condition forces sign +1,
    and its failure really can produce -1 (at least one witness recorded)."""
    result = SuiteResult("swaps")
    witnesses = 0
    first_witness = None
    for n in range(1, min(max_n, 7) + 1):
        for x in _all_colorings(n):
            ones = [i for i in range(1, n + 1) if x[i - 1] == 1]
            twos = [i for i in range(1, n + 1) if x[i - 1] == 2]
            for m in range(1, min(len(ones), len(twos)) + 1):
                for sub_ones in itertools.combinations(ones, m):
                    for sub_twos in itertools.combinations(twos, m):
                        s = Permutation.from_cycles(n, list(zip(sub_ones, sub_twos)))
                        balanced = is_proper_swap(x, s)
                        sign = action_sign(x, s)
                        if balanced:
                            result.record(
                                sign == 1,
                                lambda x=x, s=s: f"balanced swap with sign -1: x={tuple(x)}, s={s!r}",
                            )
                        else:
                            result.checks += 1
                            if sign == -1:
                                witnesses += 1
                                if first_witness is None:
                                    first_witness = f"x={tuple(x)}, s={s!r}"
    if max_n >= 3:
        result.record(
            witnesses > 0,
            "expected at least one unbalanced pairing with sign -1",
        )
    result.details["witnesses"] = witnesses
    result.details["first_witness"] = first_witness
    return result


_LEMMA31_SHAPES = (Partition((2, 2, 2)), Partition((2, 2, 1, 1)))


def _lemma31_cases():
    """Base-case colorings of [6] on (2,2,2) and then on (2,2,1,1), each in
    lexicographic order: cells 1-2 colored 0 or 3, cells 3-4 holding a 0 or a
    3, and so do cells 5-6; on (2,2,1,1) only, as many 1s as 2s."""
    for lam, balanced in zip(_LEMMA31_SHAPES, (False, True)):
        for colors in itertools.product((0, 1, 2, 3), repeat=6):
            blank = [c in (0, 3) for c in colors]
            if all(blank[:2]) and any(blank[2:4]) and any(blank[4:]):
                if not balanced or colors.count(1) == colors.count(2):
                    yield lam, _new(Coloring, colors)


def suite_lemma31(max_n: int) -> SuiteResult:
    """Exact skew-symmetry base cases on the two six-box shapes."""
    result = SuiteResult("lemma31")
    if max_n < 6:
        return result
    for lam, x in _lemma31_cases():
        _record_skew_checks(result, lam, [x])
    return result


def _prop32_shapes(max_n: int):
    """The even-tail double hooks of 4 <= n <= max_n, in sweep order."""
    for n in range(4, max_n + 1):
        for lam in enumerate_partitions(n):
            shape = classify_shape(lam)
            if isinstance(shape, DoubleHook) and not shape.d1 % 2:
                yield lam


def _hook_shapes(max_n: int):
    """The hooks of 1 <= n <= max_n, in sweep order."""
    return (hook_partition(n, m) for n in range(1, max_n + 1) for m in range(n))


def suite_prop32(max_n: int) -> SuiteResult:
    """Exact skew-symmetry for even-tail double hooks, first row blank."""
    result = SuiteResult("prop32")
    for lam in _prop32_shapes(max_n):
        _record_skew_checks(result, lam, sweep_colorings(lam))
    return result


def suite_hooks(max_n: int) -> SuiteResult:
    """Projected skew-symmetry for hooks over every balanced coloring."""
    result = SuiteResult("hooks")
    for lam in _hook_shapes(max_n):
        _record_skew_checks(result, lam, sweep_colorings(lam))
    return result


def suite_branching(max_n: int) -> SuiteResult:
    """Induction/restriction bookkeeping: adjointness of the two, and the
    three-part expansion of a restricted square."""
    result = SuiteResult("branching")
    for n in range(2, max_n + 1):
        # the positions of each mu's branch_up among the partitions of n
        index = _walk(n).index
        smaller = enumerate_partitions(n - 1)
        grown = [[index[lam] for lam in branch_up(mu)] for mu in smaller]
        for k in range(n):
            chi = hook_rep_character(n, k)
            parts = square_characters(chi)
            ups = multiplicities(*parts)
            downs = multiplicities(*map(restrict_character, parts))
            for fname, up, down in zip(("sym", "ext"), ups, downs):
                for mu, positions, rhs in zip(smaller, grown, down):
                    lhs = sum([up[i] for i in positions])
                    result.record(
                        lhs == rhs,
                        lambda n=n, k=k, mu=mu, fname=fname: (
                            f"adjointness failed: n={n}, k={k}, mu={tuple(mu)}, part={fname}"
                        ),
                    )
    for n in range(3, max_n + 1):
        for k in range(1, n - 1):
            chi = hook_rep_character(n, k)
            sym, ext = square_characters(chi)
            small_k = hook_rep_character(n - 1, k)
            small_km1 = hook_rep_character(n - 1, k - 1)
            sym_k, ext_k = square_characters(small_k)
            sym_km1, ext_km1 = square_characters(small_km1)
            cross = small_k * small_km1
            expect = {
                "sym": sym_k + sym_km1 + cross,
                "ext": ext_k + ext_km1 + cross,
            }
            got = {"sym": restrict_character(sym), "ext": restrict_character(ext)}
            for fname in ("sym", "ext"):
                result.record(
                    got[fname] == expect[fname],
                    lambda n=n, k=k, fname=fname: (
                        f"restricted square expansion failed: n={n}, k={k}, part={fname}"
                    ),
                )
    return result


def suite_psi(max_n: int) -> SuiteResult:
    """Recurrences of the window function and the tensor-square window
    formula for double hooks."""
    result = SuiteResult("psi")
    if max_n < 1:
        return result
    for a in range(-30, 31):
        for b in range(2, 31):
            result.record(
                psi(a, b) - psi(a - 1, b - 1) == psi(a + b - 1, 1),
                lambda a=a, b=b: f"window recurrence failed at a={a}, b={b}",
            )
    for v in range(-30, 31):
        result.record(
            psi(v, 2) - psi(v - 1, 1) - psi(v + 1, 1) == 0,
            lambda v=v: f"window split failed at x={v}",
        )
    for n in range(4, min(max_n, 12) + 1):
        for k in range(n):
            chi = hook_rep_character(n, k)
            tensor = chi * chi
            for lam in enumerate_partitions(n):
                shape = classify_shape(lam)
                if not isinstance(shape, DoubleHook):
                    continue
                got = inner_product(irreducible_character(lam), tensor)
                want = psi(2 * k + 1 - n, shape.q - shape.p + 1)
                result.record(
                    got == want,
                    lambda n=n, k=k, lam=lam: (
                        f"tensor window formula failed: n={n}, k={k}, lam={tuple(lam)}"
                    ),
                )
    return result


def suite_tables(max_n: int) -> SuiteResult:
    """Closed-form tables against the character oracle, row by row."""
    result = SuiteResult("tables")
    for n in range(1, max_n + 1):
        for k in range(n):
            closed = full_table(n, k)
            oracle = decompose_oracle(n, k)
            result.record(
                closed == oracle,
                lambda n=n, k=k: f"closed form disagrees with oracle at n={n}, k={k}",
            )
    return result


# the shapes each skew suite sweeps, in the order it meets them
_SKEW_SHAPES = {
    "lemma31": lambda max_n: _LEMMA31_SHAPES if max_n >= 6 else (),
    "prop32": _prop32_shapes,
    "hooks": _hook_shapes,
}

SUITES = {
    "epsilon": suite_epsilon,
    "swaps": suite_swaps,
    "lemma31": suite_lemma31,
    "prop32": suite_prop32,
    "hooks": suite_hooks,
    "branching": suite_branching,
    "psi": suite_psi,
    "tables": suite_tables,
}


def run_suites(max_n: int, names=None) -> list[SuiteResult]:
    if not 0 <= max_n <= MAX_N:
        raise ValueError(f"--max-n must lie in 0..{MAX_N}, got {max_n}")
    if names is None:
        names = list(SUITES)
    choices = f"choose from {', '.join(SUITES)}"
    if not names:
        raise ValueError(f"no suites named; {choices}")
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}; {choices}")
    ordered = [name for name in SUITES if name in names]
    if max_n == 0:
        return []
    # an over-budget shape exits before any suite runs, the first one the
    # skew suites would meet
    for name in ordered:
        if name in _SKEW_SHAPES:
            for lam in _SKEW_SHAPES[name](max_n):
                _check_budget(_tableau(lam)[2], DEFAULT_PAIR_BUDGET, lam)
    return [SUITES[name](max_n) for name in ordered]
