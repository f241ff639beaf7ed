import itertools

from hooksq import Coloring, DoubleHook, Hook, classify_shape, enumerate_partitions
from hooksq.verify import (
    balanced_colorings,
    first_row_constrained_colorings,
    suite_epsilon,
    sweep_colorings,
)


def test_sweep_colorings_equal_literal_filter():
    """For every n <= 8, the balanced colorings, the first-row-0/3 colorings of
    every even-tail double hook and the sweep of every hook and even-tail
    double hook (one coloring per color-swap pair) are the literal filters of
    the lexicographic product, in its order; the swap-filtered pools have the
    benchmark's candidate counts."""
    shapes = 0
    exact_candidates = {}
    modk_candidates = {}
    for n in range(1, 9):
        balanced = [
            Coloring(colors)
            for colors in itertools.product((0, 1, 2, 3), repeat=n)
            if colors.count(1) == colors.count(2)
        ]
        assert list(balanced_colorings(n)) == balanced, n
        for lam in enumerate_partitions(n):
            shape = classify_shape(lam)
            if isinstance(shape, DoubleHook) and not shape.d1 % 2:
                head = lam[0]
                pool = [x for x in balanced if set(x[:head]) <= {0, 3}]
                assert list(first_row_constrained_colorings(lam)) == pool, lam
                candidates = exact_candidates
            elif isinstance(shape, Hook):
                pool = balanced
                candidates = modk_candidates
            else:
                continue
            want = [x for x in pool if not x.swap_colors() < x]
            assert list(sweep_colorings(lam)) == want, lam
            assert list(sweep_colorings(tuple(lam))) == want, lam
            candidates[n] = candidates.get(n, 0) + len(want)
            shapes += 1
    assert shapes == 38 + 8 + 10
    assert exact_candidates[8] == 11_032
    assert modk_candidates[7] == 7 * 1_780 == 12_460


def test_suite_epsilon_counts():
    """The sign-rule suite, which only the README's CLI examples run end to
    end: exhaustive over the transpositions of S_2..S_4, then 200 random
    cocycle checks per n."""
    result = suite_epsilon(4)
    assert (result.checks, result.failures, result.first_failure) == (12_588, 0, None)
