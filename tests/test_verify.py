from hooksq import Coloring, DoubleHook, Hook, classify_shape, enumerate_partitions
from hooksq.verify import (
    SuiteResult,
    balanced_colorings,
    first_row_constrained_colorings,
    suite_epsilon,
    suite_lemma31,
    suite_psi,
    sweep_colorings,
)
from oracles import literal_balanced_colorings, literal_first_row_colorings


def test_enumerators_equal_literal_filters():
    """For every n <= 9, n = 0 included, the balanced colorings, and for
    every partition of such an n the first-row-0/3 colorings, are the
    literal filters of the 4^n product, in its order, as Colorings.  Both
    come as iterators, since the bench's tracer steps them with next(), and
    neither is empty: the blank coloring comes first."""
    for n in range(10):
        balanced = balanced_colorings(n)
        got = [next(balanced), *balanced]
        assert got == list(literal_balanced_colorings(n)), n
        assert all(type(x) is Coloring for x in got), n
        for lam in enumerate_partitions(n):
            constrained = first_row_constrained_colorings(lam)
            got = [next(constrained), *constrained]
            assert got == literal_first_row_colorings(lam), lam
            assert all(type(x) is Coloring for x in got), lam


def test_suite_result_starts_empty():
    """A new tally has no checks, no failures, no first failure, and a
    ``details`` dict of its own."""
    first, second = SuiteResult("a"), SuiteResult("b")
    first.details["witnesses"] = 1
    assert (second.name, second.checks, second.failures, second.first_failure) == ("b", 0, 0, None)
    assert second.details == {} and second.passed


def test_suites_below_their_sizes_run_no_check():
    """The Lemma 3.1 cases have six cells and the psi suite starts at
    n = 1, so ``suite_lemma31(5)`` and ``suite_psi(0)`` return empty, passing
    tallies."""
    for result, name in ((suite_lemma31(5), "lemma31"), (suite_psi(0), "psi")):
        assert (result.name, result.checks, result.failures) == (name, 0, 0)
        assert result.passed and result.first_failure is None and result.details == {}


def test_sweep_colorings_equal_literal_filter():
    """For every n <= 8, the sweep of every hook and even-tail double hook
    (one coloring per color-swap pair) is the literal filter of the
    lexicographic product, in its order; the swap-filtered pools have the
    benchmark's candidate counts."""
    shapes = 0
    exact_candidates = {}
    modk_candidates = {}
    for n in range(1, 9):
        balanced = list(map(Coloring, literal_balanced_colorings(n)))
        for lam in enumerate_partitions(n):
            shape = classify_shape(lam)
            if isinstance(shape, DoubleHook) and not shape.d1 % 2:
                pool = list(map(Coloring, literal_first_row_colorings(lam)))
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
