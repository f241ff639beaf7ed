import itertools

from hooksq import Coloring, DoubleHook, Hook, classify_shape, enumerate_partitions
from hooksq.verify import sweep_colorings


def test_sweep_colorings_equal_literal_filter():
    """For every hook and even-tail double hook with n <= 7, the sweep is the
    balanced colorings (first row 0/3 for double hooks), one per color-swap
    pair, in lexicographic order."""
    shapes = 0
    for n in range(1, 8):
        balanced = [
            colors
            for colors in itertools.product((0, 1, 2, 3), repeat=n)
            if colors.count(1) == colors.count(2)
        ]
        for lam in enumerate_partitions(n):
            shape = classify_shape(lam)
            if isinstance(shape, DoubleHook) and not shape.d1 % 2:
                head = lam[0]
            elif isinstance(shape, Hook):
                head = 0
            else:
                continue
            want = [
                x
                for x in map(Coloring, balanced)
                if set(x[:head]) <= {0, 3} and not x.swap_colors() < x
            ]
            assert list(sweep_colorings(lam)) == want, lam
            assert list(sweep_colorings(tuple(lam))) == want, lam
            shapes += 1
    assert shapes == 28 + 10
