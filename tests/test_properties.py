"""Seeded property tests for the symmetrizer kernel on random shapes and
random multi-term vectors, beyond the sizes the exhaustive tests reach.
Skipped when hypothesis is not installed; the package itself does not depend
on it.  ``derandomize=True`` makes every run draw the same examples, so a
failure always reproduces.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hooksq import (  # noqa: E402
    Coloring,
    TensorVector,
    apply_symmetrizer,
    enumerate_partitions,
    tensor_complement,
    tensor_swap,
)
from oracles import brute_symmetrizer  # noqa: E402

SEEDED = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def shape_and_vector(draw, sizes):
    """(lambda, w): a random partition of n in ``sizes`` and a sum of up to
    ten random basis vectors of one (n, k, l) space, each drawn with a
    nonzero coefficient in [-3, 3]."""
    n = draw(st.sampled_from(sizes))
    lam = draw(st.sampled_from(enumerate_partitions(n)))
    colors = draw(st.lists(st.sampled_from((1, 2, 3, 0)), min_size=n, max_size=n))
    terms = {}
    for perm, c in draw(
        st.lists(
            st.tuples(st.permutations(colors), st.sampled_from((1, -1, 2, -2, 3, -3))),
            min_size=1,
            max_size=10,
        )
    ):
        key = tuple(perm)
        terms[key] = terms.get(key, 0) + c
    x = Coloring(colors)
    return lam, TensorVector(n, x.k, x.l, terms)


@SEEDED
@given(shape_and_vector(sizes=(3, 4, 5, 6)))
def test_symmetrizer_equals_double_sum(case):
    lam, w = case
    assert apply_symmetrizer(w, lam) == brute_symmetrizer(w, lam)


# The exhaustive equivariance tests stop at n = 6.  Most random vectors of
# n = 7, 8 lie in the kernel of a random symmetrizer, where both sides are
# zero, so those draws are discarded.


@SEEDED
@given(shape_and_vector(sizes=(7, 8)))
def test_symmetrizer_commutes_with_tensor_swap(case):
    lam, w = case
    image = apply_symmetrizer(w, lam)
    assume(not image.is_zero())
    assert apply_symmetrizer(tensor_swap(w), lam) == tensor_swap(image)


@SEEDED
@given(shape_and_vector(sizes=(7, 8)))
def test_symmetrizer_commutes_with_tensor_complement(case):
    lam, w = case
    image = apply_symmetrizer(w, lam)
    assume(not image.is_zero())
    assert apply_symmetrizer(tensor_complement(w), lam) == tensor_complement(image)
