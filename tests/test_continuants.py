from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfasym.continuants import (FIB_MAX, _ends, anticontinuant, anticontinuant_range, continuant,
                                continuant_range, euler_residual, fibonacci)
from cfasym.errors import DomainError

entries = st.integers(min_value=1, max_value=9)
sequences = st.lists(entries, min_size=1, max_size=12).map(tuple)


def anticontinuant_by_recursion(q, i, j):
    # independent oracle: the inward recursion instead of the defining difference
    if j <= i:
        return 0
    return (q[i] - q[j]) * continuant_range(q, i + 1, j - 1) - anticontinuant_by_recursion(q, i + 1, j - 1)


def test_continuant_examples():
    assert continuant((1, 2, 3)) == 10  # 1*2*3 + 1 + 3
    assert continuant((2, 1, 2, 1)) == 11
    assert continuant((3, 1, 1, 3)) == 25
    assert continuant(()) == 1


def test_continuant_sentinels():
    q = (4, 7, 2)
    for i in range(0, 4):
        assert continuant_range(q, i, i - 1) == 1
        assert continuant_range(q, i, i - 2) == 0


def test_continuant_range_rejects_bad_indices():
    q = (1, 2, 3)
    with pytest.raises(DomainError):
        continuant_range(q, -1, 1)
    with pytest.raises(DomainError):
        continuant_range(q, 0, 3)
    with pytest.raises(DomainError):
        continuant_range(q, 3, 0)
    with pytest.raises(DomainError):
        continuant((1, 0, 2))


def test_ends_match_the_four_ranges():
    # K(q), K(q[1:]), K(q[:-1]) and K(q[1:-1]) in one pass, from the seeds of
    # the empty and the one-entry sequence
    assert _ends(()) == (1, 0, 0, 1)
    for e in (1, 2, 7):
        assert _ends((e,)) == (e, 1, 1, 0)
    for length in range(1, 7):
        for q in product((1, 2, 3), repeat=length):
            s = len(q)
            assert _ends(q) == (continuant_range(q, 0, s - 1), continuant_range(q, 1, s - 1),
                                continuant_range(q, 0, s - 2), continuant_range(q, 1, s - 2))


def test_anticontinuant_examples():
    assert anticontinuant((5, 1)) == 4
    assert anticontinuant((3, 1, 1, 3)) == 0
    # by direct recursion: K(1,1,1,2,2) - K(1,1,2,2,1) = 19 - 17
    assert continuant((1, 1, 1, 2, 2)) == 19
    assert continuant((1, 1, 2, 2, 1)) == 17
    assert anticontinuant((1, 1, 1, 2, 2, 1)) == 2
    assert anticontinuant((7,)) == 0
    assert anticontinuant(()) == 0


def test_anticontinuant_range_bounds():
    q = (2, 3, 4)
    assert anticontinuant_range(q, 1, 0) == 0
    assert anticontinuant_range(q, 2, 2) == 0
    with pytest.raises(DomainError):
        anticontinuant_range(q, 0, 3)
    with pytest.raises(DomainError):
        anticontinuant_range(q, 2, 0)


def test_euler_residual_examples():
    # convergent specialization: 25*2 - 7*7 = 1 = (-1)^4
    assert euler_residual((3, 1, 1, 3), 0, 1, 2, 3) == 0
    assert euler_residual((2, 1, 2, 1), 0, 1, 1, 3) == 0
    q = (4, 9, 1, 6)
    for k in range(4):
        assert euler_residual(q, k, k, 2, 2) == 0


def test_euler_residual_rejects_bad_indices():
    q = (1, 2, 3, 4)
    with pytest.raises(DomainError):
        euler_residual(q, 2, 1, 2, 3)
    with pytest.raises(DomainError):
        euler_residual(q, 0, 4, 1, 3)
    with pytest.raises(DomainError):
        euler_residual(q, 0, 0, 2, 1)


def test_fibonacci():
    assert [fibonacci(k) for k in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    with pytest.raises(DomainError):
        fibonacci(-1)


def test_fibonacci_is_bounded():
    # past the bound its cost, about k^2, passes half a second; F_k mod 1000
    # repeats with period 1500, which checks the value at the bound
    assert fibonacci(FIB_MAX) % 1000 == fibonacci(FIB_MAX % 1500) % 1000
    for k in (FIB_MAX + 1, 10**9):
        with pytest.raises(DomainError, match=rf"at most {FIB_MAX}, got {k}$"):
            fibonacci(k)


@pytest.mark.parametrize("s", range(1, 21))
def test_all_ones_continuant_is_fibonacci(s):
    assert continuant((1,) * s) == fibonacci(s + 1)


@given(sequences)
def test_continuant_symmetry(q):
    assert continuant(q) == continuant(q[::-1])


@given(sequences)
def test_continuant_minimality(q):
    assert continuant(q) >= fibonacci(len(q) + 1)


@given(sequences)
def test_reversal_antisymmetry(q):
    assert anticontinuant(q[::-1]) == -anticontinuant(q)


@given(st.integers(1, 50), st.integers(1, 50))
def test_low_order_anticontinuants(a, b):
    assert anticontinuant((a, b)) == a - b


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
def test_low_order_anticontinuants_three(a, b, c):
    assert anticontinuant((a, b, c)) == a * b - b * c


@given(sequences, st.data())
def test_anticontinuant_definition_matches_recursion(q, data):
    s = len(q)
    i = data.draw(st.integers(0, s - 1))
    j = data.draw(st.integers(i - 1, s - 1))
    assert anticontinuant_range(q, i, j) == anticontinuant_by_recursion(q, i, j)


@settings(max_examples=300)
@given(sequences, st.data())
def test_euler_residual_is_zero(q, data):
    s = len(q)
    m = data.draw(st.integers(0, s - 1))
    n = data.draw(st.integers(m, s - 1))
    l = data.draw(st.integers(0, m + 2))
    k = data.draw(st.integers(0, l))
    assert euler_residual(q, k, l, m, n) == 0


@given(sequences)
def test_half_bound_under_end_condition(q):
    # |anticontinuant| < continuant / 2 when both ends are >= 2 or both are 1
    fixed = (max(q[0], 2),) + q[1:-1] + (max(q[-1], 2),) if len(q) > 1 else q
    for candidate in (fixed, (1,) + q[1:-1] + (1,) if len(q) > 1 else q):
        assert 2 * abs(anticontinuant(candidate)) < continuant(candidate)
