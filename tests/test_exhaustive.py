import pytest

from cfasym.continuants import anticontinuant
from cfasym.errors import DomainError
from cfasym.exhaustive import (scan_small_anticontinuants,
                               scan_small_anticontinuants_reference)


@pytest.mark.parametrize("max_len, max_entry, value_bound", [
    (6, 4, 6),
    (4, 5, 7),        # 3 scalar levels, then only the last level vectorized
    (5, 3, 5),        # two vectorized levels
    (7, 3, 5),        # four vectorized levels
    (9, 1, 3),        # entries all 1: every sequence is a palindrome, no hits
    (6, 4, 1),        # the smallest bound
    (6, 4, 10 ** 6),  # a bound above every value
    (2, 6, 5),        # shorter than the 3 scalar levels: no vectorized level
])
def test_scanner_matches_reference(max_len, max_entry, value_bound):
    fast = sorted(scan_small_anticontinuants(max_len, max_entry, value_bound))
    slow = sorted(scan_small_anticontinuants_reference(max_len, max_entry, value_bound))
    assert fast == slow
    assert len(fast) > 0 or max_entry == 1


def test_scanner_values_are_true_anticontinuants():
    for q, value in scan_small_anticontinuants(7, 3, 4):
        assert anticontinuant(q) == value
        assert 1 <= abs(value) <= 4


def test_scanner_finds_known_hits():
    hits = dict(scan_small_anticontinuants(4, 6, 5))
    assert hits[(5, 1)] == 4
    assert hits[(1, 5)] == -4
    assert hits[(2, 1, 2, 1)] == 4
    assert (3, 1, 1, 3) not in hits  # symmetric, value 0
    assert (2, 2) not in hits


def test_scanner_rejects_unsafe_bounds():
    with pytest.raises(DomainError):
        scan_small_anticontinuants(80, 200, 5).__next__()
    with pytest.raises(DomainError):
        next(scan_small_anticontinuants(0, 3, 5))


@pytest.mark.parametrize("value_bound", [2 ** 62, 2 ** 63 - 1, 10 ** 30])
def test_scanner_bounds_beyond_int64(value_bound):
    fast = list(scan_small_anticontinuants(5, 3, value_bound))
    assert sorted(fast) == sorted(scan_small_anticontinuants_reference(5, 3, value_bound))
    assert fast == list(scan_small_anticontinuants(5, 3, 4 ** 5))


def test_scanner_validates_at_the_call():
    with pytest.raises(DomainError):
        scan_small_anticontinuants(0, 3, 5)
    with pytest.raises(DomainError):
        scan_small_anticontinuants(80, 200, 5)
