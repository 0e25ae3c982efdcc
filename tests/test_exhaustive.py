import hashlib
from itertools import product

import pytest

from cfasym.continuants import anticontinuant, continuant, fibonacci
from cfasym.errors import DomainError
from cfasym.exhaustive import (_checked_bound, scan_small_anticontinuants,
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
    # hits by an entry other than the first, where R = K(q3..) or Qp is small:
    (6, 5, 2),        # (1, 1, 4, 2), value -2, from a 3-entry parent
    (6, 5, 20),
    (5, 8, 8),        # (1, 1, 3, 4, 2), value -8
    (7, 4, 100),
    # the last level solved from its parents (one-sided, at least two levels):
    (5, 4, 1),        # from the 3-entry prefix itself
    (7, 6, 4),        # from a deeper parent level
    # built and tested, though the bound is the smallest:
    (4, 6, 1),        # one level, two-sided: F(2) = 1 does not pass B = 1
    # every q1 comes from the one table of its (q2, q3):
    (8, 4, 6),        # a non-empty solved level with hits where x != q2
    (8, 3, 4),        # three two-sided levels, whose children vary with q1,
                      # above two one-sided ones, whose hits do not
])
def test_scanner_matches_reference(max_len, max_entry, value_bound):
    fast = sorted(scan_small_anticontinuants(max_len, max_entry, value_bound))
    slow = sorted(scan_small_anticontinuants_reference(max_len, max_entry, value_bound))
    assert fast == slow
    assert len(fast) > 0 or max_entry == 1


@pytest.mark.parametrize("max_len, max_entry, value_bound", [(8, 3, 4), (8, 4, 6)])
def test_one_sided_hits_do_not_depend_on_the_first_entry(max_len, max_entry, value_bound):
    # a hit of length L whose parent's R = K(q3..) and Qp = K(q2..) are
    # continuants of L - 3 entries, hence >= F(L - 2) > B, is the child
    # e = q1 with value -A(q2..), whatever q1 is; the scanner reuses them
    middles = {a: set() for a in range(1, max_entry + 1)}
    for q, value in scan_small_anticontinuants_reference(max_len, max_entry, value_bound):
        if fibonacci(len(q) - 2) > value_bound:
            assert q[-1] == q[0]
            assert value == -anticontinuant(q[1:-1])
            middles[q[0]].add((q[1:-1], value))
    assert middles[1]
    assert all(found == middles[1] for found in middles.values())


def test_anticontinuant_splits_off_the_ends():
    # A(a, m, e) = (a - e)*K(m) - A(m): a two-sided candidate of the scanner
    # depends only on m, and its children's values on q1 = a only through
    # (a - e)*Q, Q = K(m)
    for length in range(4, 8):
        for a, *m, e in product(range(1, 5), repeat=length):
            assert anticontinuant((a, *m, e)) == (a - e) * continuant(m) - anticontinuant(m)


@pytest.mark.parametrize("max_len, max_entry, value_bound, count, digest", [
    (9, 5, 8, 25_782, "c8c64bf38fbf3dc8f258fa03b5846471253d96260c6d46d13f05cf038524c6d6"),
    (8, 6, 6, 18_782, "2329a575b70be97902744c09c69f2a6bba34da06f4e7dfd906ef50c529f95e1b"),
    (10, 8, 8, 609_982, "a7a7acf6c45407cfdea5fe7ac3d2229b3058152fbaac0d88ea36d3c0d1dcead0"),
])
def test_scanner_order_is_pinned(max_len, max_entry, value_bound, count, digest):
    hits = list(scan_small_anticontinuants(max_len, max_entry, value_bound))
    assert len(hits) == count
    assert hashlib.sha256(repr(hits).encode()).hexdigest() == digest


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
    for bounds in [(6.0, 4, 2), (6, 4.0, 2), (6, 4, 2.5)]:
        with pytest.raises(DomainError, match="integers"):
            scan_small_anticontinuants(*bounds)


@pytest.mark.parametrize("max_len, max_entry", [(39, 2), (61, 1)])
def test_int64_guard_at_its_exact_boundary(max_len, max_entry):
    # (max_entry + 1) ** max_len is just below 2^62 here and reaches it one entry
    # longer; only the guard is called, never a scan at these bounds
    assert _checked_bound(max_len, max_entry, 5) == 5
    with pytest.raises(DomainError, match="exact int64 range"):
        _checked_bound(max_len + 1, max_entry, 5)
