import hashlib
from itertools import product

import pytest

from cfasym import verify_enumeration
from cfasym.continuants import anticontinuant, continuant, fibonacci
from cfasym.errors import DomainError
from cfasym.exhaustive import ENTRY_MAX, _checked_bound, _two_sided_blocks
from scanning import scan_small_anticontinuants, scan_small_anticontinuants_reference


@pytest.mark.parametrize("max_len, max_entry, value_bound", [
    (6, 4, 6),
    (4, 5, 7),        # shorter than 6: no hit wrapped twice
    (5, 3, 5),
    (7, 3, 5),        # hits wrapped twice at lengths 6 and 7
    (9, 1, 3),        # entries all 1: every sequence is a palindrome, no hits
    (6, 4, 1),        # the smallest bound
    (6, 4, 10 ** 6),  # a bound above every value
    (2, 6, 5),        # length 2 only: the empty middle
    # two-sided hits whose middle (x, *r) has a long r:
    (6, 5, 2),        # (1, 1, 4, 2), value -2
    (6, 5, 20),
    (5, 8, 8),        # (1, 1, 3, 4, 2), value -8
    (7, 4, 100),
    (5, 4, 1),
    (7, 6, 4),
    (4, 6, 1),
    # many wrapped hits (1, b, m, b, 1), with b != 1 and two-sided m:
    (8, 4, 6),
    (8, 3, 4),
])
def test_scanner_matches_reference(max_len, max_entry, value_bound):
    fast = sorted(scan_small_anticontinuants(max_len, max_entry, value_bound))
    slow = sorted(scan_small_anticontinuants_reference(max_len, max_entry, value_bound))
    assert fast == slow
    assert len(fast) > 0 or max_entry == 1


@pytest.mark.parametrize("max_len, max_entry, value_bound", [(8, 3, 4), (8, 4, 6)])
def test_one_sided_hits_do_not_depend_on_the_first_entry(max_len, max_entry, value_bound):
    # a hit of length L with F(L - 2) > B has no two-sided middle, so it is
    # (a, m, a) with value -A(m), whatever a is; the scanner lists it once
    middles = {a: set() for a in range(1, max_entry + 1)}
    for q, value in scan_small_anticontinuants_reference(max_len, max_entry, value_bound):
        if fibonacci(len(q) - 2) > value_bound:
            assert q[-1] == q[0]
            assert value == -anticontinuant(q[1:-1])
            middles[q[0]].add((q[1:-1], value))
    assert middles[1]
    assert all(found == middles[1] for found in middles.values())


def test_anticontinuant_splits_off_the_ends():
    # A(a, m, e) = (a - e)*K(m) - A(m), the identity the scanner builds on
    for length in range(4, 8):
        for a, *m, e in product(range(1, 5), repeat=length):
            assert anticontinuant((a, *m, e)) == (a - e) * continuant(m) - anticontinuant(m)


def test_two_sided_values_are_bounded_by_a_shorter_middle():
    # why the scanner looks for the middles of two-sided hits (a, m, e) among
    # (x, *r) and (*r, x) with K(r) <= B: |A| >= K(m[1:]) when a > e, and
    # |A| >= K(m[:-1]) when a < e
    for length in range(7):
        for m in product(range(1, 5), repeat=length):
            for a, e in product(range(1, 5), repeat=2):
                if a != e:
                    shorter = m[1:] if a > e else m[:-1]
                    assert abs(anticontinuant((a, *m, e))) >= continuant(shorter)


@pytest.mark.parametrize("max_len, max_entry, value_bound, count, digest", [
    (9, 5, 8, 25_782, "c8c64bf38fbf3dc8f258fa03b5846471253d96260c6d46d13f05cf038524c6d6"),
    (8, 6, 6, 18_782, "2329a575b70be97902744c09c69f2a6bba34da06f4e7dfd906ef50c529f95e1b"),
    (10, 8, 8, 609_982, "a7a7acf6c45407cfdea5fe7ac3d2229b3058152fbaac0d88ea36d3c0d1dcead0"),
])
def test_scanner_order_is_pinned(max_len, max_entry, value_bound, count, digest):
    hits = list(scan_small_anticontinuants(max_len, max_entry, value_bound))
    assert len(hits) == count
    assert hashlib.sha256(repr(hits).encode()).hexdigest() == digest


def test_scanner_order_is_pinned_at_many_bounds():
    # every max_len <= 9 and max_entry <= 6 with max_entry**max_len <= 2*10**4
    digest = hashlib.sha256()
    count = 0
    for max_len, max_entry in product(range(1, 10), range(1, 7)):
        if max_entry ** max_len > 2 * 10 ** 4:
            continue
        for value_bound in (1, 2, 3, 5, 8, 13, 21, 100, 10 ** 6):
            hits = list(scan_small_anticontinuants(max_len, max_entry, value_bound))
            count += len(hits)
            digest.update(repr((max_len, max_entry, value_bound, hits)).encode())
    assert count == 263_656
    assert digest.hexdigest() == "1b4e6ea360467cac98c407274e56c47371b1b99e028e7d7d5ef3ae742db8020f"


def test_scanner_values_are_true_anticontinuants():
    for q, value in scan_small_anticontinuants(7, 3, 4):
        assert anticontinuant(q) == value
        assert 1 <= abs(value) <= 4


@pytest.mark.parametrize("bounds, count, digest", [
    ((6, 1000, 128), 29_031, "860f2596ef031bc9594dd3347083a2c869c4e89d3496b4e73ea00754e2b92618"),
    ((8, 128, 128), 42_796, "e27e3f3d595985c7dc6e087dd61cf5de06f74be1785b45ebe24050e482241cde"),
])
def test_two_sided_blocks_are_pinned(bounds, count, digest):
    # the walk stops each row of middles (x, *r) at the value bound; the
    # blocks, in any order, are those of the unpruned walk
    blocks = sorted(_two_sided_blocks(*bounds[:2], _checked_bound(*bounds)))
    assert len(blocks) == count
    assert hashlib.sha256(repr(blocks).encode()).hexdigest() == digest


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
    for bounds in [(80, 200, 5), (0, 3, 5)]:
        with pytest.raises(DomainError):
            verify_enumeration(*bounds)


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
        with pytest.raises(DomainError, match="integers"):
            verify_enumeration(*bounds)


@pytest.mark.parametrize("max_len, max_entry", [(39, 2), (61, 1)])
def test_int64_guard_at_its_exact_boundary(max_len, max_entry):
    # the guard on the size of the sequence space: (max_entry + 1) ** max_len
    # is just below 2^62 here and reaches it one entry longer; only the guard
    # is called, never a scan at these bounds
    assert _checked_bound(max_len, max_entry, 5) == 5
    with pytest.raises(DomainError, match="sequence space"):
        _checked_bound(max_len + 1, max_entry, 5)


def test_entry_cap_at_its_exact_boundary():
    # the walk's value 2 middles (x, 1) run to max_entry, so it is capped;
    # only the guard is called, never a scan at these bounds
    assert ENTRY_MAX == 1000
    assert _checked_bound(1, ENTRY_MAX, 5) == 5
    assert _checked_bound(6, ENTRY_MAX, 8) == 8  # the longest length it allows
    with pytest.raises(DomainError, match="max_entry must be at most 1000"):
        _checked_bound(1, ENTRY_MAX + 1, 5)
    with pytest.raises(DomainError, match="max_entry"):
        _checked_bound(2, 10 ** 9, 10 ** 9)
