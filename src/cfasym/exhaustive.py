"""Exhaustive scan of bounded quotient sequences for small anticontinuants.

`verify_enumeration`, at the end, checks the type catalog against the scan.

A hit is a sequence q with length <= max_len, entries in [1, max_entry]
and 1 <= |A(q)| <= B.  The scan builds the hits from one identity: for a
sequence (a, m, e) with a middle m,

    A(a, m, e) = (a - e)*K(m) - A(m).

End-symmetric hits.  For a = e the value is -A(m), so (a, m, a) is a hit
exactly when m is a hit two entries shorter, whatever a is.  So the hits
of length L are the two-sided ones and (a, h, a), with value -A(h), for
every hit h of length L - 2 and every a.

Two-sided hits.  For a != e, A(a, m, e) = (a - e)*K(m) + K(m[1:]) - K(m[:-1]).
With a > e the first term is at least K(m) >= K(m[:-1]), so the value is
at least K(m[1:]) >= 1; with a < e it is at most -K(m[:-1]).  So a hit
with a > e has a middle m = (x, *r) with K(r) <= B, and a pruned
depth-first search finds those r (a continuant grows as entries are
appended) and checks each r's middles where it reaches r.  It carries K(r),
K(r[1:]), K(r[:-1]) and K(r[1:-1]), so each middle's K(m) and A(m) come in
one step, and a middle is built as a tuple only when it yields a block.
Each middle is checked exactly: the value is v = d*K(m) - A(m) with
d = a - e >= 1, so only d <= (A(m) + B) // K(m) can give a hit, and every
such (a, e) does.  For each r the walk stops x at the first middle whose
d = 1 value passes B, as that value never decreases in x.  The two-sided
block (m, d, v) stands for the hits (e + d, m, e) with value v and their
reversals (e, rev m, e + d) with value -v, as A(reversed q) = -A(q), for
e in 1..max_entry - d.

Type instances.  Every hit is a block's hit wrapped in a symmetric outer
layer of some depth D, and `verify_enumeration` reads its type instance
(c, core, sigma, value) off the block (m, d) of length L:
- an outer layer of depth D flips the signs of c and of the value when D
  is odd and keeps them when D is even, so the block carries exactly the
  instances (d, m, even, v) and (-d, rev m, even, -v), and, when
  L + 2 <= max_len, also (-d, m, odd, -v) and (d, rev m, odd, v);
- it has 2*(max_entry - d)*sum(max_entry**D) hits, over the D with
  L + 2*D <= max_len;
- in scan order an instance's first hit has an all-ones outer layer and
  e = 1: that twin of any of its hits has the same length, key and value,
  and entries that are no larger, and `scan_position` reads entries at
  fixed positions.  So only the few depths of the instance's parity are
  compared.

Scan order.  `scan_position` orders hits by their first three entries, then
the length, then the other entries from the last one back.  It keeps the
order of the earlier level-by-level scan (three-entry prefixes depth
first, then the entries after them read with the last one most
significant), because pinned outputs record it: the sequence that a
`verify_enumeration` violation names, the first hit of its type instance
in scan order, and the hit order of the tests' listing `tests/scanning.py`.

All arithmetic is in Python ints.  Only the scan is free of type theory:
it uses continuant algebra alone, so it stays an independent check of the
type catalog.  The check, `verify_enumeration`, decomposes each instance and
builds its catalogs through `asymmetry`, read at call time (see the package
docstring), so the scan and the check run only this module, `errors`,
`asymmetry` and `continuants`, and `asymmetry` only once the check is called.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import asymmetry
from .errors import DomainError, ViolationRecord, as_plain, is_int, report_ok, report_to_json

# largest max_entry: the walk visits at most B + 1 middles (x, *r) for each r
# but value 2's (x, 1), one for every x, so only those grow with max_entry
ENTRY_MAX = 1000
# (max_entry + 1)**max_len, the sequences a check stands for, stays below it:
# it caps max_len, the search's depth and the hit count reported
_SEQUENCE_SPACE_MAX = 2 ** 62


def scan_position(q):
    """The key of q in scan order: q1, q2, q3, the length, then the others from the last back.

    Missing q2, q3 read as 0, so a sequence comes before its extensions.
    """
    return (*q[:3], *(0,) * (3 - len(q)), len(q), *q[:2:-1])


def _checked_bound(max_len: int, max_entry: int, value_bound: int) -> int:
    """The value bound clamped to the largest reachable value; DomainError on bad bounds."""
    if not all(is_int(v) for v in (max_len, max_entry, value_bound)):
        raise DomainError(f"bounds must be integers, got {(max_len, max_entry, value_bound)!r}")
    if min(max_len, max_entry, value_bound) < 1:
        raise DomainError("bounds must be positive")
    if max_entry > ENTRY_MAX:
        raise DomainError(f"max_entry must be at most {ENTRY_MAX}, got {max_entry}")
    # max_entry >= 1, so the base is at least 2: refuse a long max_len before the power
    if max_len >= 62 or (max_entry + 1) ** max_len >= _SEQUENCE_SPACE_MAX:
        raise DomainError(f"bounds (len {max_len}, entry {max_entry}) span a sequence "
                          f"space of (max_entry + 1)**max_len >= 2**62")
    # every continuant reached is at most prod(q_i + 1), and A is a difference of two
    return min(value_bound, (max_entry + 1) ** max_len)


def _two_sided_blocks(max_len: int, max_entry: int, bound: int
                      ) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The blocks (m, d, v), v = d*K(m) - A(m), of every two-sided hit.

    The block stands for the hits (e + d, *m, e) with value v and
    (e, *reversed(m), e + d) with value -v, for e in 1..max_entry - d.
    `bound` must come from `_checked_bound`.
    """
    entries = range(1, max_entry + 1)
    if max_len >= 2:  # the empty middle: K = 1 and A = 0, so v = d
        yield from (((), d, d) for d in range(1, min(max_entry - 1, bound) + 1))

    def search(r, k_r, kt, kh, km):
        # r has K(r) = k_r <= bound, K(r[1:]) = kt, K(r[:-1]) = kh and
        # K(r[1:-1]) = km.  m = (x, *r) has K(m) = x*K(r) + K(r[1:]) and
        # A(m) = K(x, *r[:-1]) - K(r) = x*K(r[:-1]) + K(r[1:-1]) - K(r).
        # The d = 1 value K(m) - A(m) grows with x by K(r) - K(r[:-1]) >= 0,
        # which is 0 only for value 2's middles (x, 1): stop past the bound
        for x in entries:
            k, a_m = x * k_r + kt, x * kh + km - k_r
            if k - a_m > bound:
                break
            for d in range(1, min(max_entry - 1, (a_m + bound) // k) + 1):
                yield (x, *r), d, d * k - a_m
        # (*r, e) has e*K(r) + K(r[:-1]) and e*K(r[1:]) + K(r[1:-1]), then K(r)
        # and K(r[1:]); its middles give blocks of length len(r) + 4.  K(r, e)
        # grows with e, so the search stops at the first e past the bound
        if len(r) + 4 <= max_len:
            for e in entries:
                if e * k_r + kh > bound:
                    break
                yield from search((*r, e), e * k_r + kh, e * kt + km, k_r, kt)

    if max_len >= 3:
        yield from search((), 1, 0, 0, 1)


class EnumerationReport(NamedTuple):
    """Hits and distinct type instances met; violations empty means the check held."""

    hits: int
    types: int
    violations: tuple[ViolationRecord, ...]
    ok = report_ok
    to_json = report_to_json

    def to_dict(self) -> dict:
        """The fields plus `ok`, as `VerificationReport.to_dict` gives them."""
        return {**as_plain(self), "ok": self.ok}


def verify_enumeration(max_len: int, max_entry: int, value_bound: int) -> EnumerationReport:
    """Check the type catalog against every bounded sequence with a small value.

    Every quotient sequence with length <= max_len, entries in [1, max_entry]
    and 1 <= |anticontinuant| <= value_bound is met, and each distinct type
    instance (c, core, sigma, value) must give its value through the type
    formula and be listed by `enumerate_types(value)`; otherwise it is a
    "formula_mismatch" or "missing_from_catalog" violation.  The two-sided
    blocks give the instances, the hit count and each instance's first hit
    in scan order directly (see "Type instances" above), so no hit is
    listed: the stock bounds have 609,982 hits but 88 blocks and 352
    instances.  Each instance is decomposed once, at its first hit, and the
    instances are checked in the order of those hits.  One search builds
    the catalogs of every value up to the largest one met, as
    `enumerate_types` would one at a time.  Bad bounds raise DomainError
    before that search, and so does a bound that could reach a value beyond
    TARGET_MAX, whose catalog `enumerate_types` refuses.
    """
    bound = _checked_bound(max_len, max_entry, value_bound)
    if bound > asymmetry.TARGET_MAX:
        raise DomainError(f"value_bound must be at most {asymmetry.TARGET_MAX}, "
                          f"got {value_bound}")
    first = []  # each instance's first hit: (scan position, sequence, value)
    hits = 0
    for m, d, v in _two_sided_blocks(max_len, max_entry, bound):
        depths = range((max_len - len(m)) // 2)  # of the outer layer
        hits += 2 * (max_entry - d) * sum(max_entry ** depth for depth in depths)
        for block, value in [((1 + d, *m, 1), v), ((1, *m[::-1], 1 + d), -v)]:
            for parity in range(min(2, len(depths))):
                q = min(((1,) * depth + block + (1,) * depth for depth in depths[parity::2]),
                        key=scan_position)
                first.append((scan_position(q), q, -value if parity else value))
    top = max((abs(value) for *_, value in first), default=0)  # often far below bound
    catalogs = {sign * v: asymmetry._catalog(sign * v, pairs)
                for v, pairs in asymmetry._sigma_even_pairs(top).items() for sign in (1, -1)}
    violations: list[ViolationRecord] = []
    for _, q, value in sorted(first):
        dec = asymmetry.decompose(q)
        if asymmetry.type_value(asymmetry.extended_type(dec)) != value:
            violations.append(ViolationRecord(None, None, q, "formula_mismatch"))
            continue
        if not catalogs[value].contains(dec.c, dec.core, dec.sigma):
            violations.append(ViolationRecord(None, None, q, "missing_from_catalog"))
    return EnumerationReport(hits, len(first), tuple(violations))
