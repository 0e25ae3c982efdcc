"""Exhaustive scan of bounded quotient sequences for small anticontinuants.

A hit is a sequence q with length <= max_len, entries in [1, max_entry]
and 1 <= |A(q)| <= B.  The scan builds the hits length by length from one
identity: for a sequence (a, m, e) with a middle m,

    A(a, m, e) = (a - e)*K(m) - A(m).

End-symmetric hits.  For a = e the value is -A(m), so (a, m, a) is a hit
exactly when m is a hit two entries shorter, whatever a is.  Such a hit is
listed once, as (1, m, 1) in a batch with the `ends` flag, which stands for
(a, m, a) at every a.  So the hits listed at length L are the two-sided
ones and (1, m, 1) for every hit m of length L - 2, where m is two-sided
or (b, m', b) around a hit m' of length L - 4.  The scan keeps the
two-sided hits of a length until they are wrapped, and every hit of a
length, ends expanded, only while a hit four entries longer wraps it: at
the stock bounds (10, 8, 8) at most the 6,330 hits of length 6.

Two-sided hits.  For a != e, A(a, m, e) = (a - e)*K(m) + K(m[1:]) - K(m[:-1]).
With a > e the first term is at least K(m) >= K(m[:-1]), so the value is
at least K(m[1:]) >= 1; with a < e it is at most -K(m[:-1]).  So a hit
with a > e has a middle m = (x, *r) with K(r) <= B, and a pruned
depth-first search lists those r (a continuant grows as entries are
appended).  Each middle is checked exactly, in Python ints: the value is
d*K(m) - A(m) with d = a - e >= 1, so only d <= (A(m) + B) // K(m) can
give a hit, and every such (a, e) does.  The hits with a < e are the
reversals of these, as A(reversed q) = -A(q).

Batches.  A batch (rows, values, ends) holds hits of one length as int64
digit rows, sorted into scan order by one np.lexsort.  The hits
(1, b, m', b, 1) of a length come in one batch per b and first entry c of
m', which at the stock bounds makes 64 batches of about 800 rows for
length 10.  `verify_enumeration` keys each batch whole in numpy, so the
batch size sets its memory: one batch per b, 6,330 rows, takes it from
about 0.9 MB to 2.6 MB (tracemalloc peaks).

Scan order.  `scan_position` orders hits by their first three entries, then
the length, then the other entries from the last one back.  It keeps the
order of the earlier level-by-level scan (three-entry prefixes depth
first, then the entries after them read with the last one most
significant), because pinned outputs record it: the hit order of
`scan_small_anticontinuants`, and the sequence that a `verify_enumeration`
violation names, the first hit of its type instance in scan order.

Exactness.  Middles and their values are computed in Python ints; the rows
hold entries <= max_entry, and the values |A| <= B.  The bound is clamped
to B <= M = (max_entry + 1)^max_len, which changes no hit, since every
continuant reached is at most prod(q_i + 1) <= M and an anticontinuant is
a difference of two of them; the DomainError guard rejects bounds with
M >= 2^62, so values fit int64, and so does the packed core of
`verifier._type_keys`, a number below M in base max_entry + 1.  The scan
uses continuant algebra only, no type theory, so it stays an independent
check of the type catalog.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from .continuants import _continuant
from .errors import DomainError, is_int

_INT64_GUARD = 2 ** 62


def scan_small_anticontinuants(max_len: int, max_entry: int,
                               value_bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (sequence, anticontinuant) for every sequence with 1 <= |value| <= value_bound.

    The hits come in scan order (`scan_position`).  The bounds are checked
    here, at the call; the first `next` runs the whole scan, since the hits
    are sorted before any is yielded.
    """
    bound = _checked_bound(max_len, max_entry, value_bound)

    def in_scan_order():
        seqs, values, positions = [], [], []
        for rows, batch_values, ends in _scan_batches(max_len, max_entry, bound):
            if ends:
                # each (1, m, 1) stands for (a, m, a) at every a, all with its value
                rows = np.tile(rows, (max_entry, 1))
                rows[:, [0, -1]] = np.repeat(np.arange(1, max_entry + 1),
                                             batch_values.size)[:, None]
                batch_values = np.tile(batch_values, max_entry)
            seqs += zip(*rows.T.tolist())
            values += batch_values.tolist()
            # zeros past a short position: only positions of one length differ
            # there; the narrowest dtype that holds every part, as np.lexsort
            # sorts 8- and 16-bit keys by radix, some ten times faster
            parts = np.broadcast_arrays(*scan_position(rows.T))
            position = np.zeros((rows.shape[0], max(max_len, 3) + 1),
                                dtype=np.min_scalar_type(max(max_len, max_entry)))
            position[:, :len(parts)] = np.stack(parts, axis=1)
            positions.append(position)
        if positions:
            for k in np.lexsort(np.concatenate(positions).T[::-1]).tolist():
                yield seqs[k], values[k]

    return in_scan_order()


def scan_position(q):
    """The key of q in scan order: q1, q2, q3, the length, then the others from the last back.

    Missing q2, q3 read as 0, so a sequence comes before its extensions.
    On the transpose of a k x L array of digit rows it gives the same
    parts, as length-k arrays and scalars.
    """
    return (*q[:3], *(0,) * (3 - len(q)), len(q), *q[:2:-1])


def _checked_bound(max_len: int, max_entry: int, value_bound: int) -> int:
    """The value bound clamped to the int64-safe range; DomainError on bad bounds."""
    if not all(is_int(v) for v in (max_len, max_entry, value_bound)):
        raise DomainError(f"bounds must be integers, got {(max_len, max_entry, value_bound)!r}")
    if min(max_len, max_entry, value_bound) < 1:
        raise DomainError("bounds must be positive")
    if (max_entry + 1) ** max_len >= _INT64_GUARD:
        raise DomainError(
            f"bounds (len {max_len}, entry {max_entry}) exceed the exact int64 range")
    return min(value_bound, (max_entry + 1) ** max_len)


def _wrapped(a: int, rows: np.ndarray) -> np.ndarray:
    """The rows (a, row, a), int64."""
    out = np.full((rows.shape[0], rows.shape[1] + 2), a, dtype=np.int64)
    out[:, 1:-1] = rows
    return out


def _scan_batches(max_len: int, max_entry: int, bound: int
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """The hits, in batches (rows, values, ends) of one length each.

    `rows` (k x L, k >= 1) are the hits' int64 digit rows in scan order and
    `values` their int64 anticontinuants.  Where the bool `ends` is set,
    every row is (1, m, 1) and stands for the hit (a, m, a) at every a in
    [1, max_entry], all with its value; those with a >= 2 are not listed.
    `bound` must come from `_checked_bound`.
    """
    entries = range(1, max_entry + 1)
    # the r with K(r) <= bound, by length; K(r, e) = e*K(r) + K(r[:-1])
    # grows with e, so the search stops at the first e past the bound
    small: list[list[tuple[int, ...]]] = [[] for _ in range(max(max_len - 2, 1))]

    def search(r, k, k_prev):
        small[len(r)].append(r)
        if len(r) + 1 < len(small):
            for e in entries:
                if e * k + k_prev > bound:
                    break
                search((*r, e), e * k + k_prev, k)

    search((), 1, 0)

    def two_sided(length):
        # (a, m, e) with a > e and m = (x, *r), value d*K(m) - A(m) >= 1 for
        # d = a - e; then their reversals, the hits with a < e
        middles = [()] if length == 2 else [(x, *r) for x in entries for r in small[length - 3]]
        found, values = [], []
        for m in middles:
            k = _continuant(m, 0, len(m) - 1)
            a_m = _continuant(m, 0, len(m) - 2) - _continuant(m, 1, len(m) - 1)
            for d in range(1, min(max_entry - 1, (a_m + bound) // k) + 1):
                found += [(e + d, *m, e) for e in range(1, max_entry - d + 1)]
                values += [d * k - a_m] * (max_entry - d)
        rows = np.array(found, dtype=np.int64).reshape(-1, length)
        values = np.array(values, dtype=np.int64)
        return np.concatenate((rows, rows[:, ::-1])), np.concatenate((values, -values))

    def batch(rows, values, ends):
        if values.size:
            order = np.lexsort(np.broadcast_arrays(*scan_position(rows.T))[::-1])
            yield rows[order], values[order], ends

    cores = {}  # the two-sided hits of a length, until it is wrapped
    wraps = {}  # every hit of a length, until it is wrapped twice
    for length in range(2, max_len + 1):
        cores[length] = two_sided(length)
        yield from batch(*cores[length], False)
        if length - 2 in cores:
            rows, values = cores.pop(length - 2)
            yield from batch(_wrapped(1, rows), -values, True)
        if length - 4 in wraps:
            inner, inner_values = wraps.pop(length - 4)
            for c in entries:
                at = inner[:, 0] == c
                middles, values = inner[at], inner_values[at]
                for b in entries:
                    yield from batch(_wrapped(1, _wrapped(b, middles)), values, True)
        if length + 4 <= max_len:
            rows, values = cores[length]
            if length - 2 in wraps:
                inner, inner_values = wraps[length - 2]
                rows = np.concatenate([rows, *(_wrapped(b, inner) for b in entries)])
                values = np.concatenate([values, *[-inner_values] * max_entry])
            wraps[length] = rows, values


def scan_small_anticontinuants_reference(max_len: int, max_entry: int,
                                         value_bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Plain-Python oracle for the vectorized scan; use only at small bounds."""
    for length in range(1, max_len + 1):
        for q in product(range(1, max_entry + 1), repeat=length):
            pm2, pm1 = 1, q[0]
            for e in q[1:]:
                pm2, pm1 = pm1, e * pm1 + pm2
            qm2, qm1 = 0, 1
            for e in q[1:]:
                qm2, qm1 = qm1, e * qm1 + qm2
            value = pm2 - qm1
            if 1 <= abs(value) <= value_bound:
                yield q, value
