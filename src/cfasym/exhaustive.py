"""Exhaustive scan of bounded quotient sequences for small anticontinuants.

Every sequence with length <= max_len and entries in [1, max_entry] is
visited through an incremental recurrence on four continuants: with
P = K(q), Pp = K(q minus last), Q = K(q minus first), Qp = K(q minus both),
appending an entry e maps (P, Pp, Q, Qp) to (e*P + Pp, P, e*Q + Qp, Q), and
the anticontinuant of the extended sequence is P - (e*Q + Qp).  Inner levels
run vectorized in int64; that is exact here because every continuant reached
satisfies K(q) <= prod(q_i + 1) <= (max_entry + 1)^max_len, and the guard
raises DomainError unless that is below 2^62 (for the stock bounds 8 and 10
the maximum is about 1.3e9), so no per-level check is needed.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from .errors import DomainError

_INT64_GUARD = 2 ** 62


def scan_small_anticontinuants(max_len: int, max_entry: int, value_bound: int,
                               chunk_depth: int = 3) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (sequence, anticontinuant) for every sequence with 1 <= |value| <= value_bound."""
    if max_len < 1 or max_entry < 1 or value_bound < 1:
        raise DomainError("bounds must be positive")
    if (max_entry + 1) ** max_len >= _INT64_GUARD:
        raise DomainError(
            f"bounds (len {max_len}, entry {max_entry}) exceed the exact int64 range")
    chunk_depth = min(chunk_depth, max_len)
    entries = np.arange(1, max_entry + 1, dtype=np.int64).reshape(-1, 1)

    # short sequences, and the per-prefix scalar states, in plain Python;
    # the Q track is seeded (0, 1) so the first append lands on K(empty) = 1
    def states(depth: int) -> Iterator[tuple[tuple[int, ...], int, int, int, int]]:
        def rec(prefix, p, pp, qq, qp):
            if prefix:
                yield prefix, p, pp, qq, qp
            if len(prefix) == depth:
                return
            for e in range(1, max_entry + 1):
                yield from rec(prefix + (e,), e * p + pp, p, e * qq + qp, qq)

        yield from rec((), 1, 0, 0, 1)

    for prefix, p, pp, qq, qp in states(chunk_depth):
        value = pp - qq
        if 1 <= abs(value) <= value_bound:
            yield prefix, value
        if len(prefix) < chunk_depth or max_len == chunk_depth:
            continue
        # vectorized levels chunk_depth+1 .. max_len under this prefix
        P = np.array([p], dtype=np.int64)
        Pp = np.array([pp], dtype=np.int64)
        Q = np.array([qq], dtype=np.int64)
        Qp = np.array([qp], dtype=np.int64)
        for depth in range(chunk_depth + 1, max_len + 1):
            size = P.shape[0]
            newP = (entries * P + Pp).ravel()
            newPp = np.broadcast_to(P, (max_entry, size)).ravel()
            newQ = (entries * Q + Qp).ravel()
            newQp = np.broadcast_to(Q, (max_entry, size)).ravel()
            values = newPp - newQ
            hits = np.nonzero((values != 0) & (np.abs(values) <= value_bound))[0]
            if hits.size:
                k = depth - chunk_depth
                digits = (hits[:, None] // (max_entry ** np.arange(k))) % max_entry + 1
                for row, idx in zip(digits, hits):
                    yield prefix + tuple(int(d) for d in row), int(values[idx])
            P, Pp, Q, Qp = newP, newPp, newQ, newQp


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
