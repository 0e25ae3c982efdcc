"""Exhaustive scan of bounded quotient sequences for small anticontinuants.

Every sequence with length <= max_len and entries in [1, max_entry] is
visited through an incremental recurrence on continuants.  For a parent
q = (q1, ..., ql) let Q = K(q2..ql), Qp = K(q2..q(l-1)) and R = K(q3..ql),
Rp = K(q3..q(l-1)).  Appending an entry e maps (R, Rp, Q, Qp) to
(e*R + Rp, R, e*Q + Qp, Q), and the anticontinuant of the extended sequence
is K(q) - K(q2..ql, e) = D - e*Q with D = K(q) - Qp = s + q1*Q, where
s = R - Qp (K(q) = q1*Q + R).  The R track replaces K(q) itself: it is
seeded from the prefix's continuants as R = K(q) - q1*Q, Rp = Kp - q1*Qp.

Candidate rule.  R/Q and Qp/Q both lie in (0, 1], so -Q < s < Q, and the
child e has the value s + (q1 - e)*Q.  For e = q1 that is s; for e != q1
its absolute value is at least Q - |s|.  So a parent can have a hit only
if |s| <= B or Q - |s| <= B, and no division is needed to find it.  The
second case needs R - Qp >= Q - B or Qp - R >= Q - B, so R <= B or
Qp <= B.  On level j both are continuants of j entries (the prefix holds
q1..q3), hence at least K(1, ..., 1), a Fibonacci number; on the levels
where that passes B the test is the one-sided |s| <= B, one subtraction
t = R - (Qp - B) = s + B and the unsigned compare t <= 2B.  The other
levels test min(|s|, Q - |s|) <= B.  Only the few candidates have all
their children checked exactly, with the value D - e*Q.  A level's hits
come from its parents' arrays, and its own arrays are built only when a
deeper level needs them, so the last level, 7/8 of all states, is never
materialized.  The hits leave `_scan_batches` as int64 digit arrays, one
per prefix and length, so a caller can work on them in numpy;
`scan_small_anticontinuants` flattens them to tuples in the same order.
The scan uses continuant algebra only, no type theory, so it stays an
independent check of the type catalog.

The first _CHUNK_DEPTH = 3 levels run in plain Python, one prefix at a time,
and the levels below them run vectorized in int64.  That is exact because
every continuant reached satisfies
K(q) <= prod(q_i + 1) <= (max_entry + 1)^max_len =: M, and the DomainError
guard rejects bounds with M >= 2^62 (for the stock bounds 8 and 10, M is
about 3.5e9).  An anticontinuant is a difference of two such continuants,
so its absolute value is below M, and clamping the bound to B <= M changes
no hit.  Then R <= K(q) < M, |s| < Q < M, Q - |s| lies in (0, M),
Qp - B in (-M, M) and s + B in (-M, 2M), 2B <= 2M < 2^63, and in the exact
check q1*Q <= K(q) < M, 0 <= D < M and e*Q < M, all inside int64; no
per-level check is needed.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from .continuants import fibonacci
from .errors import DomainError

_INT64_GUARD = 2 ** 62
_CHUNK_DEPTH = 3


def scan_small_anticontinuants(max_len: int, max_entry: int,
                               value_bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (sequence, anticontinuant) for every sequence with 1 <= |value| <= value_bound.

    The bounds are checked here, at the call; the scan itself is lazy.
    """
    batches = _scan_batches(max_len, max_entry,
                            _checked_bound(max_len, max_entry, value_bound))
    return ((seq, value) for rows, values in batches
            for seq, value in zip(map(tuple, rows.tolist()), values.tolist()))


def _checked_bound(max_len: int, max_entry: int, value_bound: int) -> int:
    """The value bound clamped to the int64-safe range; DomainError on bad bounds."""
    if min(max_len, max_entry, value_bound) < 1:
        raise DomainError("bounds must be positive")
    if (max_entry + 1) ** max_len >= _INT64_GUARD:
        raise DomainError(
            f"bounds (len {max_len}, entry {max_entry}) exceed the exact int64 range")
    return min(value_bound, (max_entry + 1) ** max_len)


def _scan_batches(max_len: int, max_entry: int,
                  bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The hits in scan order, one batch per prefix and length.

    A batch is an int64 array `rows` of k sequences of one length (k x L)
    and their anticontinuants `values`; `bound` must come from
    `_checked_bound`.
    """
    chunk_depth = min(_CHUNK_DEPTH, max_len)
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

    # the vectorized levels' states live in buffers that every prefix reuses
    # (fresh arrays would page-fault anew for each prefix): Rs[0] and Rs[1]
    # hold the prefix's Rp and R, Rs[j + 1] the level below Rs[j], and the
    # state at flat index i of a level has Rp = Rs[j - 1][i % Rs[j - 1].size]
    # (same for Q); its child by entry e sits at (e - 1) * Rs[j].size + i
    levels = max_len - chunk_depth
    sizes = [1] + [max_entry ** k for k in range(levels)]
    Rs = [np.empty(size, dtype=np.int64) for size in sizes]
    Qs = [np.empty(size, dtype=np.int64) for size in sizes]
    t_buf = np.empty(sizes[-1], dtype=np.int64)
    e_buf = np.empty(sizes[-1], dtype=np.int64)
    entries = np.arange(1, max_entry + 1, dtype=np.int64).reshape(-1, 1, 1)
    places = max_entry ** np.arange(levels)
    # on level j (below a 3-entry prefix) R and Qp are continuants of j
    # entries, so at least K(1, ..., 1) = F(j + 1); where that passes the
    # bound only the child e = q1 can hit
    one_sided = [fibonacci(j + 1) > bound for j in range(levels + 1)]

    for prefix, p, pp, qq, qp in states(chunk_depth):
        value = pp - qq
        if 1 <= abs(value) <= bound:
            yield np.array([prefix], dtype=np.int64), np.array([value], dtype=np.int64)
        if len(prefix) < chunk_depth or levels == 0:
            continue
        q1 = prefix[0]
        Rs[0][0], Rs[1][0], Qs[0][0], Qs[1][0] = pp - q1 * qp, p - q1 * qq, qp, qq
        for j in range(1, levels + 1):
            R, Rprev, Q, Qprev = Rs[j], Rs[j - 1], Qs[j], Qs[j - 1]
            # s = R - Qp = D - q1*Q, and a child's value is s + (q1 - e)*Q
            t, e = t_buf[:R.size], e_buf[:R.size]
            if one_sided[j]:
                # |s| <= B: t = s + B from R - (Qp - B), where a negative t
                # reads as a huge uint64
                shift = np.subtract(Qprev, bound, out=e[:Qprev.size])
                np.subtract(R.reshape(-1, Qprev.size), shift, out=t.reshape(-1, Qprev.size))
                cand = np.flatnonzero(t.view(np.uint64) <= 2 * bound)
            else:
                # |s| <= B, or Q - |s| <= B for some e != q1
                np.subtract(R.reshape(-1, Qprev.size), Qprev, out=t.reshape(-1, Qprev.size))
                np.abs(t, out=t)
                np.subtract(Q, t, out=e)
                np.minimum(t, e, out=t)
                cand = np.flatnonzero(t <= bound)
            if cand.size:
                # every child of the few candidates; row e - 1 holds entry e,
                # so row-major order is the order of the flat child indices
                Qc = Q[cand]
                D = R[cand] - Qprev[cand % Qprev.size] + q1 * Qc
                values = D - entries.reshape(-1, 1) * Qc
                rows, cols = np.nonzero((values != 0) & (np.abs(values) <= bound))
                if rows.size:  # a candidate's one child in range may have value 0
                    flat = rows * R.size + cand[cols]
                    hits = np.empty((flat.size, chunk_depth + j), dtype=np.int64)
                    hits[:, :chunk_depth] = prefix
                    hits[:, chunk_depth:] = (flat[:, None] // places[:j]) % max_entry + 1
                    yield hits, values[rows, cols]
            if j < levels:
                for new, cur, prev in ((Rs[j + 1], R, Rprev), (Qs[j + 1], Q, Qprev)):
                    child = new.reshape(max_entry, -1, prev.size)
                    np.multiply(entries, cur.reshape(-1, prev.size), out=child)
                    child += prev


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
