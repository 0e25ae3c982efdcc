"""Exhaustive scan of bounded quotient sequences for small anticontinuants.

Every sequence with length <= max_len and entries in [1, max_entry] is
visited through an incremental recurrence on four continuants: with
P = K(q), Pp = K(q minus last), Q = K(q minus first), Qp = K(q minus both),
appending an entry e maps (P, Pp, Q, Qp) to (e*P + Pp, P, e*Q + Qp, Q), and
the anticontinuant of the extended sequence is P - (e*Q + Qp) = D - e*Q with
D = P - Qp.  Q is the continuant of a (possibly empty) run of positive
entries, so Q >= 1 (the Q track is seeded so that the empty run gives 1),
and the value falls strictly as e grows.  For the bound B the hits below a
parent are therefore the e != D/Q in
[max(1, ceil((D - B)/Q)), min(max_entry, floor((D + B)/Q))], and one floor
division per parent finds the parents that may have any: the largest
admissible e, clip(floor((D + B)/Q), 1, max_entry), has |value| <= B or no
e has (a candidate whose only such child has value 0 has no hit).  Only
those few parents have all their children checked.  A level's hits come
from its parents' arrays, and its own arrays are built only when a deeper
level needs them, so the last level, 7/8 of all states, is never
materialized.  The hits leave `_scan_batches` as int64 digit arrays, one per
prefix and length, so a caller can work on them in numpy;
`scan_small_anticontinuants` flattens them to tuples in the same order.

The first _CHUNK_DEPTH = 3 levels run in plain Python, one prefix at a time,
and the levels below them run vectorized in int64.  That is exact because
every continuant reached satisfies
K(q) <= prod(q_i + 1) <= (max_entry + 1)^max_len =: M, and the DomainError
guard rejects bounds with M >= 2^62 (for the stock bounds 8 and 10, M is
about 3.5e9).  An anticontinuant is a difference of two such continuants,
so its absolute value is below M, and clamping the bound to B <= M changes
no hit.  Then 0 <= D <= P < M, e*Q <= e*Q + Qp < M, D +- B and
D + B - e*Q lie in [-M, 2M), and 2B <= 2M < 2^63, all inside int64; no
per-level check is needed.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from .errors import DomainError

_INT64_GUARD = 2 ** 62
_CHUNK_DEPTH = 3


def scan_small_anticontinuants(max_len: int, max_entry: int,
                               value_bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (sequence, anticontinuant) for every sequence with 1 <= |value| <= value_bound.

    The bounds are checked here, at the call; the scan itself is lazy.
    """
    return _scan(max_len, max_entry, _checked_bound(max_len, max_entry, value_bound))


def _checked_bound(max_len: int, max_entry: int, value_bound: int) -> int:
    """The value bound clamped to the int64-safe range; DomainError on bad bounds."""
    if min(max_len, max_entry, value_bound) < 1:
        raise DomainError("bounds must be positive")
    if (max_entry + 1) ** max_len >= _INT64_GUARD:
        raise DomainError(
            f"bounds (len {max_len}, entry {max_entry}) exceed the exact int64 range")
    return min(value_bound, (max_entry + 1) ** max_len)


def _scan(max_len: int, max_entry: int, bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    for rows, values in _scan_batches(max_len, max_entry, bound):
        yield from zip(map(tuple, rows.tolist()), values.tolist())


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
    # (fresh arrays would page-fault anew for each prefix): Ps[0] and Ps[1]
    # hold the prefix's Pp and P, Ps[j + 1] the level below Ps[j], and the
    # state at flat index i of a level has Pp = Ps[j - 1][i % Ps[j - 1].size]
    # (same for Q); its child by entry e sits at (e - 1) * Ps[j].size + i
    levels = max_len - chunk_depth
    sizes = [1] + [max_entry ** k for k in range(levels)]
    Ps = [np.empty(size, dtype=np.int64) for size in sizes]
    Qs = [np.empty(size, dtype=np.int64) for size in sizes]
    t_buf = np.empty(sizes[-1], dtype=np.int64)
    e_buf = np.empty(sizes[-1], dtype=np.int64)
    entries = np.arange(1, max_entry + 1, dtype=np.int64).reshape(-1, 1, 1)
    places = max_entry ** np.arange(levels)

    for prefix, p, pp, qq, qp in states(chunk_depth):
        value = pp - qq
        if 1 <= abs(value) <= bound:
            yield np.array([prefix], dtype=np.int64), np.array([value], dtype=np.int64)
        if len(prefix) < chunk_depth or levels == 0:
            continue
        Ps[0][0], Ps[1][0], Qs[0][0], Qs[1][0] = pp, p, qp, qq
        for j in range(1, levels + 1):
            P, Pprev, Q, Qprev = Ps[j], Ps[j - 1], Qs[j], Qs[j - 1]
            # t = D + B - e*Q for the largest admissible e: a parent has a hit
            # exactly when 0 <= t <= 2B (a negative t reads as a huge uint64)
            t, e = t_buf[:P.size], e_buf[:P.size]
            np.subtract(P.reshape(-1, Qprev.size), Qprev, out=t.reshape(-1, Qprev.size))
            t += bound
            np.floor_divide(t, Q, out=e)
            np.clip(e, 1, max_entry, out=e)
            e *= Q
            t -= e
            cand = np.flatnonzero(t.view(np.uint64) <= 2 * bound)
            if cand.size:
                # every child of the few candidates; row e - 1 holds entry e,
                # so row-major order is the order of the flat child indices
                D = P[cand] - Qprev[cand % Qprev.size]
                values = D - entries.reshape(-1, 1) * Q[cand]
                rows, cols = np.nonzero((values != 0) & (np.abs(values) <= bound))
                if rows.size:  # a candidate's one child in range may have value 0
                    flat = rows * P.size + cand[cols]
                    hits = np.empty((flat.size, chunk_depth + j), dtype=np.int64)
                    hits[:, :chunk_depth] = prefix
                    hits[:, chunk_depth:] = (flat[:, None] // places[:j]) % max_entry + 1
                    yield hits, values[rows, cols]
            if j < levels:
                for new, cur, prev in ((Ps[j + 1], P, Pprev), (Qs[j + 1], Q, Qprev)):
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
