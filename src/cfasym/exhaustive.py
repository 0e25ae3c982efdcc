"""Exhaustive scan of bounded quotient sequences for small anticontinuants.

Every sequence with length <= max_len and entries in [1, max_entry] is
visited through an incremental recurrence on continuants.  For a parent
q = (q1, ..., ql) let Q = K(q2..ql), Qp = K(q2..q(l-1)) and R = K(q3..ql),
Rp = K(q3..q(l-1)).  Appending an entry e maps (R, Rp, Q, Qp) to
(e*R + Rp, R, e*Q + Qp, Q), and the anticontinuant of the extended sequence
is K(q) - K(q2..ql, e) = D - e*Q with D = K(q) - Qp = s + q1*Q, where
s = R - Qp (K(q) = q1*Q + R).  The R track replaces K(q) itself: under a
3-entry prefix it is seeded as R = K(q3) = q3, Rp = K() = 1.

Candidate rule.  R/Q and Qp/Q both lie in (0, 1], so -Q < s < Q, and the
child e has the value s + (q1 - e)*Q.  For e = q1 that is s; for e != q1
its absolute value is at least Q - |s|.  So a parent can have a hit only
if |s| <= B or Q - |s| <= B, and no division is needed to find it.  The
second case needs R - Qp >= Q - B or Qp - R >= Q - B, so R <= B or
Qp <= B.  On level j both are continuants of j entries (the prefix holds
q1..q3), hence at least K(1, ..., 1), a Fibonacci number; on the levels
where that passes B the test is the one-sided |s| <= B, one subtraction
t = R - (Qp - B) = s + B and the unsigned compare t <= 2B.  The other
levels test min(|s|, Q - |s|) <= B, and there the few candidates have
all their children checked exactly, with the value D - e*Q.  On a
one-sided level a candidate's one possible hit is its child e = q1, with
value s = t - B, so only that is kept, when nonzero.  A level's hits
come from its states' arrays, and those are built only when they are
tested, so the sequences of full length are never materialized.  The hits
leave `_scan_batches` as int64 digit arrays, one per prefix and length, so
a caller can work on them in numpy; `scan_small_anticontinuants` flattens
them to tuples in the same order.  The scan uses continuant algebra only,
no type theory, so it stays an independent check of the type catalog.

Solved last level.  The last vectorized level, levels = max_len - 3, holds
the states of length max_len - 1; in the stock scan they are 7/8 of all
states built.  When its test is one-sided, F(levels + 1) > B (which needs
levels >= 2), it is not built: its candidates are solved from the parent
level's arrays.  A parent q = (q1, ..., ql) with state (R, Rp, Q) gives its
child x the value s' = x*R + Rp - Q, and as Q = q2*R + K(q4..ql) that is
(x - q2)*R + A(q3..ql), with A(q3..ql) = K(q3..q(l-1)) - K(q4..ql).  Both
continuants in A have levels - 2 entries and lie in [F(levels - 1), R], so
|A| <= R - F(levels - 1), and R >= F(levels).  So |x - q2| >= 2 gives
|s'| >= 2R - |A| >= F(levels + 1) > B, and only x in {q2 - 1, q2, q2 + 1},
clipped to [1, max_entry], is left.  q2 is the prefix's, so that is at most
three passes of t = x*R + (Rp - Q + B) over the parent arrays, with the
same unsigned compare t <= 2B.  The candidates' flat indices (x - 1)*N + i
come out ascending as x ascends, and as on any one-sided level a
candidate's hit is its child e = q1, with value s' = t - B when nonzero,
so batches and their order do not change.  The levels built are then
1 .. levels - 1 (1 .. levels otherwise): per (q2, q3) the stock scan
builds 37,449 states, not 299,593.

One table per (q2, q3).  Under a 3-entry prefix (q1, q2, q3) no state
involves q1: R = K(q3..) and Q = K(q2..) are continuants of entries after
it.  So the scan builds and tests each (q2, q3)'s levels once, from
R = q3, Rp = 1, Q = q2*q3 + 1, Qp = q2, and keeps every level's
candidates in a table that lives as long as the scan.  On a one-sided
level, and on the solved one, only the child e = q1 can hit, and its value
s = R - Qp = -A(q2..ql) does not involve q1 either: the table keeps those
hits as state indices and values, in the narrowest dtypes that the level's
size and the bound allow, and each prefix yields them at the flat indices
i + (q1 - 1)*size.  A two-sided level keeps its candidates' indices, s and
Q in int64, and each prefix checks their children, with the values
s + q1*Q - e*Q = D - e*Q.  The stock scan builds its levels 64 times, not
once per prefix (512); its tables hold 66,734 one-sided hits and 10,538
two-sided candidates in 554,394 bytes.

The first _CHUNK_DEPTH = 3 levels run in plain Python, one prefix at a time,
and the levels below them run vectorized in int64.  That is exact because
every continuant reached satisfies
K(q) <= prod(q_i + 1) <= (max_entry + 1)^max_len =: M, and the DomainError
guard rejects bounds with M >= 2^62 (for the stock bounds 8 and 10, M is
about 3.5e9).  An anticontinuant is a difference of two such continuants,
so its absolute value is below M, and clamping the bound to B <= M changes
no hit.  Then R <= K(q) < M, |s| < Q < M, Q - |s| lies in (0, M),
Qp - B in (-M, M) and s + B in (-M, 2M), 2B <= 2M < 2^63; on the solved
level x*R <= x*R + Rp < M (the child's R), Rp + B lies in [0, 2M),
Rp - Q + B in (-M, 2M) and x*R + Rp - Q + B = s' + B in (-M, 2M); and in
the exact check of a two-sided level q1*Q <= K(q) < M, 0 <= D < M and
e*Q < M, all inside int64; no per-level check is needed.
"""

from __future__ import annotations

from functools import cache
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
            for seq, value in zip(zip(*rows.T.tolist()), values.tolist()))


def _checked_bound(max_len: int, max_entry: int, value_bound: int) -> int:
    """The value bound clamped to the int64-safe range; DomainError on bad bounds."""
    if not all(isinstance(v, int) for v in (max_len, max_entry, value_bound)):
        raise DomainError(f"bounds must be integers, got {(max_len, max_entry, value_bound)!r}")
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
    # short sequences and their anticontinuants, from the continuants'
    # recurrence in plain Python; the Q track is seeded (0, 1) so the first
    # append lands on K(empty) = 1
    def states(depth: int) -> Iterator[tuple[tuple[int, ...], int]]:
        def rec(prefix, p, pp, qq, qp):
            if prefix:
                yield prefix, pp - qq
            if len(prefix) == depth:
                return
            for e in range(1, max_entry + 1):
                yield from rec(prefix + (e,), e * p + pp, p, e * qq + qp, qq)

        yield from rec((), 1, 0, 0, 1)

    levels = max_len - chunk_depth
    # on level j (below a 3-entry prefix) R and Qp are continuants of j
    # entries, so at least K(1, ..., 1) = F(j + 1); where that passes the
    # bound only the child e = q1 can hit
    one_sided = [fibonacci(j + 1) > bound for j in range(levels + 1)]
    # a one-sided last level is solved from its parent level, never built;
    # F(levels + 1) > B >= 1 implies levels >= 2, so that parent is vectorized
    solved = one_sided[levels]
    built = levels - 1 if solved else levels
    # the built levels' states live in buffers that every (q2, q3) reuses
    # (fresh arrays would page-fault anew for each one): Rs[0] and Rs[1]
    # hold the prefix's Rp and R, Rs[j + 1] the level below Rs[j], and the
    # state at flat index i of a level has Rp = Rs[j - 1][i % Rs[j - 1].size]
    # (same for Q); its child by entry e sits at (e - 1) * Rs[j].size + i
    sizes = [1] + [max_entry ** k for k in range(built)]
    Rs = [np.empty(size, dtype=np.int64) for size in sizes]
    Qs = [np.empty(size, dtype=np.int64) for size in sizes]
    t_buf = np.empty(sizes[-1], dtype=np.int64)
    e_buf = np.empty(sizes[-1], dtype=np.int64)
    entries = np.arange(1, max_entry + 1, dtype=np.int64).reshape(-1, 1, 1)
    places = max_entry ** np.arange(levels)

    def batch(prefix, j, flat, values):
        # the rows of level j's children at the ascending flat indices `flat`
        hits = np.empty((flat.size, chunk_depth + j), dtype=np.int64)
        hits[:, :chunk_depth] = prefix
        hits[:, chunk_depth:] = (flat[:, None] // places[:j]) % max_entry + 1
        return hits, values

    def one_sided_hits(j, size, i, t):
        # child e = q1 of the states at the ascending indices i of level j
        # (size states), each with t = s + B; its value s is a hit if nonzero
        values = t - bound
        keep = values != 0
        # narrow copies: a signed type that holds -size holds every index, and
        # one that holds -bound - 1 holds every value
        return (j, i[keep].astype(np.min_scalar_type(-size)),
                values[keep].astype(np.min_scalar_type(-bound - 1)), None)

    @cache
    def table(q2, q3):
        # the candidates of every level under the prefixes (q1, q2, q3), in
        # level order: a one-sided level keeps (j, indices, values, None) of
        # its children e = q1, a two-sided one (j, indices, s, Q)
        found = []
        Rs[0][0], Rs[1][0], Qs[0][0], Qs[1][0] = 1, q3, q2, q2 * q3 + 1
        for j in range(1, built + 1):
            R, Rprev, Q, Qprev = Rs[j], Rs[j - 1], Qs[j], Qs[j - 1]
            # s = R - Qp, and a child's value is s + (q1 - e)*Q
            t, e = t_buf[:R.size], e_buf[:R.size]
            if one_sided[j]:
                # |s| <= B: t = s + B from R - (Qp - B), where a negative t
                # reads as a huge uint64
                shift = np.subtract(Qprev, bound, out=e[:Qprev.size])
                np.subtract(R.reshape(-1, Qprev.size), shift, out=t.reshape(-1, Qprev.size))
                cand = np.flatnonzero(t.view(np.uint64) <= 2 * bound)
                found.append(one_sided_hits(j, R.size, cand, t[cand]))
            else:
                # |s| <= B, or Q - |s| <= B for some e != q1
                np.subtract(R.reshape(-1, Qprev.size), Qprev, out=t.reshape(-1, Qprev.size))
                np.abs(t, out=t)
                np.subtract(Q, t, out=e)
                np.minimum(t, e, out=t)
                cand = np.flatnonzero(t <= bound)
                found.append((j, cand, R[cand] - Qprev[cand % Qprev.size], Q[cand]))
            if j < built:
                for new, cur, prev in ((Rs[j + 1], R, Rprev), (Qs[j + 1], Q, Qprev)):
                    child = new.reshape(max_entry, -1, prev.size)
                    np.multiply(entries, cur.reshape(-1, prev.size), out=child)
                    child += prev
        if solved:
            # the last level from the states (R, Rp, Q) of its parent level:
            # child x has s = x*R + (Rp - Q), and only |x - q2| <= 1 can give
            # |s| <= B; base = Rp - Q + B, and t = s + B as on a built level
            R, Rprev, Q = Rs[built], Rs[built - 1], Qs[built]
            base, t = t_buf[:R.size], e_buf[:R.size]
            shift = np.add(Rprev, bound, out=t[:Rprev.size])
            np.subtract(shift, Q.reshape(-1, Rprev.size), out=base.reshape(-1, Rprev.size))
            window = range(max(1, q2 - 1), min(max_entry, q2 + 1) + 1)
            flat, ts = [], []
            for x in window:
                np.multiply(R, x, out=t)
                t += base
                i = np.flatnonzero(t.view(np.uint64) <= 2 * bound)
                # x ascends, so the flat indices (x - 1) * R.size + i do too
                flat.append((x - 1) * R.size + i)
                ts.append(t[i])
            found.append(one_sided_hits(levels, max_entry * R.size,
                                        np.concatenate(flat), np.concatenate(ts)))
        return found

    for prefix, value in states(chunk_depth):
        if 1 <= abs(value) <= bound:
            yield np.array([prefix], dtype=np.int64), np.array([value], dtype=np.int64)
        if len(prefix) < chunk_depth or levels == 0:
            continue
        q1 = prefix[0]
        for j, i, s, Q in table(*prefix[1:]):
            if Q is None:
                # in int64: under numpy 1.x value-based casting the narrow
                # i would set the dtype of the sum
                flat = np.add(i, (q1 - 1) * places[j - 1], dtype=np.int64)
                values = s.astype(np.int64)
            else:
                # every child of the candidates, checked exactly, with the
                # value D - e*Q, D = s + q1*Q; row e - 1 holds entry e, so
                # row-major order is the order of the flat child indices
                values = s + q1 * Q - entries.reshape(-1, 1) * Q
                rows, cols = np.nonzero((values != 0) & (np.abs(values) <= bound))
                flat, values = rows * places[j - 1] + i[cols], values[rows, cols]
            if flat.size:
                yield batch(prefix, j, flat, values)


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
