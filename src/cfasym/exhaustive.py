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
leave `_scan_batches` as prefixes, flat indices and values, one batch per
(q2, q3) and level (below), and `_rows` decodes a batch into int64 digit
rows: `scan_small_anticontinuants` sorts all the hits into scan order,
while `verify_enumeration` keys each batch at once.  The scan uses
continuant algebra only, no type theory, so it stays an independent check
of the type catalog.

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
so the level is listed like a built one.  The levels built are then
1 .. levels - 1 (1 .. levels otherwise): per (q2, q3) the stock scan
builds 37,449 states, not 299,593.

One table per (q2, q3).  Under a 3-entry prefix (q1, q2, q3) no state
involves q1: R = K(q3..) and Q = K(q2..) are continuants of entries after
it.  So the scan builds and tests each (q2, q3)'s levels once, from
R = q3, Rp = 1, Q = q2*q3 + 1, Qp = q2, yields each level's hits for every
q1 at once, one batch, and the next (q2, q3) overwrites its arrays.  On a
one-sided level, and on the solved one, only the child e = q1 can hit, and
its value s = R - Qp = -A(q2..ql) does not involve q1 either: the hit
(a, m, a) repeats for every a, so the batch lists it once, as (1, m, 1) at
the state's index i, with `ends` set.  A two-sided level checks every
child of its candidates under every q1 in one broadcast over (q1, e), with
the values s + (q1 - e)*Q = D - e*Q.  Its children e = q1 have the value s
too, so those with q1 >= 2 are left out and e = q1 = 1 is marked in
`ends`.  The stock scan builds its levels 64 times, not once per prefix
(512), and yields 444 batches, not the 3,800 of one per prefix and level;
532,770 of its 609,982 hits are (a, m, a) with a >= 2, and none of them is
listed.

Scan order.  A hit's scan position is (prefix, level, flat): the prefixes
in the depth-first order of the plain-Python levels, which is the order
of Python tuples (a prefix before its extensions), then the level, then
the flat index, whose most significant digit is the hit's last entry.  A
batch lists its hits in that order: a two-sided level's come out of
nonzero over (q1, e, candidate).  But a table's batches span every q1, so
batches interleave, and a consumer merges or sorts by position.

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
the exact check of a two-sided level |q1 - e|*Q <= max(q1*Q, e*Q) < M, as
q1*Q <= K(q) and e*Q <= K(q2..ql, e), and s + (q1 - e)*Q = D - e*Q lies in
(-M, M), all inside int64; no per-level check is needed.  A scan position
is never packed into one number, as M does not bound
rank * (levels + 1) * max_entry^levels.  Its parts, entries <= max_entry,
the level and a flat index below max_entry^levels < M, are compared one
by one, as Python tuples or by np.lexsort.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from .continuants import fibonacci
from .errors import DomainError, is_int

_INT64_GUARD = 2 ** 62
_CHUNK_DEPTH = 3


def scan_small_anticontinuants(max_len: int, max_entry: int,
                               value_bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (sequence, anticontinuant) for every sequence with 1 <= |value| <= value_bound.

    The hits come in scan order.  The bounds are checked here, at the call;
    the first `next` runs the whole scan, since the batches interleave and
    their hits are sorted by scan position before any is yielded.
    """
    bound = _checked_bound(max_len, max_entry, value_bound)

    def in_scan_order():
        seqs, values, positions = [], [], []
        for prefixes, level, flat, batch_values, ends in _scan_batches(max_len, max_entry, bound):
            if ends.any():
                # each (1, m, 1) stands for (a, m, a) at every a, all with its value
                a = np.repeat(np.arange(2, max_entry + 1), np.count_nonzero(ends))
                copies = np.tile(prefixes[ends], (max_entry - 1, 1))
                copies[:, 0] = a
                prefixes = np.concatenate((prefixes, copies))
                flat = np.concatenate((flat, np.tile(flat[ends], max_entry - 1)
                                       + (a - 1) * max_entry ** (level - 1)))
                batch_values = np.concatenate((batch_values,
                                               np.tile(batch_values[ends], max_entry - 1)))
            rows = _rows(prefixes, level, flat, max_entry)
            seqs += zip(*rows.T.tolist())
            values += batch_values.tolist()
            # (prefix padded with zeros, level, flat): entries are >= 1, so a
            # prefix sorts before its extensions, as Python tuples do
            position = np.zeros((flat.size, _CHUNK_DEPTH + 2), dtype=np.int64)
            position[:, :prefixes.shape[1]] = prefixes
            position[:, -2] = level
            position[:, -1] = flat
            positions.append(position)
        if positions:
            for k in np.lexsort(np.concatenate(positions).T[::-1]).tolist():
                yield seqs[k], values[k]

    return in_scan_order()


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


def _rows(prefixes: np.ndarray, level: int, flat: np.ndarray, max_entry: int) -> np.ndarray:
    """The digit rows (k x (P + level), int64) of a scanner batch with k x P `prefixes`.

    Entry P + d of the hit at flat index f is f // max_entry^d % max_entry + 1,
    so the last entry is the most significant digit; at level 0 the prefix
    is the hit, whatever `flat`.
    """
    width = prefixes.shape[1]
    rows = np.empty((flat.size, width + level), dtype=np.int64)
    rows[:, :width] = prefixes
    rows[:, width:] = flat[:, None] // max_entry ** np.arange(level) % max_entry + 1
    return rows


def _scan_batches(max_len: int, max_entry: int, bound: int
                  ) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]]:
    """The hits: the prefixes' own, one batch per length, then one batch per (q2, q3) and level.

    A batch (prefixes, level, flat, values, ends) holds k >= 1 hits: the
    sequences that extend the rows of the int64 array `prefixes` (k x P) by
    `level` entries, encoded by int64 flat indices `flat` (`_rows` decodes
    them), with their int64 anticontinuants `values`.  Level 0 is a
    prefix's own hit, with flat index 0; below it P = 3.  A batch lists its
    hits in scan order, by (prefix, level, flat), but batches interleave.
    A hit where the bool array `ends` is set is (1, m, 1) and stands for the
    hit (a, m, a) at every a in [1, max_entry], all with its value; those
    with a >= 2 are not listed.  `bound` must come from `_checked_bound`.
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

    own: dict[int, list] = {}
    for prefix, value in states(chunk_depth):
        if 1 <= abs(value) <= bound:
            own.setdefault(len(prefix), []).append((prefix, value))
    for found in own.values():
        prefixes, values = zip(*found)
        yield (np.array(prefixes, dtype=np.int64), 0, np.zeros(len(found), dtype=np.int64),
               np.array(values, dtype=np.int64), np.zeros(len(found), dtype=bool))

    levels = max_len - chunk_depth
    if levels == 0:
        return
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
    # q1 - e at [q1 - 1, e - 1]; the children e = q1 >= 2 repeat e = q1 = 1
    shifts = entries - entries.reshape(1, -1, 1)
    unlisted = (shifts == 0) & (entries >= 2)

    def one_sided_hits(i, t):
        # child e = q1 of the states at the ascending indices i, each with
        # t = s + B; its value s, a hit if nonzero, does not involve q1, so
        # the hit is listed once, as (1, m, 1) at flat index i
        values = t - bound
        keep = values != 0
        return 1, i[keep], values[keep], True

    def batch(level, q1, flat, values, ends):
        # the hits under the prefixes (q1, q2, q3) of the loop below, if any
        if flat.size:
            prefixes = np.empty((flat.size, 3), dtype=np.int64)
            prefixes[:, 0], prefixes[:, 1], prefixes[:, 2] = q1, q2, q3
            yield prefixes, level, flat, values, np.full(flat.size, ends)

    for q2, q3 in product(range(1, max_entry + 1), repeat=2):
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
                yield from batch(j, *one_sided_hits(cand, t[cand]))
            else:
                # |s| <= B, or Q - |s| <= B for some e != q1
                np.subtract(R.reshape(-1, Qprev.size), Qprev, out=t.reshape(-1, Qprev.size))
                np.abs(t, out=t)
                np.subtract(Q, t, out=e)
                np.minimum(t, e, out=t)
                cand = np.flatnonzero(t <= bound)
                # every child of the candidates under every q1, checked
                # exactly, with the value s + (q1 - e)*Q; nonzero runs over
                # (q1, e, candidate), which is scan order
                values = (R[cand] - Qprev[cand % Qprev.size]) + shifts * Q[cand]
                q1, child, k = np.nonzero((values != 0) & (np.abs(values) <= bound) & ~unlisted)
                yield from batch(j, q1 + 1, child * R.size + cand[k], values[q1, child, k],
                                 q1 == child)
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
            yield from batch(levels, *one_sided_hits(np.concatenate(flat), np.concatenate(ts)))


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
