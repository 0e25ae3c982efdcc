"""The hit listing and its plain-Python reference, for the tests only.

`verify_enumeration` reads the two-sided blocks of `cfasym.exhaustive` and
lists no hit.  The tests list them here: `scan_small_anticontinuants`
builds every hit from those blocks in scan order, and
`scan_small_anticontinuants_reference` checks every sequence by brute force,
an oracle independent of the blocks.  Both hold every hit, so use them only
at small bounds.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from cfasym.exhaustive import _checked_bound, _two_sided_blocks, scan_position


def scan_small_anticontinuants(max_len: int, max_entry: int,
                               value_bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (sequence, anticontinuant) for every sequence with 1 <= |value| <= value_bound.

    The hits come in scan order (`scan_position`).  The bounds are checked
    here, at the call; the first `next` runs the whole scan, since the hits
    are sorted before any is yielded.
    """
    bound = _checked_bound(max_len, max_entry, value_bound)

    def in_scan_order():
        entries = range(1, max_entry + 1)
        blocks: dict[int, list] = {}
        for m, d, v in _two_sided_blocks(max_len, max_entry, bound):
            blocks.setdefault(len(m) + 2, []).append((m, d, v))
        hits: list[list] = [[], []]  # by length
        for length in range(2, max_len + 1):
            level = [((a, *h, a), -v) for h, v in hits[length - 2] for a in entries]
            for m, d, v in blocks.get(length, ()):
                for e in range(1, max_entry - d + 1):
                    level += [((e + d, *m, e), v), ((e, *m[::-1], e + d), -v)]
            hits.append(level)
        yield from sorted((hit for level in hits for hit in level),
                          key=lambda hit: scan_position(hit[0]))

    return in_scan_order()


def scan_small_anticontinuants_reference(max_len: int, max_entry: int,
                                         value_bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Plain-Python oracle for the block scan; use only at small bounds."""
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
