"""Continuants and anticontinuants of integer sequences, over index ranges.

All arithmetic is exact Python integers; values grow exponentially with
sequence length, so nothing here may be done in fixed-width types.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError, is_int

Quotients = Sequence[int]


def fibonacci(k: int) -> int:
    """F_0 = 0, F_1 = F_2 = 1, F_k = F_{k-1} + F_{k-2}."""
    if not is_int(k) or k < 0:
        raise DomainError(f"fibonacci index must be a nonnegative integer, got {k!r}")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _check_entries(q: Quotients) -> None:
    for e in q:
        # is_int inline: every continuant call runs this per entry
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise DomainError(f"quotient entries must be integers >= 1, got {e!r}")


def _continuant(q: Quotients, i: int, j: int) -> int:
    """Unchecked kernel of `continuant_range`; callers validate q and the range."""
    if j == i - 2:
        return 0
    prev2, prev = 0, 1
    for k in range(i, j + 1):
        prev2, prev = prev, q[k] * prev + prev2
    return prev


def continuant_range(q: Quotients, i: int, j: int) -> int:
    """Continuant of q[i..j] inclusive.

    Sentinels: the empty range j = i - 1 gives 1 and the sub-empty range
    j = i - 2 gives 0.  Requires 0 <= i <= j + 2 <= len(q) + 1.
    """
    _check_entries(q)
    s = len(q)
    if not (0 <= i and i <= j + 2 and j <= s - 1):
        raise DomainError(f"continuant range ({i}, {j}) invalid for length {s}")
    return _continuant(q, i, j)


def continuant(q: Quotients) -> int:
    """Continuant of the whole sequence; 1 for the empty sequence."""
    return continuant_range(q, 0, len(q) - 1)


def anticontinuant_range(q: Quotients, i: int, j: int) -> int:
    """Anticontinuant of q[i..j]: continuant(i, j-1) - continuant(i+1, j).

    Requires 0 <= i <= j + 1 <= len(q).  Zero on ranges of length <= 1 and
    exactly on symmetric ranges.
    """
    s = len(q)
    if not (0 <= i and i <= j + 1 and j <= s - 1):
        raise DomainError(f"anticontinuant range ({i}, {j}) invalid for length {s}")
    _check_entries(q)
    return _continuant(q, i, j - 1) - _continuant(q, i + 1, j)


def anticontinuant(q: Quotients) -> int:
    """Anticontinuant of the whole sequence; 0 for empty or single-entry."""
    return anticontinuant_range(q, 0, len(q) - 1)


def euler_residual(q: Quotients, k: int, l: int, m: int, n: int) -> int:
    """Residual of the continuant product identity; identically zero.

    Computes q_{k,n} q_{l,m} - q_{k,m} q_{l,n} - (-1)^{l+m+1} q_{k,l-2} q_{m+2,n}
    for 0 <= k <= l <= m + 2 and m <= n <= len(q) - 1.  Returned rather than
    asserted so the test suite owns the zero check.
    """
    s = len(q)
    if not (0 <= k <= l <= m + 2 and m <= n <= s - 1):
        raise DomainError(f"euler indices ({k}, {l}, {m}, {n}) invalid for length {s}")
    _check_entries(q)
    # every sub-range below is valid whenever the indices above are
    lhs = (_continuant(q, k, n) * _continuant(q, l, m)
           - _continuant(q, k, m) * _continuant(q, l, n))
    sign = -1 if (l + m) % 2 == 0 else 1
    return lhs - sign * _continuant(q, k, l - 2) * _continuant(q, m + 2, n)
