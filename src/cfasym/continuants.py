"""Continuants and anticontinuants of integer sequences, over index ranges.

All arithmetic is exact Python integers; values grow exponentially with
sequence length, so nothing here may be done in fixed-width types.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError, is_int

Quotients = Sequence[int]

# largest index fibonacci computes: its additions of ever longer integers cost
# about k^2, and F_k at this k takes about half a second
FIB_MAX = 200_000


def fibonacci(k: int) -> int:
    """F_0 = 0, F_1 = F_2 = 1, F_k = F_{k-1} + F_{k-2}, for 0 <= k <= FIB_MAX."""
    if not is_int(k) or k < 0:
        raise DomainError(f"fibonacci index must be a nonnegative integer, got {k!r}")
    if k > FIB_MAX:
        raise DomainError(f"fibonacci index must be at most {FIB_MAX}, got {k}")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _check_entries(q: Quotients) -> None:
    for e in q:
        # is_int inline: every continuant call runs this per entry
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise DomainError(f"quotient entries must be integers >= 1, got {e!r}")


def _check_indices(*indices) -> None:
    for k in indices:
        # is_int inline, as in _check_entries
        if not isinstance(k, int) or isinstance(k, bool):
            raise DomainError(f"indices must be integers, got {k!r}")


def _ends(q: Quotients) -> tuple[int, int, int, int]:
    """K(q), K(q[1:]), K(q[:-1]) and K(q[1:-1]) in one pass, unchecked.

    Starts from (1, 0, 0, 1), the empty sequence's, and appends each entry e:
    (*q, e) has e*K(q) + K(q[:-1]) and e*K(q[1:]) + K(q[1:-1]), then K(q) and
    K(q[1:]).  A single entry e gives (e, 1, 1, 0).
    """
    k, kt, kh, km = 1, 0, 0, 1
    for e in q:
        k, kt, kh, km = e * k + kh, e * kt + km, k, kt
    return k, kt, kh, km


def _continuant(q: Quotients, i: int, j: int) -> int:
    """Unchecked kernel of `continuant_range`; callers validate q and the range."""
    return 0 if j == i - 2 else _ends(q[i:j + 1])[0]


def continuant_range(q: Quotients, i: int, j: int) -> int:
    """Continuant of q[i..j] inclusive.

    Sentinels: the empty range j = i - 1 gives 1 and the sub-empty range
    j = i - 2 gives 0.  Requires 0 <= i <= j + 2 <= len(q) + 1.
    """
    _check_entries(q)
    _check_indices(i, j)
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
    _check_indices(i, j)
    s = len(q)
    if not (0 <= i and i <= j + 1 and j <= s - 1):
        raise DomainError(f"anticontinuant range ({i}, {j}) invalid for length {s}")
    _check_entries(q)
    _, kt, kh, _ = _ends(q[i:j + 1])
    return kh - kt


def anticontinuant(q: Quotients) -> int:
    """Anticontinuant of the whole sequence; 0 for empty or single-entry."""
    return anticontinuant_range(q, 0, len(q) - 1)


def euler_residual(q: Quotients, k: int, l: int, m: int, n: int) -> int:
    """Residual of the continuant product identity; identically zero.

    Computes q_{k,n} q_{l,m} - q_{k,m} q_{l,n} - (-1)^{l+m+1} q_{k,l-2} q_{m+2,n}
    for 0 <= k <= l <= m + 2 and m <= n <= len(q) - 1.  Returned rather than
    asserted so the test suite owns the zero check.
    """
    _check_indices(k, l, m, n)
    s = len(q)
    if not (0 <= k <= l <= m + 2 and m <= n <= s - 1):
        raise DomainError(f"euler indices ({k}, {l}, {m}, {n}) invalid for length {s}")
    _check_entries(q)
    # every sub-range below is valid whenever the indices above are
    lhs = (_continuant(q, k, n) * _continuant(q, l, m)
           - _continuant(q, k, m) * _continuant(q, l, n))
    sign = -1 if (l + m) % 2 == 0 else 1
    return lhs - sign * _continuant(q, k, l - 2) * _continuant(q, m + 2, n)
