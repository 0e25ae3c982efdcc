"""Continued-fraction expansion and reconstruction for coprime integer pairs.

Every rational alpha/beta > 1 has exactly two simple continued fraction
expansions: the Euclidean one, whose final quotient is >= 2 (except for the
single sequence [1]), and its variant with the final quotient q split into
(q - 1, 1).  The selected representation here is the one whose final entry
is 1 exactly when its first entry is 1; `expand` returns it.  The one pair
for which both representations qualify is (2, 1), where the Euclidean form
[2] is returned.
"""

from __future__ import annotations

from math import gcd
from typing import Literal, NamedTuple

from .continuants import _check_entries, _continuant
from .errors import DomainError, is_int

Parity = Literal["even", "odd"]


class ParityPrediction(NamedTuple):
    """Length parity of an expansion, predicted from a modular inverse."""

    u: int
    v: int
    v_inverse: int
    same_side: bool
    predicted_parity: Parity


def expand(alpha: int, beta: int) -> tuple[int, ...]:
    """Quotient sequence of alpha/beta under the end-coefficient selection rule.

    Runs the Euclidean algorithm, then, when exactly one of the two end
    entries equals 1, replaces the final quotient q >= 2 by (q - 1, 1) so
    that the first and last entries are both 1 or both >= 2.
    """
    if not is_int(alpha) or not is_int(beta):
        raise DomainError(f"pair must be integers, got ({alpha!r}, {beta!r})")
    if alpha < 1 or beta < 1 or beta > alpha:
        raise DomainError(f"pair ({alpha}, {beta}) outside 1 <= beta <= alpha")
    if gcd(alpha, beta) != 1:
        raise DomainError(f"pair ({alpha}, {beta}) is not coprime")
    a, b = alpha, beta
    qs = []
    while b:
        q, r = divmod(a, b)
        qs.append(q)
        a, b = b, r
    if len(qs) >= 2 and (qs[0] == 1) != (qs[-1] == 1):
        qs[-1] -= 1
        qs.append(1)
    return tuple(qs)


def expand_with_parity(alpha: int, beta: int, parity: Parity) -> tuple[int, ...]:
    """The representation of alpha/beta whose length has the requested parity."""
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    want = 0 if parity == "even" else 1
    for q in representations(alpha, beta):
        if len(q) % 2 == want:
            return q
    raise DomainError("1/1 has only the odd-length representation [1]")


def alternate_expansion(q: tuple[int, ...]) -> tuple[int, ...]:
    """The other representation of the same rational (split or merge the tail)."""
    _check_entries(q)
    if not q:
        raise DomainError("empty sequence has no alternate representation")
    if q == (1,):
        raise DomainError("1/1 has a single representation")
    if q[-1] >= 2:
        return q[:-1] + (q[-1] - 1, 1)
    return q[:-2] + (q[-2] + 1,)


def representations(alpha: int, beta: int) -> tuple[tuple[int, ...], ...]:
    """Both representations of alpha/beta, selected one first; one for (1, 1)."""
    conv = expand(alpha, beta)
    if conv == (1,):
        return (conv,)
    return (conv, alternate_expansion(conv))


def evaluate(q) -> tuple[int, int]:
    """Numerator and denominator of the continued fraction with quotients q.

    alpha is the continuant of the whole sequence and beta the continuant of
    the sequence with its first entry dropped; the result is always coprime.
    """
    q = tuple(q)
    if not q:
        raise DomainError("cannot evaluate an empty quotient sequence")
    _check_entries(q)
    alpha = _continuant(q, 0, len(q) - 1)
    beta = _continuant(q, 1, len(q) - 1)
    return alpha, beta


def parity_by_inverse(u: int, v: int) -> ParityPrediction:
    """Predict the expansion-length parity of u/v from the inverse of v mod u.

    The length is odd exactly when v and its smallest positive inverse lie on
    the same side of u/2 (both <= u/2 or both > u/2).
    """
    if not is_int(u) or not is_int(v):
        raise DomainError(f"arguments must be integers, got ({u!r}, {v!r})")
    if u < 2 or not 0 < v < u:
        raise DomainError(f"need u >= 2 and 0 < v < u, got ({u}, {v})")
    if gcd(u, v) != 1:
        raise DomainError(f"({u}, {v}) is not coprime")
    v_inverse = pow(v, -1, u)
    same_side = (2 * v <= u) == (2 * v_inverse <= u)
    return ParityPrediction(
        u=u,
        v=v,
        v_inverse=v_inverse,
        same_side=same_side,
        predicted_parity="odd" if same_side else "even",
    )
