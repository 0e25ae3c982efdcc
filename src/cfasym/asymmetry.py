"""Asymmetry structure of quotient sequences.

An asymmetric sequence splits uniquely as

    outer, pivot + (-1)^depth * c, core, pivot, reversed(outer)

where `outer` is the longest symmetric outer layer (length `depth`), `c` is
a nonzero integer (the marginal asymmetry) and `core` is the inner sequence
(the core asymmetry).  The anticontinuant of the whole sequence depends only
on c, the core, and the parity of depth:

    value = c * K(core) - (-1)^sigma * A(core)

with K the continuant, A the anticontinuant and sigma the depth parity.
`enumerate_types` inverts this: it lists every (c, core, sigma) achieving a
given value.  For value +-2 two one-parameter families arise and are kept
parametric rather than materialized.  The search for one value meets every
core of smaller value on its way, so it keeps them all: one search serves
every value up to a bound, and `enumerate_types` reads one value off it.
"""

from __future__ import annotations

from typing import Literal, NamedTuple, Optional

from .continuants import _check_entries, _ends
from .errors import DomainError, is_int

Sigma = Literal["even", "odd"]
LambdaParity = Literal["even", "odd", "both"]

TARGET_MAX = 128  # largest |n| enumerate_types lists (about half a second)

_SIGMA_ORDER = {"even": 0, "odd": 1}


class AsymmetryDecomposition(NamedTuple):
    """Unique split of a sequence into outer layer, marginal entry, core, pivot.

    For symmetric sequences c = 0, pivot is None, the core is empty (even
    length) or the single middle entry (odd length), and depth is the number
    of stripped outer pairs.
    """

    depth: int
    c: int
    core: tuple[int, ...]
    pivot: Optional[int]
    outer: tuple[int, ...]

    @property
    def sigma(self) -> Sigma:
        return "even" if self.depth % 2 == 0 else "odd"


class ExtendedAsymmetryType(NamedTuple):
    """Marginal asymmetry, core, and outer-depth parity; determines the value."""

    c: int
    core: tuple[int, ...]
    sigma: Sigma

    def sort_key(self):
        return (len(self.core), self.c, self.core, _SIGMA_ORDER[self.sigma])


class ParametricFamily(NamedTuple):
    """A core pattern with one free positive slot, written None, e.g. (1; p,1)."""

    c: int
    pattern: tuple[Optional[int], ...]
    sigma: Sigma

    def matches(self, core: tuple[int, ...]) -> bool:
        if len(core) != len(self.pattern):
            return False
        return all(p is None or p == e for p, e in zip(self.pattern, core))

    def display_core(self) -> str:
        return ",".join("p" if e is None else str(e) for e in self.pattern)

    def sort_key(self):
        lex = tuple(0 if e is None else e for e in self.pattern)
        return (len(self.pattern), self.c, lex, _SIGMA_ORDER[self.sigma])


class TypeCatalog(NamedTuple):
    """Every extended type (and parametric family) achieving a target value."""

    finite_types: frozenset[ExtendedAsymmetryType]
    families: frozenset[ParametricFamily] = frozenset()

    def members(self) -> tuple[ExtendedAsymmetryType, ...]:
        return tuple(sorted(self.finite_types, key=ExtendedAsymmetryType.sort_key))

    def family_members(self) -> tuple[ParametricFamily, ...]:
        return tuple(sorted(self.families, key=ParametricFamily.sort_key))

    def contains(self, c: int, core: tuple[int, ...], sigma: Sigma) -> bool:
        if ExtendedAsymmetryType(c, tuple(core), sigma) in self.finite_types:
            return True
        return any(f.c == c and f.sigma == sigma and f.matches(tuple(core))
                   for f in self.families)

    def coarse_pairs(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The sigma-even slice, dropping sigma: the printable (c, core) pairs."""
        pairs = {(t.c, t.core) for t in self.finite_types if t.sigma == "even"}
        return tuple(sorted(pairs, key=lambda p: (len(p[1]), p[0], p[1])))

    def coarse_families(self) -> tuple[ParametricFamily, ...]:
        return tuple(sorted((f for f in self.families if f.sigma == "even"),
                            key=ParametricFamily.sort_key))


def decompose(q) -> AsymmetryDecomposition:
    """Split a nonempty sequence at its first end mismatch; total on valid input."""
    q = tuple(q)
    if not q:
        raise DomainError("cannot decompose an empty sequence")
    _check_entries(q)
    length = len(q)
    d = 0
    while d < length - 1 - d and q[d] == q[length - 1 - d]:
        d += 1
    if d >= length - 1 - d:
        # symmetric: even length leaves nothing, odd length leaves the middle
        depth = length // 2
        core = () if length % 2 == 0 else (q[depth],)
        return AsymmetryDecomposition(depth=depth, c=0, core=core, pivot=None,
                                      outer=q[:depth])
    pivot = q[length - 1 - d]
    c = (q[d] - pivot) * (-1 if d % 2 else 1)
    return AsymmetryDecomposition(depth=d, c=c, core=q[d + 1:length - 1 - d],
                                  pivot=pivot, outer=q[:d])


def compose(dec: AsymmetryDecomposition) -> tuple[int, ...]:
    """Rebuild the sequence from a decomposition; inverse of `decompose`."""
    if not (is_int(dec.depth) and is_int(dec.c) and (dec.pivot is None or is_int(dec.pivot))):
        raise DomainError(f"depth, c and pivot must be integers, got {dec.depth!r}, "
                          f"{dec.c!r} and {dec.pivot!r}")
    outer = tuple(dec.outer)
    core = tuple(dec.core)
    _check_entries(outer)
    _check_entries(core)
    if dec.depth != len(outer):
        raise DomainError(f"depth {dec.depth} does not match outer length {len(outer)}")
    if dec.c == 0:
        if dec.pivot is not None:
            raise DomainError("symmetric decomposition must not carry a pivot")
        if len(core) > 1:
            raise DomainError("symmetric core must be empty or a single entry")
        seq = outer + core + outer[::-1]
        if not seq:
            raise DomainError("composition produced an empty sequence")
        return seq
    if dec.pivot is None or dec.pivot < 1:
        raise DomainError(f"pivot must be a positive integer, got {dec.pivot!r}")
    first = dec.pivot + (dec.c if dec.depth % 2 == 0 else -dec.c)
    if first < 1:
        raise DomainError(f"marginal entry {first} is below 1")
    return outer + (first,) + core + (dec.pivot,) + outer[::-1]


def extended_type(dec: AsymmetryDecomposition) -> ExtendedAsymmetryType:
    """The (c, core, sigma) of an asymmetric decomposition."""
    if dec.c == 0:
        raise DomainError("symmetric sequences have no extended type (value 0)")
    return ExtendedAsymmetryType(dec.c, tuple(dec.core), dec.sigma)


def type_value(t: ExtendedAsymmetryType) -> int:
    """Anticontinuant of every sequence carrying this extended type."""
    if not is_int(t.c):
        raise DomainError(f"marginal must be an integer, got {t.c!r}")
    if t.sigma not in _SIGMA_ORDER:
        raise DomainError(f"sigma must be even or odd, got {t.sigma!r}")
    if t.c == 0:
        raise DomainError("value of a symmetric type is 0; marginal must be nonzero")
    core = tuple(t.core)
    _check_entries(core)
    # reversing the core negates A(core), swapping the sigma-odd and sigma-even values
    return _sigma_even_value(t.c, core if t.sigma == "even" else core[::-1])


def _sigma_even_value(c: int, core: tuple[int, ...]) -> int:
    """c * K(core) - A(core), unchecked: the value `type_value` gives at sigma even."""
    k, kt, kh, _ = _ends(core)
    return c * k - (kh - kt)


def _sigma_even_pairs(bound: int) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
    """The sigma-even (c, core) of every type of each value 1..bound, from one search.

    Search bounds: |c| * F_{lambda+1} <= value caps the core length and the
    marginal, and outside the value-2 parametric families every core entry
    divides into a positively weighted term of the value, so entries are
    capped by the value.  So the cores of sigma-even value at most `bound`
    hold the types of every value up to it.  The value grows with c by
    exactly K(core), so one walk per core length lambda, at c = 1, finds
    every core: a full core of value v at c = 1 holds the types (c, core)
    of value v + (c - 1) * K(core) for every c that keeps it under the
    bound.  The sigma-even value is monotone nondecreasing in every entry,
    so a prefix whose all-ones completion already exceeds the bound at
    c = 1 is dead at every c; the all-ones core of length lambda has the
    value F_{lambda+1}, so the same test ends the lengths.  The empty core
    (lambda = 0) has the value c.  The family cores (1; p,1) are left to
    `_catalog`; their c >= 2 types are listed.
    """
    pairs: dict[int, list[tuple[int, tuple[int, ...]]]] = {v: [] for v in range(1, bound + 1)}

    def walk(lam: int, prefix: tuple[int, ...]) -> bool:
        """Record the cores of length lam under prefix; False if the prefix is dead."""
        k, kt, kh, _ = _ends(prefix + (1,) * (lam - len(prefix)))
        value = k - (kh - kt)  # at c = 1, the least over c
        if value > bound:
            return False
        if len(prefix) < lam:
            for entry in range(1, bound + 1):
                if not walk(lam, prefix + (entry,)):
                    break
        else:  # (1; p,1) stays a family of value 2, so its marginals start at 2
            for c in range(1 + (prefix[1:] == (1,)), (bound - value) // k + 2):
                pairs[value + (c - 1) * k].append((c, prefix))
        return True

    lam = 0
    while walk(lam, ()):
        lam += 1
    return pairs


def _catalog(n: int, pairs: list[tuple[int, tuple[int, ...]]],
             lambda_parity: LambdaParity = "both") -> TypeCatalog:
    """The catalog of n from the sigma-even pairs of |n|, at one core-length parity or both.

    Each (c, core) of |n| is the type (c, core, even) and, since reversing
    the core swaps the sigma-odd and sigma-even values, (c, reversed core,
    odd); negating the value negates c and reverses every core.  The family
    (1; p,1) joins at |n| = 2 the same way.
    """
    sign = 1 if n > 0 else -1
    sides = ((sign, "even"), (-sign, "odd"))  # (step that orients the core, sigma)
    keep = (0, 1) if lambda_parity == "both" else (0 if lambda_parity == "even" else 1,)
    finite = frozenset(ExtendedAsymmetryType(sign * c, core[::step], sigma)
                       for c, core in pairs if len(core) % 2 in keep for step, sigma in sides)
    families = frozenset(ParametricFamily(sign, (None, 1)[::step], sigma) for step, sigma in sides
                         if abs(n) == 2 and 0 in keep)
    return TypeCatalog(finite, families)


def enumerate_types(n: int, lambda_parity: LambdaParity = "both") -> TypeCatalog:
    """All extended types with anticontinuant value n, optionally filtered by core-length parity.

    The catalog of |n| is read off one search over every value up to |n|
    (see `_sigma_even_pairs` for its bounds) and negated when n < 0.  Value 0
    signals the symmetric class, which is infinite, and is rejected, and so
    is |n| > TARGET_MAX, where the search time, about quadratic in |n|,
    passes half a second.
    """
    if not is_int(n):
        raise DomainError(f"target must be an integer, got {n!r}")
    if n == 0:
        raise DomainError("value 0 holds exactly for symmetric sequences; not enumerable")
    if abs(n) > TARGET_MAX:
        raise DomainError(f"target must be at most {TARGET_MAX} in absolute value, got {n}")
    if lambda_parity not in ("even", "odd", "both"):
        raise DomainError(f"lambda_parity must be even, odd, or both, got {lambda_parity!r}")
    return _catalog(n, _sigma_even_pairs(abs(n))[abs(n)], lambda_parity)
