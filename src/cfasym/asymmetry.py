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
parametric rather than materialized.
"""

from __future__ import annotations

from typing import Iterator, Literal, NamedTuple, Optional

from .continuants import _check_entries, _continuant, fibonacci
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
    if t.c == 0:
        raise DomainError("value of a symmetric type is 0; marginal must be nonzero")
    core = tuple(t.core)
    _check_entries(core)
    # reversing the core negates A(core), swapping the sigma-odd and sigma-even values
    return _sigma_even_value(t.c, core if t.sigma == "even" else core[::-1])


def _sigma_even_value(c: int, core: tuple[int, ...]) -> int:
    """c * K(core) - A(core), unchecked: the inner loop of `enumerate_types`."""
    last = len(core) - 1
    a = _continuant(core, 0, last - 1) - _continuant(core, 1, last)
    return c * _continuant(core, 0, last) - a


def _matching_cores(c: int, lam: int, target: int) -> Iterator[tuple[int, ...]]:
    """Cores with entries in [1, target] whose sigma-even value equals target.

    The sigma-even value is monotone nondecreasing in every entry, so a
    prefix whose all-ones completion already exceeds the target is dead.
    """
    def rec(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == lam:
            if _sigma_even_value(c, prefix) == target:
                yield prefix
            return
        for entry in range(1, target + 1):
            grown = prefix + (entry,)
            floor = grown + (1,) * (lam - len(grown))
            if _sigma_even_value(c, floor) > target:
                break
            yield from rec(grown)

    yield from rec(())


def _is_value2_family_core(c: int, core: tuple[int, ...]) -> bool:
    # instances of (1; p,1) at sigma even, equivalently (1; 1,p) at sigma odd
    return c == 1 and len(core) == 2 and core[1] == 1


def enumerate_types(n: int, lambda_parity: LambdaParity = "both") -> TypeCatalog:
    """All extended types with anticontinuant value n, optionally filtered by core-length parity.

    Search bounds: |c| * F_{lambda+1} <= |n| caps the core length and the
    marginal, and outside the value-2 parametric families every core entry
    divides into a positively weighted term of the value, so entries are
    capped by |n|.  Value 0 signals the symmetric class, which is infinite,
    and is rejected, and so is |n| > TARGET_MAX, where the search time,
    about quadratic in |n|, passes half a second.
    """
    if not is_int(n):
        raise DomainError(f"target must be an integer, got {n!r}")
    if n == 0:
        raise DomainError("value 0 holds exactly for symmetric sequences; not enumerable")
    if abs(n) > TARGET_MAX:
        raise DomainError(f"target must be at most {TARGET_MAX} in absolute value, got {n}")
    if lambda_parity not in ("even", "odd", "both"):
        raise DomainError(f"lambda_parity must be even, odd, or both, got {lambda_parity!r}")

    a = abs(n)
    finite: set[ExtendedAsymmetryType] = set()
    families: set[ParametricFamily] = set()
    lam = 0
    while fibonacci(lam + 1) <= a:
        for c in range(1, a // fibonacci(lam + 1) + 1):
            for core in _matching_cores(c, lam, a):
                if a == 2 and _is_value2_family_core(c, core):
                    continue
                finite.add(ExtendedAsymmetryType(c, core, "even"))
                # reversing the core swaps the sigma-odd and sigma-even values
                finite.add(ExtendedAsymmetryType(c, core[::-1], "odd"))
        lam += 1
    if a == 2:
        families.add(ParametricFamily(1, (None, 1), "even"))
        families.add(ParametricFamily(1, (1, None), "odd"))

    if n < 0:
        finite = {ExtendedAsymmetryType(-t.c, t.core[::-1], t.sigma) for t in finite}
        families = {ParametricFamily(-f.c, f.pattern[::-1], f.sigma) for f in families}

    if lambda_parity != "both":
        want = 0 if lambda_parity == "even" else 1
        finite = {t for t in finite if len(t.core) % 2 == want}
        families = {f for f in families if len(f.pattern) % 2 == want}

    return TypeCatalog(frozenset(finite), frozenset(families))
