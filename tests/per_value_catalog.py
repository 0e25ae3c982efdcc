"""The per-value type search, for the tests only.

`cfasym.asymmetry` builds the catalogs of every value up to a bound in one
search and reads each value off it.  This is the search it replaced: one
walk per value that keeps only the cores of exactly that value.  The tests
hold the grouped search's catalogs to it.
"""

from __future__ import annotations

from typing import Iterator

from cfasym.asymmetry import (ExtendedAsymmetryType, LambdaParity, ParametricFamily,
                              TypeCatalog, _sigma_even_value)
from cfasym.continuants import fibonacci


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


def enumerate_types_per_value(n: int, lambda_parity: LambdaParity = "both") -> TypeCatalog:
    """`enumerate_types(n, lambda_parity)` by a search for n alone; n must be nonzero."""
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
