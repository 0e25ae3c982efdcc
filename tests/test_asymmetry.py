import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfasym.asymmetry import (TARGET_MAX, AsymmetryDecomposition, ExtendedAsymmetryType,
                              compose, decompose, enumerate_types, extended_type,
                              type_value)
from cfasym.continuants import anticontinuant, continuant, fibonacci
from cfasym.errors import DomainError

entries = st.integers(min_value=1, max_value=9)
sequences = st.lists(entries, min_size=1, max_size=12).map(tuple)


def test_decompose_examples():
    d = decompose((2, 1, 2, 1))
    assert (d.depth, d.c, d.core, d.pivot, d.outer) == (0, 1, (1, 2), 1, ())
    d = decompose((3, 1, 1, 3))
    assert (d.depth, d.c, d.core, d.pivot) == (2, 0, (), None)
    assert d.outer == (3, 1)
    d = decompose((1, 1, 1, 2, 2, 1))
    assert (d.depth, d.c, d.core, d.pivot, d.outer) == (1, 1, (1, 2), 2, (1,))
    d = decompose((4,))
    assert (d.depth, d.c, d.core, d.pivot) == (0, 0, (4,), None)


def test_compose_examples():
    assert compose(AsymmetryDecomposition(0, 4, (), 1, ())) == (5, 1)
    assert compose(AsymmetryDecomposition(2, 0, (), None, (3, 1))) == (3, 1, 1, 3)
    assert compose(AsymmetryDecomposition(1, 1, (1, 2), 2, (1,))) == (1, 1, 1, 2, 2, 1)


def test_compose_rejections():
    with pytest.raises(DomainError):
        compose(AsymmetryDecomposition(0, -3, (), 2, ()))  # marginal entry 2-3 < 1
    with pytest.raises(DomainError):
        compose(AsymmetryDecomposition(1, 1, (), 2, ()))  # depth/outer mismatch
    with pytest.raises(DomainError):
        compose(AsymmetryDecomposition(0, 0, (1, 2), None, ()))  # long symmetric core
    with pytest.raises(DomainError):
        compose(AsymmetryDecomposition(0, 0, (), None, ()))  # empty result
    with pytest.raises(DomainError):
        compose(AsymmetryDecomposition(0, 2, (), None, ()))  # missing pivot


def test_type_value_examples():
    assert type_value(ExtendedAsymmetryType(1, (1, 2), "even")) == 4
    assert anticontinuant((2, 1, 2, 1)) == 4
    assert type_value(ExtendedAsymmetryType(1, (1, 2), "odd")) == 2
    assert anticontinuant((1, 1, 1, 2, 2, 1)) == 2
    for n in (1, 3, -5):
        assert type_value(ExtendedAsymmetryType(n, (), "even")) == n
        assert type_value(ExtendedAsymmetryType(n, (), "odd")) == n
    with pytest.raises(DomainError):
        type_value(ExtendedAsymmetryType(0, (), "even"))


def decompositions():
    outer = st.lists(entries, min_size=0, max_size=3).map(tuple)
    core = st.lists(entries, min_size=0, max_size=4).map(tuple)

    def build(o, x, pivot, c):
        first = pivot + (c if len(o) % 2 == 0 else -c)
        if c == 0 or first < 1:
            return None
        return AsymmetryDecomposition(len(o), c, x, pivot, o)

    return st.builds(build, outer, core, st.integers(1, 9),
                     st.integers(-8, 8)).filter(lambda d: d is not None)


@given(decompositions())
def test_decompose_compose_identity(dec):
    assert decompose(compose(dec)) == dec


@given(sequences)
def test_compose_decompose_identity(q):
    assert compose(decompose(q)) == q


@given(decompositions())
def test_formula_matches_direct_evaluation(dec):
    q = compose(dec)
    assert type_value(extended_type(dec)) == anticontinuant(q)


def test_formula_matches_direct_evaluation_bulk():
    rng = random.Random(20240917)
    for _ in range(10000):
        depth = rng.randint(0, 3)
        outer = tuple(rng.randint(1, 9) for _ in range(depth))
        core = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
        pivot = rng.randint(1, 9)
        c = rng.choice([x for x in range(-8, 9) if x != 0])
        first = pivot + (c if depth % 2 == 0 else -c)
        if first < 1:
            continue
        dec = AsymmetryDecomposition(depth, c, core, pivot, outer)
        assert type_value(extended_type(dec)) == anticontinuant(compose(dec))


@given(sequences)
def test_sign_law(q):
    dec = decompose(q)
    a = anticontinuant(q)
    if dec.c == 0:
        assert a == 0
    else:
        assert (a > 0) == (dec.c > 0) and a != 0


@given(decompositions())
def test_fibonacci_lower_bound(dec):
    value = type_value(extended_type(dec))
    assert abs(value) >= abs(dec.c) * fibonacci(len(dec.core) + 1)


@given(sequences, entries)
def test_depth_padding(q, w):
    wrapped = (w,) + q + (w,)
    assert anticontinuant(wrapped) == -anticontinuant(q)
    double = (w,) + wrapped + (w,)
    assert anticontinuant(double) == anticontinuant(q)


def test_enumerate_rejects_zero_and_bad_parity():
    with pytest.raises(DomainError):
        enumerate_types(0)
    with pytest.raises(DomainError):
        enumerate_types(3, "sideways")


@pytest.mark.parametrize("n", [TARGET_MAX + 1, -TARGET_MAX - 1, 10 ** 6])
def test_enumerate_refuses_targets_past_the_bound(n):
    with pytest.raises(DomainError, match="at most"):
        enumerate_types(n)


def test_enumerate_n1():
    cat = enumerate_types(1, "both")
    expected = {ExtendedAsymmetryType(1, (), "even"), ExtendedAsymmetryType(1, (), "odd"),
                ExtendedAsymmetryType(1, (1,), "even"), ExtendedAsymmetryType(1, (1,), "odd")}
    assert set(cat.members()) == expected
    assert not cat.families
    assert set(enumerate_types(1, "even").members()) == {t for t in expected if not t.core}


def test_enumerate_n2_with_families():
    cat = enumerate_types(2, "both")
    finite = {(t.c, t.core, t.sigma) for t in cat.members()}
    assert finite == {(2, (), "even"), (2, (), "odd"), (1, (2,), "even"),
                      (1, (2,), "odd"), (2, (1,), "even"), (2, (1,), "odd")}
    fams = {(f.c, f.pattern, f.sigma) for f in cat.family_members()}
    assert fams == {(1, (None, 1), "even"), (1, (1, None), "odd")}
    # the family members really take the value 2 at every parameter
    for f in cat.family_members():
        for p in range(1, 30):
            core = tuple(p if e is None else e for e in f.pattern)
            assert type_value(ExtendedAsymmetryType(f.c, core, f.sigma)) == 2
    assert cat.contains(1, (17, 1), "even")
    assert not cat.contains(1, (17, 1), "odd")


def test_enumerate_n4_even_coarse():
    cat = enumerate_types(4, "even")
    assert cat.coarse_pairs() == ((4, ()), (1, (1, 2)), (2, (1, 1)))
    # the sigma-odd achiever (1; 2,1) is in the refined catalog but not the coarse slice
    assert cat.contains(1, (2, 1), "odd")
    assert not cat.contains(1, (2, 1), "even")


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_values_are_correct(n):
    for sign in (1, -1):
        cat = enumerate_types(sign * n, "both")
        for t in cat.members():
            assert type_value(t) == sign * n
        for f in cat.family_members():
            for p in (1, 2, 7, 23):
                core = tuple(p if e is None else e for e in f.pattern)
                assert type_value(ExtendedAsymmetryType(f.c, core, f.sigma)) == sign * n


@pytest.mark.parametrize("n", range(1, 9))
def test_reversal_duality(n):
    plus = enumerate_types(n, "both")
    minus = enumerate_types(-n, "both")
    mapped = {ExtendedAsymmetryType(-t.c, t.core[::-1], t.sigma) for t in plus.finite_types}
    assert mapped == set(minus.finite_types)
    mapped_fams = {(-f.c, f.pattern[::-1], f.sigma) for f in plus.families}
    assert mapped_fams == {(f.c, f.pattern, f.sigma) for f in minus.families}


def test_enumeration_completeness_small_brute_force():
    # independent oracle: scan every sequence and look its type up in the catalog
    catalogs = {n: enumerate_types(n, "both") for n in range(-6, 7) if n != 0}
    for length in range(1, 8):
        for q in product(range(1, 5), repeat=length):
            value = anticontinuant(q)
            if value == 0 or abs(value) > 6:
                continue
            dec = decompose(q)
            assert catalogs[value].contains(dec.c, dec.core, dec.sigma), (q, value)


def test_lambda_parity_filter():
    both = enumerate_types(6, "both")
    even = enumerate_types(6, "even")
    odd = enumerate_types(6, "odd")
    assert set(even.members()) == {t for t in both.members() if len(t.core) % 2 == 0}
    assert set(odd.members()) == {t for t in both.members() if len(t.core) % 2 == 1}


@settings(max_examples=40)
@given(st.integers(7, 16))
def test_larger_targets_stay_consistent(n):
    cat = enumerate_types(n, "both")
    for t in cat.members():
        assert type_value(t) == n
        assert abs(t.c) * fibonacci(len(t.core) + 1) <= n
