from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfasym.cf import (alternate_expansion, evaluate, expand, expand_with_parity,
                       parity_by_inverse, representations)
from cfasym.errors import DomainError

entries = st.integers(min_value=1, max_value=9)
sequences = st.lists(entries, min_size=1, max_size=10).map(tuple)


def pairs():
    # coprime pairs built by evaluating a random sequence
    return sequences.map(evaluate)


def test_expand_examples():
    assert expand(25, 7) == (3, 1, 1, 3)
    assert expand(1, 1) == (1,)
    assert expand(11, 4) == (2, 1, 3)
    assert expand(2, 1) == (2,)
    assert expand(3, 2) == (1, 1, 1)


def test_expand_rejects_bad_pairs():
    with pytest.raises(DomainError):
        expand(10, 4)
    with pytest.raises(DomainError):
        expand(5, 0)
    with pytest.raises(DomainError):
        expand(4, 7)
    with pytest.raises(DomainError):
        expand(5, 5)


def test_expand_with_parity_examples():
    assert expand_with_parity(11, 4, "even") == (2, 1, 2, 1)
    assert expand_with_parity(6, 5, "even") == (1, 5)
    assert expand_with_parity(25, 7, "odd") == (3, 1, 1, 2, 1)
    assert expand_with_parity(11, 3, "even") == (3, 1, 1, 1)
    with pytest.raises(DomainError):
        expand_with_parity(1, 1, "even")
    with pytest.raises(DomainError):
        expand_with_parity(11, 4, "both")


def test_evaluate_examples():
    assert evaluate((3, 1, 1, 3)) == (25, 7)
    assert evaluate((7,)) == (7, 1)
    assert evaluate((2, 1, 2, 1)) == (11, 4)
    with pytest.raises(DomainError):
        evaluate(())
    with pytest.raises(DomainError):
        evaluate((2, 0, 1))


def test_alternate_expansion():
    assert alternate_expansion((2, 1, 3)) == (2, 1, 2, 1)
    assert alternate_expansion((2, 1, 2, 1)) == (2, 1, 3)
    assert alternate_expansion((2,)) == (1, 1)
    with pytest.raises(DomainError):
        alternate_expansion((1,))


def test_alternate_expansion_refuses_the_empty_sequence():
    with pytest.raises(DomainError, match="empty sequence has no alternate"):
        alternate_expansion(())


def test_parity_by_inverse_examples():
    pred = parity_by_inverse(25, 7)
    assert pred.v_inverse == 18
    assert not pred.same_side
    assert pred.predicted_parity == "even"
    for u in (2, 5, 9):
        assert parity_by_inverse(u, 1).predicted_parity == "odd"
    assert parity_by_inverse(2, 1).same_side


def test_parity_by_inverse_rejects():
    with pytest.raises(DomainError):
        parity_by_inverse(10, 4)
    with pytest.raises(DomainError):
        parity_by_inverse(1, 1)
    with pytest.raises(DomainError):
        parity_by_inverse(5, 7)


@given(pairs())
def test_round_trip(pair):
    alpha, beta = pair
    assert evaluate(expand(alpha, beta)) == (alpha, beta)


def ends_agree(q):
    # the selection rule: the first entry is 1 exactly when the last entry is 1
    return (q[0] == 1) == (q[-1] == 1)


@given(pairs())
def test_expand_satisfies_convention(pair):
    assert ends_agree(expand(*pair))


@given(pairs())
def test_convention_uniqueness(pair):
    # exactly one representation qualifies, except (1,1) which has only one
    # and (2,1) where [2] and [1,1] both do; [2] is returned there
    alpha, beta = pair
    reps = representations(alpha, beta)
    qualifying = [q for q in reps if ends_agree(q)]
    if (alpha, beta) == (2, 1):
        assert len(qualifying) == 2
    else:
        assert len(qualifying) == 1
    assert qualifying[0] == expand(alpha, beta)


@given(pairs())
def test_representation_flip(pair):
    alpha, beta = pair
    if pair == (1, 1):
        return
    even = expand_with_parity(alpha, beta, "even")
    odd = expand_with_parity(alpha, beta, "odd")
    assert len(even) % 2 == 0 and len(odd) % 2 == 1
    assert evaluate(even) == pair and evaluate(odd) == pair
    longer, shorter = (even, odd) if len(even) > len(odd) else (odd, even)
    assert longer == shorter[:-1] + (shorter[-1] - 1, 1)


def test_parity_predictor_exhaustive_small():
    for u in range(2, 200):
        for v in range(1, u):
            if gcd(u, v) != 1:
                continue
            predicted = parity_by_inverse(u, v).predicted_parity
            actual = "odd" if len(expand(u, v)) % 2 else "even"
            assert predicted == actual, (u, v)
