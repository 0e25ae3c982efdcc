"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The golden table below is transcribed verbatim;
one exception cell of the transcription, marked where it is used, claims
two pairs that the exception rule provably resolves, so that single check
is a strict expected failure and everything else must pass.
"""

import random
from math import gcd

import pytest

from cfasym.asymmetry import decompose, enumerate_types
from cfasym.cf import expand, expand_with_parity
from cfasym.congruence import (CongruenceSpec, FoldedParams, candidate_pairs,
                               exceptional_candidates, folded_expand_classify,
                               main_theorem_specs, true_exceptions)
from cfasym.continuants import anticontinuant, continuant, fibonacci
from cfasym.exhaustive import verify_enumeration
from cfasym.verifier import build_table, verify_identities, verify_main_theorem


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


# golden table for values 1..6: (value, parity) -> (type cells, exception cells)
GOLDEN_TABLE = {
    (1, "even"): ({(1, "")}, set()),
    (1, "odd"): ({(1, "1")}, set()),
    (2, "even"): ({(2, ""), (1, "p,1")}, set()),
    (2, "odd"): ({(1, "2"), (2, "1")}, {(2, 1)}),
    (3, "even"): ({(3, "")}, set()),
    (3, "odd"): ({(1, "3"), (3, "1"), (1, "1,1,1")}, {(3, 1), (3, 2)}),
    (4, "even"): ({(4, ""), (2, "1,1"), (1, "1,2")}, {(2, 1), (3, 1), (3, 2)}),
    (4, "odd"): ({(1, "4"), (2, "2"), (4, "1"), (1, "1,2,1"), (1, "2,1,1")},
                 {(2, 1), (4, 1), (4, 3), (5, 2), (5, 3)}),
    (5, "even"): ({(5, ""), (1, "2,2"), (2, "2,1"), (1, "1,1,1,1")},
                  {(3, 1), (3, 2), (5, 2), (5, 3), (7, 1), (7, 6)}),
    (5, "odd"): ({(1, "5"), (5, "1"), (1, "1,3,1"), (1, "3,1,1"), (1, "2,2,1")},
                 {(5, 1), (5, 4), (7, 2), (7, 5), (7, 3), (7, 4)}),
    (6, "even"): ({(6, ""), (3, "1,1"), (1, "1,3"), (2, "3,1"), (1, "3,2"),
                   (1, "2,1,1,1"), (1, "1,1,2,1")},
                  {(2, 1), (4, 1), (4, 3), (7, 2), (7, 5), (7, 3), (7, 4),
                   (8, 3), (8, 5)}),
    (6, "odd"): ({(1, "6"), (2, "3"), (3, "2"), (6, "1"), (1, "1,4,1"),
                  (1, "4,1,1"), (2, "1,1,1"), (1, "1,1,2"), (1, "2,3,1"),
                  (1, "3,2,1")},
                 {(2, 1), (3, 1), (3, 2), (5, 2), (5, 3), (6, 1), (6, 5),
                  (9, 2), (9, 7), (9, 4), (9, 5), (10, 3), (10, 7)}),
}

TABLE_KEYS = sorted(GOLDEN_TABLE)


@pytest.fixture(scope="module")
def table_doc():
    return build_table(6)


def test_criterion_01_reference_expansion():
    q = expand(25, 7)
    assert q == (3, 1, 1, 3)
    # congruence identity: beta^2 + A*beta + (-1)^len = 0 mod alpha, here A = 0
    assert anticontinuant(q) == 0
    assert (7 * 7 + anticontinuant(q) * 7 + (-1) ** len(q)) % 25 == 0
    assert (7 * 7 + 1) % 25 == 0  # 7^2 = -1 (mod 25)
    _report(1, "expand(25,7) = 3,1,1,3 and 7^2 = -1 (mod 25)")


def test_criterion_02_exceptional_set_reproduction():
    spec = CongruenceSpec(3, 1)
    assert list(exceptional_candidates(spec)) == [1, 2, 3, 4, 5, 6, 9, 12, 13]
    assert candidate_pairs(spec) == [(3, 1), (3, 2), (9, 2), (9, 4), (9, 5),
                                     (9, 7), (13, 5), (13, 8)]
    _report(2, "exceptional moduli and solved pairs for (n=3, s=1)")


def test_criterion_03_worked_example_n4():
    spec = CongruenceSpec(4, 0)
    assert list(exceptional_candidates(spec)) == [1, 2, 3, 4, 5, 6, 7, 8, 11, 12]
    pairs = candidate_pairs(spec)
    assert pairs == [(2, 1), (3, 1), (3, 2), (6, 1), (6, 5),
                     (11, 3), (11, 4), (11, 7), (11, 8)]
    correspondences = {
        (6, 1): (5, 1), (6, 5): (1, 5),
        (11, 3): (3, 1, 1, 1), (11, 7): (1, 1, 1, 3),
        (11, 4): (2, 1, 2, 1), (11, 8): (1, 2, 1, 2),
    }
    for (alpha, beta), seq in correspondences.items():
        assert expand_with_parity(alpha, beta, "even") == seq
        assert anticontinuant(seq) in (4, -4)
    coarse = set(enumerate_types(4, "even").coarse_pairs())
    assert coarse == {(4, ()), (2, (1, 1)), (1, (1, 2))}
    assert true_exceptions(spec) == [(2, 1), (3, 1), (3, 2)]
    _report(3, "worked example for (n=4, s=0): pairs, expansions, types, exceptions")


@pytest.mark.parametrize("key", TABLE_KEYS)
def test_criterion_04_table_types(table_doc, key):
    value, parity = key
    row = next(r for r in table_doc.rows if (r.value, r.parity) == key)
    got = {(e.marginal, e.core) for e in row.entries}
    assert got == GOLDEN_TABLE[key][0], key
    if key == TABLE_KEYS[-1]:
        _report(4, "table types match the golden cells for all rows, n = 1..6")


@pytest.mark.parametrize(
    "key",
    [pytest.param(k, marks=pytest.mark.xfail(
        strict=True,
        reason="golden cell lists (7,1) and (7,6), but 7/1 and 7/6 expand to "
               "(6,1) and (1,6) with anticontinuant +-5, so neither pair is a "
               "true exception; the builder keeps them out"))
     if k == (5, "even") else k
     for k in TABLE_KEYS])
def test_criterion_04_table_exceptions(table_doc, key):
    row = next(r for r in table_doc.rows if (r.value, r.parity) == key)
    got = set(row.exceptions)
    if key == (5, "even"):
        # the resolvable pairs, shown before the strict expected failure
        assert anticontinuant((6, 1)) == 5 and anticontinuant((1, 6)) == -5
        assert got == GOLDEN_TABLE[key][1] - {(7, 1), (7, 6)}
        print("ACCEPTANCE 04 NOTE: (5, even) golden exception cell differs "
              "by exactly {(7,1), (7,6)}; strict xfail")
    assert got == GOLDEN_TABLE[key][1], key
    if key == TABLE_KEYS[-1]:
        _report(4, "table exceptions match the golden cells (one documented "
                   "xfail at (5, even))")


def test_criterion_05_identity_sweep():
    report = verify_identities(500, trials=10000, seed=0)
    assert report.ok, report.violations[:5]
    assert report.checked > 76000  # ~76k coprime pairs plus the random trials
    _report(5, f"identity sweep over alpha <= 500: {report.checked} checks, "
               "0 violations")


def test_criterion_06_refined_main_theorem():
    specs = main_theorem_specs(6)
    assert len(specs) == 22
    total = 0
    for spec in specs:
        report = verify_main_theorem(spec, 2000, mode="refined")
        assert report.ok, (spec, report.violations[:3])
        total += report.checked
    _report(6, f"refined correspondence holds for all 22 (n, s), alpha <= 2000 "
               f"({total} matched decision points)")


def test_criterion_07_coarse_counterexample_regression():
    report = verify_main_theorem(CongruenceSpec(4, 0), 30, mode="coarse")
    assert report.ok  # refined comparison simultaneously clean
    records = {(c.alpha, c.beta): (c.marginal, c.core, c.direction)
               for c in report.coarse_counterexamples}
    assert records[(27, 17)] == (1, (1, 2), "listed_type_without_root")
    assert expand(27, 17) == (1, 1, 1, 2, 2, 1)
    _report(7, "coarse mode records (27, 17) with type (1; 1,2); refined stays clean")


def test_criterion_08_enumeration_completeness_oracle():
    report = verify_enumeration(10, 8, 8)
    assert report.violations == ()
    assert (report.hits, report.types) == (609982, 352)
    _report(8, f"every one of {report.hits} bounded sequences with small value has its "
               f"type in the catalog ({report.types} distinct type instances)")


def test_criterion_09_folded_family_sweep():
    checked = 0
    for b in range(1, 9):
        for n in range(2, 41):
            for a in range(1, n):
                if gcd(a, n) != 1:
                    continue
                for eps in (1, -1):
                    p = FoldedParams(b, n, a, eps)
                    assert (p.beta + eps) ** 2 % p.alpha == 0
                    _, form = folded_expand_classify(p)
                    if b == 1:
                        assert form.form == 1
                    else:
                        assert form.form in (2, 3) and form.x == b - 1
                    checked += 1
    _report(9, f"folded family: {checked} parameter tuples classified, "
               "x = b-1 whenever b >= 2")


def test_criterion_10_bound_properties():
    rng = random.Random(1789)
    asym = 0
    while asym < 10000:
        q = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 12)))
        dec = decompose(q)
        if dec.c == 0:
            continue
        asym += 1
        assert abs(dec.c) * fibonacci(len(dec.core) + 1) <= abs(anticontinuant(q))
    for _ in range(10000):
        q = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 12)))
        assert continuant(q) >= fibonacci(len(q) + 1)
    _report(10, "Fibonacci lower bounds hold on 10^4 + 10^4 random sequences")
