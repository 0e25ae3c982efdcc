import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfasym import congruence
from cfasym.cf import representations
from cfasym.congruence import (ALPHA_MAX, EXCEPTIONAL_N_MAX, ROOTS_MAX, CongruenceSpec, FoldedForm,
                               FoldedParams, _divisors, candidate_pairs, exceptional_candidates,
                               folded_expand_classify, folded_normalize, main_theorem_specs,
                               solve_quadratic, true_exceptions)
from cfasym.continuants import anticontinuant
from cfasym.errors import DomainError, FoldedFormError


def brute_roots(n, s, alpha):
    e = 1 if s == 0 else -1
    return [b for b in range(1, alpha) if (b * b + n * b + e) % alpha == 0]


def test_spec_validation():
    with pytest.raises(DomainError):
        CongruenceSpec(3, 2)
    with pytest.raises(DomainError):
        CongruenceSpec(2.5, 0)
    assert CongruenceSpec(-4, 1).negated() == CongruenceSpec(4, 1)


def test_solve_examples():
    assert solve_quadratic(CongruenceSpec(4, 0), 11) == [3, 4]
    assert solve_quadratic(CongruenceSpec(-4, 0), 11) == [7, 8]
    assert solve_quadratic(CongruenceSpec(4, 0), 1) == []
    with pytest.raises(DomainError):
        solve_quadratic(CongruenceSpec(4, 0), 0)
    with pytest.raises(DomainError):
        solve_quadratic(CongruenceSpec(4, 0), ALPHA_MAX + 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(-9, 9), st.integers(0, 1), st.integers(1, 400))
def test_solve_matches_brute_scan(n, s, alpha):
    roots = solve_quadratic(CongruenceSpec(n, s), alpha)
    assert roots == brute_roots(n, s, alpha)
    assert all(gcd(alpha, b) == 1 for b in roots)


def test_solve_matches_numpy_scan_every_small_modulus():
    # every alpha <= 5000, |n| <= 8 and both s, including n = 0 and the
    # Delta = 0 specs (n = +-2, s = 0); int64 is exact: x*(x+n) < 2.6e7
    ns = np.arange(-8, 9, dtype=np.int64)[:, None]
    specs = {s: [CongruenceSpec(n, s) for n in range(-8, 9)] for s in (0, 1)}
    for alpha in range(1, 5001):
        x = np.arange(1, alpha, dtype=np.int64)
        rest = x * (x + ns) % alpha  # row i holds n = i - 8, column j holds b = j + 1
        for s, target in ((0, alpha - 1), (1, 1 % alpha)):
            hits = np.flatnonzero(rest == target).tolist()
            expected = [(i // x.size - 8, i % x.size + 1) for i in hits]
            got = [(sp.n, b) for sp in specs[s] for b in solve_quadratic(sp, alpha)]
            assert got == expected, (alpha, s)


@pytest.mark.parametrize("alpha,n,s", [
    (2**13, 2 + 2**13, 0), (2**20, 2 + 2**20, 0),  # discriminant 0 mod alpha
    (2**13, 66, 0), (2**20, 66, 0),  # (x + 33)^2 = 2^6 * 17
    (2**20, 0, 1),
    (3**8, 2 + 3**8, 0), (3**12, 2 + 3**12, 0),
    (3**8, 11, 0), (3**12, 11, 0),  # discriminant 3^2 * 13
    (3**12, 0, 1),
    (5**6, 2 + 5**6, 0), (5**8, 2 + 5**8, 0),
    (5**6, 39, 1), (5**8, 39, 1),  # discriminant 5^2 * 61
    (2**5 * 3**3 * 5**2 * 7, 0, 1), (2**5 * 3**3 * 5**2 * 7, 2, 0),
    (2**5 * 3**3 * 5**2 * 7, 110, 0), (2**5 * 3**3 * 5**2 * 7, -264, 1),
    (3**2 * 5 * 7 * 11 * 13, 128, 0), (3**2 * 5 * 7 * 11 * 13, -173, 0),
    (2**3 * 3**2 * 7**2 * 11, 394, 0), (2**3 * 3**2 * 7**2 * 11, -218, 0),
])
def test_solve_matches_brute_scan_at_prime_powers(alpha, n, s):
    roots = solve_quadratic(CongruenceSpec(n, s), alpha)
    assert roots and roots == brute_roots(n, s, alpha)


def test_solve_many_roots_at_a_large_cube():
    # Delta = 0 (mod p^3): the roots are -1 + p^2 * t, one per t mod p
    p = 40009
    alpha = p**3
    roots = solve_quadratic(CongruenceSpec(2 + alpha, 0), alpha)
    assert len(roots) == p and roots == sorted(set(roots))
    assert all(0 < b < alpha and (b * b + (2 + alpha) * b + 1) % alpha == 0 for b in roots)


def test_solve_lists_at_most_roots_max():
    # Delta = 0 at a square modulus m^2: the roots are -1 (mod m), m of them
    assert ROOTS_MAX == 10**6
    roots = solve_quadratic(CongruenceSpec(2, 0), 10**12)
    assert len(roots) == ROOTS_MAX
    assert roots[:2] == [10**6 - 1, 2 * 10**6 - 1] and roots[-1] == 10**12 - 1


@pytest.mark.parametrize("spec, alpha, count", [
    (CongruenceSpec(2, 0), 4 * 10**12, 2_000_000),
    # Delta = 3^28 * (3^28 + 4): two classes mod 3^15, so 2 * 3^14 roots
    (CongruenceSpec(2 + 3**28, 0), 3**29, 9_565_938),
])
def test_solve_refuses_too_many_roots_before_listing_any(spec, alpha, count):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^alpha = {alpha} gives {count} roots; "
                                              rf"at most {ROOTS_MAX} are listed$"):
            solve_quadratic(spec, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_exceptional_candidates_examples():
    assert list(exceptional_candidates(CongruenceSpec(3, 1))) == [1, 2, 3, 4, 5, 6, 9, 12, 13]
    assert list(exceptional_candidates(CongruenceSpec(4, 0))) == [1, 2, 3, 4, 5, 6, 7, 8, 11, 12]
    assert list(exceptional_candidates(CongruenceSpec(1, 0))) == [1, 2, 3]


def test_exceptional_candidates_rejections():
    with pytest.raises(DomainError):
        exceptional_candidates(CongruenceSpec(2, 0))
    with pytest.raises(DomainError):
        exceptional_candidates(CongruenceSpec(-2, 0))
    with pytest.raises(DomainError):
        exceptional_candidates(CongruenceSpec(0, 0))
    # n = +-2 is fine at s = 1
    assert 1 in exceptional_candidates(CongruenceSpec(2, 1))
    # past the bound the factoring would take more than about half a second
    for n in (EXCEPTIONAL_N_MAX + 1, -EXCEPTIONAL_N_MAX - 1, 10**6):
        with pytest.raises(DomainError, match=rf"\|n\| <= {EXCEPTIONAL_N_MAX}, got {n}$"):
            exceptional_candidates(CongruenceSpec(n, 1))
    assert max(exceptional_candidates(CongruenceSpec(-EXCEPTIONAL_N_MAX, 0))) > EXCEPTIONAL_N_MAX


def test_divisors_match_a_scan():
    for v in range(1, 1001):
        assert sorted(_divisors(v)) == [d for d in range(1, v + 1) if v % d == 0], v


@pytest.mark.parametrize("n,s", [(3, 1), (4, 0), (5, 0), (6, 1), (-4, 0), (1, 1)])
def test_certificates_revalidate(n, s):
    a = abs(n)
    for modulus, certs in exceptional_candidates(CongruenceSpec(n, s)).items():
        assert certs
        for cert in certs:
            if cert.condition == "small_alpha":
                assert modulus <= 2 * a
            elif cert.condition == "gamma_condition":
                g = cert.witness
                assert 1 <= g <= a - 1
                target = -1 if s == 0 else 1
                assert (g * (g - a) - target) % modulus == 0
            else:
                e = cert.witness
                assert 1 <= e <= 2 * a - 1
                target = -4 if s == 0 else 4
                assert (e * (e - 2 * a) - target) % modulus == 0


def test_candidate_pairs_remark_values():
    assert candidate_pairs(CongruenceSpec(3, 1)) == [
        (3, 1), (3, 2), (9, 2), (9, 4), (9, 5), (9, 7), (13, 5), (13, 8)]
    assert candidate_pairs(CongruenceSpec(4, 0)) == [
        (2, 1), (3, 1), (3, 2), (6, 1), (6, 5), (11, 3), (11, 4), (11, 7), (11, 8)]


def test_main_theorem_specs_pinned():
    # every (n, s) with 1 <= |n| <= 6 but the perfect-square (+-2, 0)
    assert main_theorem_specs(6) == [
        (1, 0), (1, 1), (-1, 0), (-1, 1), (2, 1), (-2, 1),
        (3, 0), (3, 1), (-3, 0), (-3, 1), (4, 0), (4, 1), (-4, 0), (-4, 1),
        (5, 0), (5, 1), (-5, 0), (-5, 1), (6, 0), (6, 1), (-6, 0), (-6, 1)]
    assert all(type(spec) is CongruenceSpec for spec in main_theorem_specs(6))
    assert len(main_theorem_specs(128)) == 510


@pytest.mark.parametrize("n_max, message", [
    (0, "n_max must be a positive integer, got 0"),
    (True, "n_max must be a positive integer, got True"),
    (129, "n_max must be at most 128, got 129"),
])
def test_main_theorem_specs_refusals(n_max, message):
    with pytest.raises(DomainError) as exc:
        main_theorem_specs(n_max)
    assert str(exc.value) == message


def test_candidate_pairs_match_both_signs_solved_apart():
    # the roots of -n come by reflection, alpha - r; here each sign is solved
    for spec in main_theorem_specs(40):
        moduli = exceptional_candidates(spec)
        both = [(alpha, beta) for alpha in moduli
                for beta in sorted({*solve_quadratic(spec, alpha),
                                    *solve_quadratic(spec.negated(), alpha)})]
        single = [(alpha, beta) for alpha in moduli for beta in solve_quadratic(spec, alpha)]
        assert candidate_pairs(spec) == both, spec
        assert candidate_pairs(spec, include_negated=False) == single, spec


@pytest.mark.parametrize("include_negated", [True, False])
def test_true_exceptions_match_their_definition(include_negated):
    # the library reads the anticontinuants off beta's inverse; here both
    # representations are expanded and their anticontinuants taken
    for spec in main_theorem_specs(40):
        targets = {spec.n, -spec.n} if include_negated else {spec.n}
        expected = [(alpha, beta) for alpha, beta in candidate_pairs(spec, include_negated)
                    if not any(anticontinuant(q) in targets
                               for q in representations(alpha, beta))]
        assert true_exceptions(spec, include_negated) == expected, spec


def test_representations_have_anticontinuants_read_off_the_inverse():
    for alpha in range(2, 301):
        for beta in range(1, alpha):
            if gcd(alpha, beta) == 1:
                u = pow(beta, -1, alpha)
                found = sorted(anticontinuant(q) for q in representations(alpha, beta))
                assert found == sorted((u - beta, alpha - u - beta)), (alpha, beta)


def test_true_exceptions_examples():
    assert true_exceptions(CongruenceSpec(4, 0)) == [(2, 1), (3, 1), (3, 2)]
    exc31 = true_exceptions(CongruenceSpec(3, 1))
    assert (3, 1) in exc31 and (3, 2) in exc31
    assert not any(a == 9 or a == 13 for a, _ in exc31)
    assert true_exceptions(CongruenceSpec(1, 0)) == []


def test_true_exceptions_single_sign():
    # (6,5) only solves the negated congruence, so it drops out single-signed
    both = candidate_pairs(CongruenceSpec(4, 0), include_negated=True)
    single = candidate_pairs(CongruenceSpec(4, 0), include_negated=False)
    assert (6, 5) in both and (6, 5) not in single
    assert (6, 1) in single


def test_folded_normalize():
    assert folded_normalize(FoldedParams(1, 6, 4, 1)) == FoldedParams(4, 3, 2, 1)
    assert folded_normalize(FoldedParams(2, 3, 2, -1)) == FoldedParams(2, 3, 2, -1)
    assert folded_normalize(FoldedParams(1, 4, 2, 1)) == FoldedParams(4, 2, 1, 1)
    p = folded_normalize(FoldedParams(3, 12, 8, -1))
    assert folded_normalize(p) == p
    assert p.alpha == 3 * 144 and p.b * p.a * p.n == 3 * 8 * 12


def test_folded_params_validation():
    with pytest.raises(DomainError):
        FoldedParams(0, 2, 1, 1)
    with pytest.raises(DomainError):
        FoldedParams(1, 2, 1, 2)


@pytest.mark.parametrize("good, bad", [
    (CongruenceSpec(1, 0), {"s": 5}),
    (CongruenceSpec(1, 0), {"n": 1.5}),
    (FoldedParams(1, 1, 1, 1), {"epsilon": 9}),
    (FoldedParams(1, 1, 1, 1), {"a": 0}),
])
def test_validated_records_refuse_bad_fields_on_every_path(good, bad):
    record = type(good)
    fields = {**good._asdict(), **bad}
    with pytest.raises(DomainError):
        record(*fields.values())
    with pytest.raises(DomainError):
        record(**fields)
    with pytest.raises(DomainError):
        good._replace(**bad)
    with pytest.raises(DomainError):
        record._make(fields.values())
    kept = good._replace()
    assert kept == good and type(kept) is record


def test_folded_classify_examples():
    seq, form = folded_expand_classify(FoldedParams(1, 5, 2, 1))
    assert seq == (2, 1, 3, 2) and (form.form, form.x, form.pivot) == (1, None, 3)
    seq, form = folded_expand_classify(FoldedParams(2, 2, 1, 1))
    assert seq == (2, 1, 1, 1) and (form.form, form.x, form.pivot) == (2, 1, 1)
    seq, form = folded_expand_classify(FoldedParams(1, 2, 1, 1))
    assert seq == (4,) and form.form == 1


def test_folded_classify_rejections():
    with pytest.raises(DomainError):
        folded_expand_classify(FoldedParams(1, 6, 4, 1))  # not normalized
    with pytest.raises(FoldedFormError):
        # (5, 4) solves (x+1)^2 = 0 mod 5 but no representation matches a pattern
        folded_expand_classify(FoldedParams(5, 1, 1, 1))


@pytest.mark.parametrize("params, planted, message", [
    (FoldedParams(1, 5, 2, 1), FoldedForm(2, 1, 3), "b = 1 requires form 1, got form 2"),
    (FoldedParams(2, 2, 1, 1), FoldedForm(1, None, 1), "b = 2 requires form 2 or 3 with x = 1"),
    (FoldedParams(2, 2, 1, 1), FoldedForm(3, 4, 1), "b = 2 requires form 2 or 3 with x = 1"),
], ids=["b1_not_form_1", "b2_form_1", "b2_wrong_x"])
def test_folded_classify_refuses_a_form_that_b_forbids(monkeypatch, params, planted, message):
    # no real expansion reaches these guards (test_folded_sweep_small), so a
    # planted pattern matcher does
    monkeypatch.setattr(congruence, "_match_form", lambda q: planted)
    with pytest.raises(FoldedFormError, match=message):
        folded_expand_classify(params)


def test_folded_sweep_small():
    for b in range(1, 5):
        for n in range(2, 13):
            for a in range(1, n):
                if gcd(a, n) != 1:
                    continue
                for eps in (1, -1):
                    p = FoldedParams(b, n, a, eps)
                    assert folded_normalize(p) == p
                    assert (p.beta + eps) ** 2 % p.alpha == 0
                    seq, form = folded_expand_classify(p)
                    if b == 1:
                        assert form.form == 1
                    else:
                        assert form.form in (2, 3) and form.x == b - 1
