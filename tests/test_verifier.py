import hashlib
import json
import tracemalloc
from math import gcd

import pytest

from cfasym import asymmetry, cf, congruence, continuants, verifier
from cfasym.asymmetry import (TARGET_MAX, ExtendedAsymmetryType, decompose, enumerate_types,
                              extended_type, type_value)
from cfasym.cf import evaluate, expand, parity_by_inverse
from cfasym.congruence import (CongruenceSpec, ExceptionalCertificate, FoldedParams,
                               main_theorem_specs, solve_quadratic)
from cfasym.errors import DomainError, ViolationRecord, as_plain
from cfasym.exhaustive import (EnumerationReport, _checked_bound, _two_sided_blocks,
                               scan_position, verify_enumeration)
from cfasym.verifier import _typed_pairs, build_table, verify_identities, verify_main_theorem
from cfasym.continuants import (anticontinuant, anticontinuant_range, continuant_range,
                                euler_residual, fibonacci)
from per_value_catalog import enumerate_types_per_value
from scanning import scan_small_anticontinuants, scan_small_anticontinuants_reference

SPECS = main_theorem_specs(6)


def test_typed_pairs_match_a_scan_of_every_pair():
    # the oracle: every coprime pair through public expand, anticontinuant and decompose
    by_value, by_type = {}, {}
    for alpha in range(2, 301):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            q = expand(alpha, beta)
            parity = len(q) % 2
            by_value.setdefault((anticontinuant(q), parity), set()).add((alpha, beta))
            dec = decompose(q)
            if dec.c:
                by_type.setdefault((parity, dec.c, dec.core), set()).add((alpha, beta))
    assert len(SPECS) == 22
    for spec in SPECS:
        catalog = enumerate_types(spec.n, "odd" if spec.s else "even")
        assert _typed_pairs(catalog.finite_types, 300) == by_value[(spec.n, spec.s)], spec
        pairs = catalog.coarse_pairs()
        coarse_types = [ExtendedAsymmetryType(c, core, sigma)
                        for c, core in pairs for sigma in ("even", "odd")]
        listed = set().union(*(by_type.get((spec.s, c, core), set()) for c, core in pairs))
        assert _typed_pairs(coarse_types, 300) == listed, spec


@pytest.mark.parametrize("entry", [0, -1, True])
def test_typed_pairs_refuse_a_bad_core_entry(entry):
    # the walk runs unchecked, so the core is validated before it
    with pytest.raises(DomainError, match=rf"entries must be integers >= 1, got {entry!r}$"):
        _typed_pairs([ExtendedAsymmetryType(1, (2, entry), "even")], 300)


def test_main_theorem_reports_are_pinned():
    # the bytes of every refined report of the stock sweep (the benchmark's
    # digest) and of every coarse report at a smaller bound
    refined = [verify_main_theorem(spec, 2000) for spec in SPECS]
    assert sum(r.checked for r in refined) == 18664
    digest = hashlib.sha256("".join(r.to_json() for r in refined).encode()).hexdigest()
    assert digest == "32dbb307b0805de30d8ba95a6f34931137bd70f18f2e051f95a25e38098569c6"
    coarse = [verify_main_theorem(spec, 300, mode="coarse") for spec in SPECS]
    assert sum(len(r.coarse_counterexamples) for r in coarse) == 404
    digest = hashlib.sha256("".join(r.to_json() for r in coarse).encode()).hexdigest()
    assert digest == "da715ebf8504f936a9f62e82565142bee9fb1b4f66ae8b9e231b8168c15a33ee"


def test_identities_small_sweep():
    report = verify_identities(200, trials=500, seed=7)
    assert report.ok
    assert report.checked > 0
    assert report.kind == "identities"


def test_identities_minimal_sweep():
    report = verify_identities(2, trials=0, seed=0)
    assert report.checked == 1  # only the pair (2, 1)
    assert report.ok
    with pytest.raises(DomainError):
        verify_identities(1)


@pytest.mark.parametrize("trials", [-3, 2.5, "10"])
def test_identities_rejects_bad_trials(trials):
    with pytest.raises(DomainError, match="trials"):
        verify_identities(5, trials=trials)


def test_identities_determinism():
    a = verify_identities(50, trials=400, seed=3)
    b = verify_identities(50, trials=400, seed=3)
    assert a == b
    assert a.to_json() == b.to_json()


def test_identities_reports_a_planted_parity_fault(monkeypatch):
    def flipped(alpha, beta):
        pred = parity_by_inverse(alpha, beta)
        wrong = "even" if pred.predicted_parity == "odd" else "odd"
        return pred._replace(predicted_parity=wrong)

    monkeypatch.setattr(cf, "parity_by_inverse", flipped)
    report = verify_identities(30, trials=50, seed=0)
    assert {v.kind for v in report.violations} == {"parity_prediction"}
    assert len(report.violations) == report.checked - 50  # every pair, no trial


def test_identities_reports_a_planted_anticontinuant_fault(monkeypatch):
    monkeypatch.setattr(continuants, "anticontinuant", lambda q: anticontinuant(q) + 1)
    report = verify_identities(30, trials=50, seed=0)
    assert {v.kind for v in report.violations} == {
        "congruence_identity", "half_bound", "reversal_antisymmetry"}


def test_identities_reports_a_planted_euler_fault(monkeypatch):
    monkeypatch.setattr(continuants, "euler_residual", lambda q, k, l, m, n: 1)
    report = verify_identities(30, trials=50, seed=0)
    assert [v.kind for v in report.violations] == ["euler_identity"] * 50


def test_main_theorem_refined_small():
    report = verify_main_theorem(CongruenceSpec(1, 0), 120)
    assert report.ok
    assert report.mode == "refined"
    assert not report.coarse_counterexamples
    excluded = {e.modulus for e in report.excluded}
    assert excluded == {1, 2, 3}


def test_main_theorem_rejects_bad_specs():
    with pytest.raises(DomainError):
        verify_main_theorem(CongruenceSpec(2, 0), 100)
    with pytest.raises(DomainError):
        verify_main_theorem(CongruenceSpec(0, 1), 100)
    with pytest.raises(DomainError):
        verify_main_theorem(CongruenceSpec(4, 0), 100, mode="loose")
    with pytest.raises(DomainError, match="at most 128"):
        verify_main_theorem(CongruenceSpec(TARGET_MAX + 1, 1), 100)


def test_main_theorem_refuses_a_large_n_before_the_certified_set(monkeypatch):
    # the certified set grows about as n^2, so it is not built for a refused n
    monkeypatch.setattr(congruence, "exceptional_candidates",
                        lambda spec: pytest.fail("the certified set was built"))
    for n in (TARGET_MAX + 1, -10**6):
        with pytest.raises(DomainError, match=f"at most 128 in absolute value, got {n}$"):
            verify_main_theorem(CongruenceSpec(n, 1), 10)


@pytest.mark.parametrize("alpha_max", [0, 1, -3, 2.5])
def test_main_theorem_rejects_bad_alpha_max(alpha_max):
    # the sweep starts at alpha = 2: a bound of 1 would be an empty sweep reported as clean
    with pytest.raises(DomainError, match=f"alpha_max must be an integer >= 2, got {alpha_max}$"):
        verify_main_theorem(CongruenceSpec(1, 0), alpha_max)


@pytest.mark.parametrize("drop, add, record", [
    ((2,), (), [(7, 2, (3, 2), "type_without_root")]),  # 2^2 + 2 + 1 = 7
    ((), (3,), [(7, 3, (2, 3), "root_without_type")]),  # 3^2 + 3 + 1 = 13
    ((2,), (3,), [(7, 3, (2, 3), "root_without_type"), (7, 2, (3, 2), "type_without_root")]),
])
def test_main_theorem_reports_a_planted_root_fault(plant_roots, drop, add, record):
    plant_roots(7, drop=drop, add=add)
    report = verify_main_theorem(CongruenceSpec(1, 0), 10)
    assert [(v.alpha, v.beta, v.expansion, v.kind) for v in report.violations] == record


@pytest.mark.parametrize("mode", ["refined", "coarse"])
@pytest.mark.parametrize("spec, alpha, drop, add", [
    (CongruenceSpec(1, 0), 2, (), (1,)),   # no root mod 2: a root without a type
    (CongruenceSpec(4, 1), 20, (3,), ()),  # roots = typed = {3, 13}: a type without a root
])
def test_main_theorem_puts_a_fault_at_a_certified_modulus_only_in_necessary_exclusions(
        plant_roots, mode, spec, alpha, drop, add):
    clean = verify_main_theorem(spec, 60, mode)
    assert alpha in {e.modulus for e in clean.excluded} - set(clean.necessary_exclusions)
    plant_roots(alpha, drop=drop, add=add)
    report = verify_main_theorem(spec, 60, mode)
    assert report.necessary_exclusions == tuple(sorted(clean.necessary_exclusions + (alpha,)))
    assert report._replace(necessary_exclusions=clean.necessary_exclusions) == clean


@pytest.mark.parametrize("alpha, beta, expansion", [
    (10, 3, (3, 3)),     # symmetric
    (11, 3, (3, 1, 2)),  # (c, core) = (1, (1,)), but of odd length
])
def test_main_theorem_coarse_gives_no_type_to_a_root_outside_parity_s(
        plant_roots, alpha, beta, expansion):
    plant_roots(alpha, add=(beta,))
    report = verify_main_theorem(CongruenceSpec(1, 0), alpha, mode="coarse")
    assert report.violations == (
        ViolationRecord(alpha, beta, expansion, "root_without_type"),)
    assert report.coarse_counterexamples == (
        verifier.CoarseCounterexample(alpha, beta, 0, (), "root_without_listed_type"),)


def test_main_theorem_reports_a_planted_type_miss(planted_miss):
    report = verify_main_theorem(CongruenceSpec(4, 0), 100)
    assert report.violations[0] == ViolationRecord(
        26, 7, (3, 1, 2, 2), "root_without_type")
    assert {v.kind for v in report.violations} == {"root_without_type"}
    assert {extended_type(decompose(v.expansion)) for v in report.violations} == {planted_miss}


def test_main_theorem_reports_a_planted_extra_type(plant_catalogs):
    extra = ExtendedAsymmetryType(1, (), "even")  # value 1, not 4
    plant_catalogs(lambda catalog: catalog._replace(
        finite_types=catalog.finite_types | {extra}))
    report = verify_main_theorem(CongruenceSpec(4, 0), 100)
    assert report.violations[0] == ViolationRecord(13, 3, (4, 3), "type_without_root")
    assert {v.kind for v in report.violations} == {"type_without_root"}
    assert {extended_type(decompose(v.expansion)) for v in report.violations} == {extra}


def test_main_theorem_coarse_counterexamples():
    report = verify_main_theorem(CongruenceSpec(4, 0), 30, mode="coarse")
    assert report.ok  # refined comparison still clean
    records = {(c.alpha, c.beta, c.marginal, c.core, c.direction)
               for c in report.coarse_counterexamples}
    assert (27, 17, 1, (1, 2), "listed_type_without_root") in records
    assert (26, 15, 1, (2, 1), "root_without_listed_type") in records
    assert expand(27, 17) == (1, 1, 1, 2, 2, 1)
    dec = decompose(expand(27, 17))
    assert (dec.c, dec.core) == (1, (1, 2))


def test_main_theorem_necessary_exclusions():
    report = verify_main_theorem(CongruenceSpec(4, 0), 30)
    assert report.necessary_exclusions == (2, 3, 6, 11)


def test_refined_type_route_agrees_with_value_route():
    # membership through the catalog equals the direct value-and-parity test
    for n, s in [(3, 0), (4, 0), (-5, 1), (2, 1)]:
        catalog = enumerate_types(n, "both")
        for alpha in range(2, 80):
            for beta in range(1, alpha):
                if gcd(alpha, beta) != 1:
                    continue
                q = expand(alpha, beta)
                direct = anticontinuant(q) == n and len(q) % 2 == s
                dec = decompose(q)
                via_type = (dec.c != 0 and len(q) % 2 == s
                            and catalog.contains(dec.c, dec.core, dec.sigma))
                assert direct == via_type, (n, s, alpha, beta)


def test_report_json_round_trip():
    report = verify_main_theorem(CongruenceSpec(4, 0), 30, mode="coarse")
    data = json.loads(report.to_json())
    assert data["n"] == 4 and data["s"] == 0 and data["ok"] is True
    assert json.dumps(data, sort_keys=True) == report.to_json()
    excluded = {e["modulus"] for e in data["excluded"]}
    assert excluded == {1, 2, 3, 4, 5, 6, 7, 8, 11, 12}
    assert all(e["certificates"] for e in data["excluded"])


def test_report_dict_keeps_tuples_and_lists():
    # records become dicts at every depth; sequences keep their type
    violation = ViolationRecord(7, 2, (3, 2), "root_without_type")
    certificate = ExceptionalCertificate("gamma_condition", 1)
    report = verifier.VerificationReport(
        kind="main_theorem", alpha_min=2, alpha_max=9, checked=3, matches=2,
        violations=(violation,), n=1, s=0, mode="refined",
        excluded=(verifier.ExcludedModulus(3, (certificate,)),), necessary_exclusions=(3,))
    data = report.to_dict()
    plain_violation = {"alpha": 7, "beta": 2, "expansion": (3, 2), "kind": "root_without_type"}
    assert data["violations"] == (plain_violation,)
    assert type(data["violations"][0]["expansion"]) is tuple
    assert data["excluded"] == ({"modulus": 3, "certificates": (
        {"condition": "gamma_condition", "witness": 1},)},)
    assert data["necessary_exclusions"] == (3,) and data["coarse_counterexamples"] == ()
    assert as_plain([violation, (violation,)]) == [plain_violation, (plain_violation,)]


def test_report_json_keeps_only_its_kinds_fields():
    violation = ViolationRecord(7, 2, (3, 2), "root_without_type")
    cex = verifier.CoarseCounterexample(7, 2, 1, (1, 2), "root_without_listed_type")
    main = verifier.VerificationReport(
        kind="main_theorem", alpha_min=2, alpha_max=9, checked=3, matches=2,
        violations=(violation,), n=1, s=0, mode="coarse",
        coarse_counterexamples=(cex,), necessary_exclusions=(3,))
    assert json.loads(main.to_json()) == {
        "kind": "main_theorem", "alpha_min": 2, "alpha_max": 9, "checked": 3,
        "matches": 2, "ok": False, "n": 1, "s": 0, "mode": "coarse", "excluded": [],
        "violations": [{"alpha": 7, "beta": 2, "expansion": [3, 2],
                        "kind": "root_without_type"}],
        "coarse_counterexamples": [{"alpha": 7, "beta": 2, "marginal": 1, "core": [1, 2],
                                    "direction": "root_without_listed_type"}],
        "necessary_exclusions": [3]}
    identities = verifier.VerificationReport(
        kind="identities", alpha_min=2, alpha_max=9, checked=3, matches=3,
        violations=(), trials=4, seed=5)
    assert json.loads(identities.to_json()) == {
        "kind": "identities", "alpha_min": 2, "alpha_max": 9, "checked": 3,
        "matches": 3, "ok": True, "violations": [], "trials": 4, "seed": 5}
    violation = ViolationRecord(None, None, (2, 1), "formula_mismatch")
    enumeration = EnumerationReport(9, 4, (violation,))
    assert json.loads(enumeration.to_json()) == {
        "hits": 9, "types": 4, "ok": False,
        "violations": [{"alpha": None, "beta": None, "expansion": [2, 1],
                        "kind": "formula_mismatch"}]}


def test_build_table_small():
    doc = build_table(2)
    rows = {(r.value, r.parity): r for r in doc.rows}
    assert [(e.marginal, e.core) for e in rows[(1, "even")].entries] == [(1, "")]
    assert [(e.marginal, e.core) for e in rows[(2, "even")].entries] == [(2, ""), (1, "p,1")]
    assert rows[(2, "even")].exceptions == ()
    assert rows[(2, "odd")].exceptions == ((2, 1),)
    with pytest.raises(DomainError):
        build_table(0)


def test_table_csv_and_text():
    doc = build_table(2)
    csv_text = doc.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "value,parity,marginal,core,exceptions"
    assert "2,even,1,p.1," in lines
    assert "2,odd,1,2,2:1" in lines
    text = doc.to_text()
    assert "(2, odd)  exceptions: (2,1)" in text


def test_build_table_to_the_catalog_bound_is_pinned():
    # every row's types and true exceptions, as CSV and as text
    doc = build_table(TARGET_MAX)
    assert hashlib.sha256(doc.to_csv().encode()).hexdigest() == (
        "7bf1e497cbaea5717a7435bb99249cf5af24977e62b339e85b50c5ad629eb418")
    assert hashlib.sha256(doc.to_text().encode()).hexdigest() == (
        "2705aa2f57720c87ca68abd96f688f89217af47ca9a05d41f3128eac7b3fd08c")


def test_build_table_reads_the_catalogs_it_builds(plant_catalogs):
    # build_table builds each value's catalog itself, with asymmetry._catalog:
    # a planted catalog without the sigma-even type (1; 1,2) of value 4 takes
    # that cell out of the (4, even) row and moves no other cell
    def cells(doc):
        return {(r.value, r.parity): [(e.marginal, e.core) for e in r.entries]
                for r in doc.rows}

    expected = cells(build_table(4))
    expected[(4, "even")].remove((1, "1,2"))
    dropped = ExtendedAsymmetryType(1, (1, 2), "even")
    plant_catalogs(lambda catalog: catalog._replace(
        finite_types=catalog.finite_types - {dropped}))
    assert cells(build_table(4)) == expected


def test_build_table_determinism():
    assert build_table(3) == build_table(3)


def test_enumeration_small_bounds():
    report = verify_enumeration(6, 4, 6)
    assert report.ok
    assert report.hits == sum(1 for _ in scan_small_anticontinuants_reference(6, 4, 6))
    assert 0 < report.types < report.hits


def test_enumeration_reports_a_planted_miss(planted_miss):
    report = verify_enumeration(6, 4, 6)
    assert not report.ok
    assert [v.kind for v in report.violations] == ["missing_from_catalog"]
    miss = report.violations[0]
    assert (miss.alpha, miss.beta) == (None, None)
    assert extended_type(decompose(miss.expansion)) == planted_miss


def test_enumeration_reports_a_planted_formula_fault(monkeypatch):
    monkeypatch.setattr(asymmetry, "type_value", lambda t: type_value(t) + 1)
    report = verify_enumeration(6, 4, 6)
    assert {v.kind for v in report.violations} == {"formula_mismatch"}
    assert len(report.violations) == report.types == 126  # one per type instance


def test_enumeration_reports_first_hits_in_scan_order(no_sigma_odd):
    seen = set()
    expected = []
    for q, value in scan_small_anticontinuants(6, 4, 6):
        dec = decompose(q)
        key = (dec.c, dec.core, dec.sigma, value)
        if key in seen:
            continue
        seen.add(key)
        if not no_sigma_odd(value).contains(dec.c, dec.core, dec.sigma):
            expected.append(q)
    report = verify_enumeration(6, 4, 6)
    assert len(expected) > 1
    assert {v.kind for v in report.violations} == {"missing_from_catalog"}
    assert [v.expansion for v in report.violations] == expected


def test_enumeration_report_bytes_are_pinned(monkeypatch, no_sigma_odd):
    # clean reports, sigma-odd-refusing catalogs and a planted formula fault:
    # the violations are the first hits of each instance in scan order, so
    # this pins that order as well as the counts
    reports = [verify_enumeration(7, 4, 6), verify_enumeration(8, 5, 6)]
    monkeypatch.undo()  # the real catalogs again
    reports += [verify_enumeration(*bounds) for bounds in
                [(6, 5, 2), (6, 5, 20), (5, 8, 8), (7, 4, 30), (9, 5, 8)]]
    monkeypatch.setattr(asymmetry, "type_value", lambda t: type_value(t) + 1)
    reports.append(verify_enumeration(6, 5, 8))
    assert [len(r.violations) for r in reports] == [64, 76, 0, 0, 0, 0, 0, 224]
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == "c9995f4b209878630c0355bd4f8d1733d11875298a8a8cec04d2b239112cdfae"


def test_enumeration_report_at_a_large_value_bound_is_pinned():
    # every value up to 100 is reachable, so the check reads 200 catalogs,
    # which one search builds
    report = verify_enumeration(7, 4, 100)
    assert report.ok
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    assert digest == "630ed8f83bb0cd669fde042c4efaa6a2143c3a52a7eae261073c508fb5c5b6cc"


def test_enumeration_reaching_every_block_of_value_eight_is_pinned():
    # entries up to 9 reach the three blocks of value <= 8 that the stock
    # bounds miss: (8; ) from (9, 1), (8; 1) from (9, 1, 1) and value 2's
    # (1; 9, 1)
    report = verify_enumeration(10, 9, 8)
    assert (report.hits, report.types, report.violations) == (1_106_804, 364, ())


def test_enumeration_reports_a_planted_miss_past_the_stock_entries(plant_catalogs):
    dropped = {ExtendedAsymmetryType(8, (1,), "even"), ExtendedAsymmetryType(8, (1,), "odd")}
    plant_catalogs(lambda catalog: catalog._replace(
        finite_types=catalog.finite_types - dropped))
    assert verify_enumeration(10, 8, 8).ok  # no entry 9, so no block (8; 1)
    report = verify_enumeration(10, 9, 8)
    assert [(v.kind, v.expansion) for v in report.violations] == [
        ("missing_from_catalog", (1, 1, 1, 9, 1)),
        ("missing_from_catalog", (1, 1, 9, 1, 1, 1, 1))]


def _counting_searches(monkeypatch):
    # the bound of each catalog search, wherever the library runs one
    calls = []

    def counting(bound):
        calls.append(bound)
        return search(bound)

    search = asymmetry._sigma_even_pairs
    monkeypatch.setattr(asymmetry, "_sigma_even_pairs", counting)
    return calls


def test_enumeration_validates_before_any_catalog(monkeypatch):
    calls = _counting_searches(monkeypatch)
    for bounds in [(0, 8, 8), (6, 4, 2.5), (6.0, 4, 2), (6, 4.0, 2)]:
        with pytest.raises(DomainError):
            verify_enumeration(*bounds)
    assert calls == []


def test_enumeration_runs_one_catalog_search(monkeypatch):
    # to the largest value met, not to the value bound: at (5, 2, 128) that
    # is 12, and a search to 128 would take about a second
    calls = _counting_searches(monkeypatch)
    for bounds in [(3, 2, 80), (5, 2, 128)]:
        assert verify_enumeration(*bounds).ok
        values = {abs(v) for _, v in scan_small_anticontinuants_reference(*bounds)}
        assert calls.pop() == max(values)
    assert calls == []


@pytest.mark.parametrize("max_len, max_entry, value_bound", [(7, 4, 6), (6, 5, 10)])
def test_blocks_give_each_hit_its_key_count_and_first_hit(max_len, max_entry, value_bound):
    # the three facts verify_enumeration reads off the two-sided blocks: a hit
    # with outer depth D around (a, m, e) carries the key of its block (m, d),
    # d = |a - e|, with the signs of c and the value flipped when D is odd; a
    # block has 2*(max_entry - d)*sum(max_entry**D) hits; and the twin with
    # an all-ones outer layer around the smaller end 1 is a hit with the same
    # key and value, no later in scan order
    bounds = (max_len, max_entry, value_bound)
    blocks = {(m, d): v for m, d, v in _two_sided_blocks(max_len, max_entry,
                                                         _checked_bound(*bounds))}
    hits = dict(scan_small_anticontinuants_reference(*bounds))
    counts = dict.fromkeys(blocks, 0)
    for q, value in hits.items():
        depth = next(i for i in range(len(q)) if q[i] != q[-1 - i])
        a, *m, e = q[depth:len(q) - depth]
        sign = (-1) ** depth
        block = (tuple(m), a - e) if a > e else (tuple(m[::-1]), e - a)
        counts[block] += 1
        block_value = blocks[block] if a > e else -blocks[block]
        key = ((a - e) * sign, tuple(m), ("even", "odd")[depth % 2], sign * block_value)
        dec = decompose(q)
        assert (dec.c, dec.core, dec.sigma, value) == key
        low = min(a, e) - 1
        twin = (1,) * depth + (a - low, *m, e - low) + (1,) * depth
        dec = decompose(twin)
        assert (dec.c, dec.core, dec.sigma, hits[twin]) == key
        assert scan_position(twin) <= scan_position(q)
    for (m, d), count in counts.items():
        depths = range((max_len - len(m)) // 2)
        assert count == 2 * (max_entry - d) * sum(max_entry ** depth for depth in depths)


@pytest.mark.parametrize("max_len, max_entry, value_bound", [(7, 4, 6), (6, 5, 10)])
def test_end_symmetric_hits_repeat_an_earlier_key(max_len, max_entry, value_bound):
    # an end-symmetric hit (a, m, a) has the value -A(m) for every a, so
    # (1, m, 1) is a hit too, earlier, with its key
    bounds = (max_len, max_entry, value_bound)
    hits = dict(scan_small_anticontinuants_reference(*bounds))
    order = {q: k for k, (q, _) in enumerate(scan_small_anticontinuants(*bounds))}
    repeats = 0
    for q, value in hits.items():
        if q[0] < 2 or q[-1] != q[0]:
            continue
        repeats += 1
        first = (1, *q[1:-1], 1)
        assert value == -anticontinuant(q[1:-1])
        assert hits[first] == value
        assert order[first] < order[q]
        dec_first, dec = decompose(first), decompose(q)
        assert (dec_first.c, dec_first.core, dec_first.sigma) == (dec.c, dec.core, dec.sigma)
    assert repeats > 0


def test_enumeration_memory_stays_small():
    # the check lists no hit, only the 88 two-sided blocks at the stock
    # bounds, and peaks near 0.1 MB
    tracemalloc.start()
    try:
        report = verify_enumeration(10, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.hits, report.types, report.ok) == (609_982, 352, True)
    assert peak < 2 * 10 ** 6


def _plain_python_check(bounds, catalog, value_of):
    # verify_enumeration from the listed hits: every hit in scan order, keyed
    # by decompose, the first hit of each key checked
    seen = set()
    violations = []
    hits = 0
    for q, value in scan_small_anticontinuants(*bounds):
        hits += 1
        dec = decompose(q)
        key = (dec.c, dec.core, dec.sigma, value)
        if key in seen:
            continue
        seen.add(key)
        if value_of(extended_type(dec)) != value:
            violations.append(ViolationRecord(None, None, q, "formula_mismatch"))
        elif not catalog(value).contains(dec.c, dec.core, dec.sigma):
            violations.append(ViolationRecord(None, None, q, "missing_from_catalog"))
    return EnumerationReport(hits, len(seen), tuple(violations))


@pytest.mark.parametrize("bounds", [
    (3, 2, 80),  # every value up to the largest reachable one
    (5, 4, 1),   # the smallest bound
    (7, 4, 30),  # blocks whose middle (x, *r) has a long r
    (8, 3, 4),   # outer layers of depth 1 to 3
    (8, 4, 6),
    (4, 5, 7),   # odd outer depths only around blocks of length 2
    (7, 3, 5),
    (9, 1, 3),   # entries all 1: no block, no hit
    (2, 6, 5),   # length 2 only: no odd outer depth
    (6, 4, 1),
    (7, 6, 4),
    (4, 6, 1),
], ids=lambda bounds: "-".join(map(str, bounds)))
def test_enumeration_matches_a_plain_python_check(monkeypatch, plant_catalogs, bounds):
    # the plain check reads each value's catalog from the per-value reference search
    catalogs = {}

    def catalog(n):
        if n not in catalogs:
            catalogs[n] = enumerate_types_per_value(n)
        return catalogs[n]

    def kept(catalog):
        return catalog

    def no_sigma_odd(catalog):
        return catalog._replace(finite_types=frozenset(t for t in catalog.finite_types
                                                       if t.sigma == "even"))

    def off_by_one(t):
        return type_value(t) + 1

    for edit, value_of in [(kept, type_value), (no_sigma_odd, type_value),
                           (kept, off_by_one)]:
        plant_catalogs(edit)
        monkeypatch.setattr(asymmetry, "type_value", value_of)
        expected = _plain_python_check(bounds, lambda n: edit(catalog(n)), value_of)
        assert verify_enumeration(*bounds) == expected


@pytest.mark.parametrize("call", [
    lambda: verify_main_theorem(CongruenceSpec(3, 1), True),
    lambda: build_table(True),
    lambda: verify_identities(True),
    lambda: verify_identities(5, trials=True),
    lambda: verify_enumeration(True, 8, 8),
    lambda: verify_enumeration(6, True, 2),
    lambda: verify_enumeration(6, 4, True),
    lambda: verify_identities(5, trials=1, seed=True),
    lambda: verify_identities(5, trials=1, seed=1.5),
], ids=["alpha_max", "n_max", "max_alpha", "trials", "max_len", "max_entry", "value_bound",
        "seed", "float_seed"])
def test_bool_bounds_are_refused(monkeypatch, call):
    # bool is an int subclass, and True used to pass as the bound 1
    calls = _counting_searches(monkeypatch)
    with pytest.raises(DomainError):
        call()
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda: CongruenceSpec(True, 1),
    lambda: CongruenceSpec(1, True),
    lambda: verify_main_theorem(CongruenceSpec(True, 1), 30).to_json(),
    lambda: enumerate_types(True),
    lambda: FoldedParams(True, 1, 1, 1),
    lambda: FoldedParams(1, 1, 1, True),
    lambda: solve_quadratic(CongruenceSpec(1, 0), True),
    lambda: expand(True, True),
    lambda: evaluate((True, 2)),
    lambda: fibonacci(True),
    lambda: parity_by_inverse(3, True),
    lambda: type_value(ExtendedAsymmetryType(True, (2,), "even")),
    lambda: continuant_range((1, 2, 3), True, 2),
    lambda: continuant_range((1, 2, 3), 0.5, 2),
    lambda: anticontinuant_range((1, 2, 3), 0, True),
    lambda: anticontinuant_range((1, 2, 3), 0.0, 2),
    lambda: euler_residual((2, 1, 2, 1), 0, True, 1, 3),
    lambda: euler_residual((2, 1, 2, 1), 0, 1, 1, 3.0),
], ids=["spec_n", "spec_s", "report_n", "target", "folded_b", "folded_epsilon", "alpha",
        "pair", "entry", "fibonacci", "parity", "type_marginal", "continuant_index",
        "float_continuant_index", "anticontinuant_index", "float_anticontinuant_index",
        "euler_index", "float_euler_index"])
def test_bool_integers_are_refused(call):
    # each used to pass True as 1, e.g. a report with "n": true; a float
    # index used to raise TypeError, not DomainError
    with pytest.raises(DomainError):
        call()


def test_enumeration_decomposes_once_per_type(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return decompose(q)

    monkeypatch.setattr(asymmetry, "decompose", counting)
    report = verify_enumeration(6, 4, 6)
    assert report.ok
    assert len(calls) == report.types < report.hits
    assert len(set(calls)) == len(calls)


def test_enumeration_refuses_values_past_the_catalog_bound(monkeypatch):
    calls = _counting_searches(monkeypatch)
    with pytest.raises(DomainError):
        verify_enumeration(6, 4, TARGET_MAX + 1)
    assert calls == []
    # the value bound is clamped to the largest reachable value first
    assert verify_enumeration(3, 2, 10 ** 6) == verify_enumeration(3, 2, 27)


def test_build_table_runs_one_catalog_search(monkeypatch):
    calls = _counting_searches(monkeypatch)
    build_table(6)
    assert calls == [6]


def test_build_table_refuses_n_max_past_the_catalog_bound(monkeypatch):
    calls = _counting_searches(monkeypatch)
    with pytest.raises(DomainError):
        build_table(TARGET_MAX + 1)
    assert calls == []


def test_battery_files_are_the_calls_they_come_from():
    battery = verifier.run_battery(2, 60, 30, 50, 0)
    specs = main_theorem_specs(2)
    identities = verify_identities(30, trials=50, seed=0)
    mains = [verify_main_theorem(spec, 60, mode="refined") for spec in specs]
    table = build_table(2)
    assert battery == (identities, tuple(mains), table, battery.files) and battery.ok
    assert battery.files == {
        "identities.json": identities.to_json() + "\n",
        **{f"main_n{spec.n:+d}_s{spec.s}.json": report.to_json() + "\n"
           for spec, report in zip(specs, mains)},
        "main_theorem_all.json": json.dumps([r.to_dict() for r in mains], sort_keys=True) + "\n",
        "table.csv": table.to_csv(), "table.txt": table.to_text()}


@pytest.mark.parametrize("bounds", [
    {"n_max": 0}, {"n_max": TARGET_MAX + 1}, {"alpha_max": 1}, {"alpha_max": 60.0},
    {"identities_alpha_max": 1}, {"trials": -1}, {"seed": "0"}])
def test_battery_refuses_every_bound_before_any_sweep(monkeypatch, bounds):
    def ran(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for sweep in ("verify_identities", "verify_main_theorem", "build_table"):
        monkeypatch.setattr(verifier, sweep, ran)
    with pytest.raises(DomainError, match=f"got {next(iter(bounds.values()))!r}"):
        verifier.run_battery(**bounds)
