import json
from math import gcd

import pytest

from cfasym import verifier
from cfasym.asymmetry import decompose, enumerate_types, extended_type
from cfasym.cf import expand
from cfasym.congruence import CongruenceSpec
from cfasym.errors import DomainError
from cfasym.exhaustive import scan_small_anticontinuants_reference
from cfasym.verifier import (_conv_value_parity, build_table, verify_enumeration,
                             verify_identities, verify_main_theorem)
from cfasym.continuants import anticontinuant


def test_conv_value_parity_matches_expand():
    for alpha in range(2, 120):
        for beta in range(1, alpha):
            got = _conv_value_parity(alpha, beta)
            if gcd(alpha, beta) != 1:
                assert got is None
                continue
            q = expand(alpha, beta)
            assert got == (anticontinuant(q), len(q) % 2)


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


def test_report_json_keeps_only_its_kinds_fields():
    violation = verifier.ViolationRecord(7, 2, (3, 2), "root_without_type")
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


def _counting_catalogs(monkeypatch):
    calls = []

    def counting(n, lambda_parity="both"):
        calls.append(n)
        return enumerate_types(n, lambda_parity)

    monkeypatch.setattr(verifier, "enumerate_types", counting)
    return calls


def test_enumeration_validates_before_any_catalog(monkeypatch):
    calls = _counting_catalogs(monkeypatch)
    with pytest.raises(DomainError):
        verify_enumeration(0, 8, 8)
    assert calls == []


def test_enumeration_builds_only_the_catalogs_it_reads(monkeypatch):
    calls = _counting_catalogs(monkeypatch)
    report = verify_enumeration(3, 2, 80)
    assert report.ok
    values = {v for _, v in scan_small_anticontinuants_reference(3, 2, 80)}
    assert sorted(calls) == sorted(values)
