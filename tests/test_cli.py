import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from cfasym import cli, verifier
from cfasym.continuants import fibonacci


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text(capsys):
    code, out, _ = run(capsys, "expand", "25", "7")
    assert code == 0 and out == "3,1,1,3\n"


def test_expand_with_parity(capsys):
    code, out, _ = run(capsys, "expand", "11", "4", "--parity", "even")
    assert code == 0 and out == "2,1,2,1\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "expand", "25", "7")
    assert code == 0
    assert json.loads(out) == {"quotients": [3, 1, 1, 3]}


def test_evaluate_via_expand(capsys):
    code, out, _ = run(capsys, "expand", "--from-quotients", "3,1,1,3")
    assert code == 0 and out == "25/7\n"


def test_predict_parity(capsys):
    code, out, _ = run(capsys, "expand", "25", "7", "--predict-parity")
    assert code == 0 and out == "even\n"


def test_anticont(capsys):
    code, out, _ = run(capsys, "anticont", "3,1,1,3")
    assert code == 0 and out == "0\n"


def test_continuant_and_range(capsys):
    code, out, _ = run(capsys, "continuant", "2,1,2,1")
    assert code == 0 and out == "11\n"
    code, out, _ = run(capsys, "continuant", "2,1,2,1", "--i", "1", "--j", "3")
    assert code == 0 and out == "4\n"


def test_continuant_fib_and_euler(capsys):
    code, out, _ = run(capsys, "continuant", "--fib", "10")
    assert code == 0 and out == "55\n"
    code, out, _ = run(capsys, "continuant", "3,1,1,3", "--euler", "0,1,2,3")
    assert code == 0 and out == "0\n"


def test_type_decompose(capsys):
    code, out, _ = run(capsys, "--format", "json", "type", "2,1,2,1")
    assert code == 0
    data = json.loads(out)
    assert data == {"depth": 0, "marginal": 1, "core": [1, 2], "pivot": 1,
                    "outer": [], "sigma": "even", "value": 4}


def test_type_compose_and_value(capsys):
    code, out, _ = run(capsys, "type", "--marginal", "4", "--pivot", "1")
    assert code == 0 and out == "5,1\n"
    code, out, _ = run(capsys, "type", "--marginal", "1", "--core", "1,2",
                       "--sigma", "odd")
    assert code == 0 and out == "2\n"


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--parity", "even", "--coarse")
    assert code == 0
    assert out == "4 ; \n1 ; 1,2\n2 ; 1,1\n"
    code, out, _ = run(capsys, "--format", "csv", "enumerate", "--n", "2")
    assert code == 0
    assert "1,p.1,even" in out


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "--n", "4", "--s", "0", "--alpha", "11")
    assert code == 0 and out == "3,4\n"


def test_solve_large_prime_modulus_finishes():
    # a residue scan would take 10^9 steps here
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cfasym.cli", "solve", "--n", "4", "--s", "0",
         "--alpha", "1000000007"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=20, check=True)
    assert done.stdout == "82062377,917937626\n"


def test_exceptional(capsys):
    code, out, _ = run(capsys, "exceptional", "--n", "3", "--s", "1")
    assert code == 0 and out == "1,2,3,4,5,6,9,12,13\n"
    code, out, _ = run(capsys, "exceptional", "--n", "4", "--s", "0",
                       "--true-exceptions")
    assert code == 0 and out == "(2,1) (3,1) (3,2)\n"


def test_folded(capsys):
    code, out, _ = run(capsys, "folded", "--b", "1", "--n", "6", "--a", "4",
                       "--normalize-only")
    assert code == 0 and out == "b=4 n=3 a=2 eps=+1\n"
    code, out, _ = run(capsys, "--format", "json", "folded", "--b", "2", "--n", "2",
                       "--a", "1")
    assert code == 0
    data = json.loads(out)
    assert data["form"] == 2 and data["x"] == 1 and data["quotients"] == [2, 1, 1, 1]


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--alpha-max", "40",
                       "--trials", "50", "--seed", "1")
    assert code == 0 and "violations=0" in out


def test_verify_main(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "main", "--n", "4",
                       "--s", "0", "--alpha-max", "30", "--mode", "coarse")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert {tuple(c["core"]) + (c["alpha"],) for c in data["coarse_counterexamples"]} \
        == {(1, 2, 27), (2, 1, 26)}


def test_table_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "table", "--n-max", "2")
    assert code == 0
    assert out.startswith("value,parity,marginal,core,exceptions\n")
    assert "2,even,1,p.1," in out


def test_usage_error_exit_1(capsys):
    assert run(capsys, "expandd")[0] == 1
    assert run(capsys, "solve", "--n", "4")[0] == 1
    assert run(capsys, "expand", "25", "x")[0] == 1


def test_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "expand", "10", "4")
    assert code == 2 and "domain error" in err
    code, _, err = run(capsys, "exceptional", "--n", "2", "--s", "0")
    assert code == 2


def test_violation_exit_3(capsys, monkeypatch):
    real = verifier.verify_main_theorem

    def broken(spec, alpha_max, mode="refined"):
        report = real(spec, alpha_max, mode)
        violation = verifier.ViolationRecord(7, 2, (3, 2), "root_without_type")
        return verifier.VerificationReport(
            kind=report.kind, alpha_min=report.alpha_min, alpha_max=report.alpha_max,
            checked=report.checked, matches=report.matches,
            violations=(violation,), n=report.n, s=report.s, mode=report.mode,
            excluded=report.excluded)

    monkeypatch.setattr(cli.verifier, "verify_main_theorem", broken)
    code, out, _ = run(capsys, "verify", "main", "--n", "4", "--s", "0",
                       "--alpha-max", "20")
    assert code == 3 and "violations=1" in out


def test_verify_enumeration_exit_3_on_a_planted_miss(capsys, planted_miss):
    argv = ("verify", "enumeration", "--max-len", "6", "--max-entry", "4",
            "--value-bound", "6")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines() == [
        "hits=850 types=126 violations=1",
        "  violation missing_from_catalog: alpha=None beta=None expansion=2,1,2,1"]
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 3 and json.loads(out)["violations"] == [
        {"alpha": None, "beta": None, "expansion": [2, 1, 2, 1],
         "kind": "missing_from_catalog"}]
    code, out, _ = run(capsys, "--format", "csv", *argv)
    assert code == 3 and out.endswith("\nmissing_from_catalog,None,None,2.1.2.1\n")


@pytest.mark.parametrize("argv", [
    "continuant",
    "continuant 1,2,3 --euler 1,2",
    "continuant 1,2,3 --euler a,b,c,d",
    "verify identities --alpha-max 5 --trials -3",
    "expand 7",
    "enumerate --n 0",
    "type 0",
    "anticont",
])
def test_main_reports_bad_input_without_raising(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code in (1, 2) and out == ""
    assert err.startswith(("cfasym", "usage:"))


def test_verify_enumeration_refuses_a_large_entry_bound_at_once():
    # refused at the call, before any middle (x, *r) is listed; not a 10^9 loop
    done = subprocess.run(
        [sys.executable, "-m", "cfasym.cli", "verify", "enumeration", "--max-len", "3",
         "--max-entry", "1000000000"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("cfasym: domain error: max_entry must be at most 1000, "
                           "got 1000000000\n")


def test_closed_stdout_exits_141_without_a_traceback():
    # the table's 112 KB fill the pipe, so the child is still writing when
    # its reader leaves after one line, as `cfasym table | head -1` does
    src = str(Path(__file__).resolve().parents[1] / "src")
    with subprocess.Popen([sys.executable, "-m", "cfasym.cli", "table", "--n-max", "40"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": src}) as child:
        assert child.stdout.readline() == "(1, even)  exceptions: none\n"
        child.stdout.close()
        err = child.stderr.read()
    assert err == "" and child.returncode == cli.CLOSED_PIPE_EXIT == 141


@pytest.fixture
def int_digit_limit():
    # Python 3.10.7+ refuses int/str conversions past a digit limit (4,300 by default)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


_NINES = ",".join(["9"] * 5000)  # continuants of about 4,800 digits


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["expand", "--from-quotients", _NINES],
    ["continuant", _NINES],
    ["anticont", "1," + _NINES],
], ids=["evaluate", "continuant", "anticont"])
def test_results_past_the_int_digit_limit_print_exactly(capsys, int_digit_limit, argv, fmt):
    # the CLI lifts the limit for its call only, so a low limit gives the
    # bytes that no limit gives, and is in place again afterwards
    int_digit_limit(0)
    unlimited = run(capsys, "--format", fmt, *argv)
    assert unlimited[0] == 0 and unlimited[2] == ""
    int_digit_limit(640)
    assert run(capsys, "--format", fmt, *argv) == unlimited
    assert sys.get_int_max_str_digits() == 640


def test_fibonacci_past_the_int_digit_limit_prints_all_its_digits(capsys, int_digit_limit):
    int_digit_limit(0)
    digits = str(fibonacci(25000))
    int_digit_limit(640)
    assert len(digits) == 5225
    assert run(capsys, "continuant", "--fib", "25000") == (0, digits + "\n", "")
    assert run(capsys, "--format", "json", "continuant", "--fib", "25000") == (
        0, '{"fibonacci": ' + digits + "}\n", "")
    assert sys.get_int_max_str_digits() == 640


def test_env_format_default(capsys, monkeypatch):
    monkeypatch.setenv("CFASYM_FORMAT", "json")
    code, out, _ = run(capsys, "expand", "25", "7")
    assert code == 0 and json.loads(out) == {"quotients": [3, 1, 1, 3]}
    monkeypatch.setenv("CFASYM_FORMAT", "yaml")
    assert run(capsys, "expand", "25", "7")[0] == 1


def test_csv_unavailable_is_usage_error(capsys):
    assert run(capsys, "--format", "csv", "anticont", "3,1,1,3")[0] == 1


def test_every_operation_reachable(capsys):
    # coverage audit: one invocation per library operation
    invocations = {
        "expand": ["expand", "25", "7"],
        "expand_with_parity": ["expand", "11", "4", "--parity", "even"],
        "evaluate": ["expand", "--from-quotients", "3,1,1,3"],
        "parity_by_inverse": ["expand", "25", "7", "--predict-parity"],
        "continuant_range": ["continuant", "1,2,3"],
        "anticontinuant_range": ["anticont", "5,1"],
        "euler_residual": ["continuant", "2,1,2,1", "--euler", "0,1,1,3"],
        "fibonacci": ["continuant", "--fib", "7"],
        "decompose": ["type", "2,1,2,1"],
        "compose": ["type", "--marginal", "1", "--core", "1,2", "--pivot", "2",
                     "--outer", "1"],
        "type_value": ["type", "--marginal", "1", "--core", "1,2", "--sigma", "even"],
        "enumerate_types": ["enumerate", "--n", "4"],
        "solve_quadratic": ["solve", "--n", "4", "--s", "0", "--alpha", "11"],
        "exceptional_candidates": ["exceptional", "--n", "3", "--s", "1"],
        "candidate_pairs": ["exceptional", "--n", "3", "--s", "1", "--pairs"],
        "true_exceptions": ["exceptional", "--n", "4", "--s", "0", "--true-exceptions"],
        "folded_normalize": ["folded", "--b", "1", "--n", "6", "--a", "4",
                              "--normalize-only"],
        "folded_expand_classify": ["folded", "--b", "2", "--n", "2", "--a", "1"],
        "verify_identities": ["verify", "identities", "--alpha-max", "20",
                               "--trials", "10"],
        "verify_main_theorem": ["verify", "main", "--n", "1", "--s", "0",
                                 "--alpha-max", "30"],
        "verify_enumeration": ["verify", "enumeration", "--max-len", "4", "--max-entry", "3",
                               "--value-bound", "2"],
        "build_table": ["table", "--n-max", "1"],
    }
    for op, argv in invocations.items():
        code, out, err = run(capsys, *argv)
        assert code == 0, (op, err)
        assert out.endswith("\n")


def test_verify_text_counts_unprinted_violations(capsys, monkeypatch):
    real = verifier.verify_main_theorem

    def broken(spec, alpha_max, mode="refined"):
        report = real(spec, alpha_max, mode)
        violations = tuple(verifier.ViolationRecord(7, 2, (3, 2), "root_without_type")
                           for _ in range(25))
        return verifier.VerificationReport(
            kind=report.kind, alpha_min=report.alpha_min, alpha_max=report.alpha_max,
            checked=report.checked, matches=report.matches,
            violations=violations, n=report.n, s=report.s, mode=report.mode,
            excluded=report.excluded)

    monkeypatch.setattr(cli.verifier, "verify_main_theorem", broken)
    argv = ["verify", "main", "--n", "4", "--s", "0", "--alpha-max", "20"]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 3 and "violations=25" in lines[0]
    assert sum(line.startswith("  violation ") for line in lines) == 20
    assert lines[-1] == "  ... and 5 more"
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 3 and len(json.loads(out)["violations"]) == 25
    code, out, _ = run(capsys, "--format", "csv", *argv)
    assert code == 3 and out.count("root_without_type,7,2,3.2\n") == 25


def test_cli_import_leaves_out_numpy_and_the_scanner():
    # only the enumeration oracle needs the scanner, and with it numpy; the
    # records are NamedTuples, and random and json are imported where used.
    # -S keeps site's .pth hooks, which can import random at start, out of
    # the count; site-packages stays on the path so numpy is still findable.
    unread = {"numpy", "cfasym.exhaustive", "dataclasses", "inspect", "random", "json"}
    code = f"import sys, cfasym, cfasym.cli; print(sorted({unread!r} & set(sys.modules)))"
    path = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                            sysconfig.get_path("purelib")])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout == "[]\n"


# The child prints its exit code and the cfasym modules that have run.  A
# registered module that has not run is a LazyLoader stub, not a plain module;
# reading any attribute of one would run it, so the check looks only at types.
_RAN_MODULES = """\
import sys, types
from cfasym.cli import main
code = main(sys.argv[1:])
ran = [n[7:] for n, m in sys.modules.items() if n.startswith("cfasym.") and type(m) is types.ModuleType]
print(code, *sorted(ran), file=sys.stderr)
"""
_START = {"cli", "errors"}
_EXPANSION = _START | {"cf", "continuants"}
_TYPED = _START | {"asymmetry", "continuants"}
_SOLVED = _TYPED | {"cf", "congruence"}


@pytest.mark.parametrize("argv, ran", [
    ("--help", _START),
    ("expand 355 113", _EXPANSION),
    ("--format json expand 25 7 --predict-parity", _EXPANSION),
    ("continuant 2,1,2,1", _START | {"continuants"}),
    ("anticont 3,1,1,3", _START | {"continuants"}),
    ("type 2,1,2,1", _TYPED),
    ("enumerate --n 3", _TYPED),
    ("solve --n 3 --s 1 --alpha 654321", _SOLVED),
    ("--format csv solve --n 3 --s 1 --alpha 654321", _SOLVED),
    ("--format json folded --b 2 --n 2 --a 1", _SOLVED),
    ("exceptional --n 3 --s 1 --certificates", _SOLVED),
    ("verify main --n 4 --s 0 --alpha-max 30", _SOLVED | {"verifier"}),
    ("table --n-max 2", _SOLVED | {"verifier"}),
])
def test_subcommand_runs_only_the_modules_it_reads(argv, ran):
    # -S as above; the scanner, exhaustive, runs only under verify enumeration
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-S", "-c", _RAN_MODULES, *argv.split()],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    code, *modules = done.stderr.splitlines()[-1].split()
    assert code == "0" and modules == sorted(ran)
