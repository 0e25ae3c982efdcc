import importlib
import json
import os
import pkgutil
import re
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


_COMMAND_NAMES = ["expand", "continuant", "anticont", "type", "enumerate", "solve",
                  "exceptional", "folded", "verify", "table"]


@pytest.mark.parametrize("argv", [
    "--help", "", *(f"{name} --help" for name in _COMMAND_NAMES),
    "verify main --help", "verify identities --help", "verify enumeration --help", "verify",
    "bogus", "bogus solve", "--format xml solve --n 3 --s 1 --alpha 7",
    "--format=json solve --n 3 --s 1 --alpha 7", "solve --n 3 --s 1", "expand 25 x",
])
def test_the_one_command_parser_reads_as_the_full_one(capsys, monkeypatch, argv):
    # a start adds arguments to the subcommand argv names only; usage, help
    # and errors must keep their bytes, so compare with every one's added
    monkeypatch.setenv("COLUMNS", "80")
    one_command = run(capsys, *argv.split())
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full())
    assert run(capsys, *argv.split()) == one_command


def test_every_subcommand_is_in_exactly_one_group():
    # the core's table is the one list of subcommands: each resolves by name
    # to its handler and arguments in the group it names and in no other,
    # and every handler of a group is listed there
    groups = {m.name: importlib.import_module(f"cfasym.cli.{m.name}")
              for m in pkgutil.iter_modules(cli.__path__) if m.name != "__main__"}
    assert sorted(cli._COMMANDS) == sorted(_COMMAND_NAMES)
    for name, (_, group) in cli._COMMANDS.items():
        parts = (f"_cmd_{name}", f"_{name}_arguments")
        assert [g for g, module in groups.items()
                if any(hasattr(module, part) for part in parts)] == [group]
        assert all(callable(getattr(groups[group], part)) for part in parts)
    handlers = [attr.removeprefix("_cmd_") for module in groups.values()
                for attr in vars(module) if attr.startswith("_cmd_")]
    assert sorted(handlers) == sorted(cli._COMMANDS)


def test_a_start_builds_only_the_named_subcommands_arguments(capsys):
    argv = ["expand", "355", "113"]
    assert cli.build_parser(argv).parse_args(argv).alpha == 355
    for other in (["solve"], [], ["--format", "json"]):
        with pytest.raises(SystemExit):
            cli.build_parser(other).parse_args(argv)
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: 355 113\n")


def test_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "expand", "10", "4")
    assert code == 2 and "domain error" in err
    code, _, err = run(capsys, "exceptional", "--n", "2", "--s", "0")
    assert code == 2
    # the main sweep starts at alpha = 2: a bound of 1 would be an empty sweep read as clean
    code, out, err = run(capsys, "--format", "json", "verify", "main", "--n", "3", "--s", "1",
                         "--alpha-max", "1")
    assert (code, out) == (2, "")
    assert err == "cfasym: domain error: alpha_max must be an integer >= 2, got 1\n"


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

    monkeypatch.setattr(verifier, "verify_main_theorem", broken)
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


def test_verify_enumeration_refuses_a_long_length_at_once():
    # refused before (max_entry + 1) ** max_len, a power of 3 * 10**10 bits
    # here, is computed; a child with a timeout, so a slow guard fails
    done = subprocess.run(
        [sys.executable, "-m", "cfasym.cli", "verify", "enumeration",
         "--max-len", "10000000000"],
        capture_output=True, text=True, timeout=5,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("cfasym: domain error: bounds (len 10000000000, entry 8) span a "
                           "sequence space of (max_entry + 1)**max_len >= 2**62\n")


_BATTERY = ("verify", "battery", "--identities-alpha-max", "30", "--trials", "50",
            "--alpha-max", "60", "--n-max", "2")
# the script's lines without their timings; the table line names --out
_BATTERY_OUT = """\
identities: checked=327 violations=0
main (n=+1, s=0): checked=20 violations=0 necessary_exclusions=[3]
main (n=+1, s=1): checked=14 violations=0 necessary_exclusions=[5]
main (n=-1, s=0): checked=20 violations=0 necessary_exclusions=[3]
main (n=-1, s=1): checked=14 violations=0 necessary_exclusions=[5]
main (n=+2, s=1): checked=18 violations=0 necessary_exclusions=[2, 7]
main (n=-2, s=1): checked=18 violations=0 necessary_exclusions=[2, 7]
table: 4 row groups written to {out}
all sweeps clean
"""


def test_verify_battery_small_bounds(capsys, tmp_path):
    code, out, err = run(capsys, *_BATTERY, "--out", str(tmp_path / "reports"))
    assert code == 0 and err == ""
    assert out == _BATTERY_OUT.format(out=tmp_path / "reports" / "table.csv")
    mains = [f"main_n{n:+d}_s{s}.json" for n in (1, -1, 2, -2) for s in (0, 1)
             if (abs(n), s) != (2, 0)]
    files = {p.name: p.read_text() for p in (tmp_path / "reports").iterdir()}
    assert sorted(files) == sorted(
        ["identities.json", "main_theorem_all.json", "table.csv", "table.txt", *mains])
    battery = verifier.run_battery(2, 60, 30, 50, 0)
    assert files == battery.files
    code, out, _ = run(capsys, "--format", "json", *_BATTERY, "--out", str(tmp_path / "json"))
    assert code == 0 and json.loads(out) == {"out": str(tmp_path / "json"),
                                             "files": list(battery.files), "ok": True}


def test_verify_battery_reports_violations(capsys, tmp_path, plant_roots):
    plant_roots(7, drop=(2,))
    code, out, err = run(capsys, *_BATTERY, "--out", str(tmp_path))
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "VIOLATIONS FOUND"
    assert [line for line in lines if "violations=0" not in line][:-2] == [
        "main (n=+1, s=0): checked=20 violations=1 necessary_exclusions=[3]"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        verifier.run_battery(2, 60, 30, 50, 0).files)
    code, out, _ = run(capsys, "--format", "csv", *_BATTERY, "--out", str(tmp_path))
    assert code == 3 and out == "kind,alpha,beta,expansion\ntype_without_root,7,2,3.2\n"


def _no_sweep(*args, **kwargs):
    raise AssertionError("a sweep ran")


@pytest.mark.parametrize("flag, value", [("--n-max", "129"), ("--n-max", "0"),
                                         ("--alpha-max", "0"), ("--alpha-max", "1"),
                                         ("--identities-alpha-max", "1"), ("--trials", "-1")])
def test_verify_battery_refuses_a_bound_with_the_domain_exit(capsys, monkeypatch, tmp_path,
                                                             flag, value):
    # one line and the domain exit, before any sweep, and no --out
    for sweep in ("verify_identities", "verify_main_theorem", "build_table"):
        monkeypatch.setattr(verifier, sweep, _no_sweep)
    code, out, err = run(capsys, "verify", "battery", "--out", str(tmp_path / "out"),
                         flag, value)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"cfasym: domain error: .*got {value}\n", err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", ["", "sub"])
def test_verify_battery_refuses_an_out_at_a_file(capsys, monkeypatch, tmp_path, under):
    # a domain error before the first sweep, not a traceback from mkdir after all of them
    monkeypatch.setattr(verifier, "run_battery", _no_sweep)
    found = tmp_path / "reports"
    found.write_text("kept\n")
    out = found / under
    code, stdout, err = run(capsys, "verify", "battery", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"cfasym: domain error: --out {out}: {found} is not a directory\n"
    assert found.read_text() == "kept\n"


def test_verify_battery_turns_a_failed_write_into_the_domain_exit(capsys, tmp_path):
    # one line and the domain exit, not a traceback with the usage exit; the
    # files written before the failed one stay
    out = tmp_path / "reports"
    (out / "table.csv").mkdir(parents=True)
    code, stdout, err = run(capsys, *_BATTERY, "--out", str(out))
    assert code == 2 and stdout == ""
    assert re.fullmatch(rf"cfasym: domain error: --out {re.escape(str(out))}: "
                        rf"cannot write {re.escape(str(out / 'table.csv'))}: .+\n", err)
    names = list(verifier.run_battery(2, 60, 30, 50, 0).files)
    assert sorted(p.name for p in out.iterdir()) == sorted(names[:names.index("table.csv") + 1])


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


def test_the_cli_runs_on_a_python_without_an_int_digit_limit(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 have no int/str digit limit and no function to read it
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run(capsys, "expand", "25", "7") == (0, "3,1,1,3\n", "")


def test_env_format_default(capsys, monkeypatch):
    monkeypatch.setenv("CFASYM_FORMAT", "json")
    code, out, _ = run(capsys, "expand", "25", "7")
    assert code == 0 and json.loads(out) == {"quotients": [3, 1, 1, 3]}
    monkeypatch.setenv("CFASYM_FORMAT", "yaml")
    assert run(capsys, "expand", "25", "7")[0] == 1
    # --format wins over the variable, even one the check would refuse
    assert run(capsys, "--format", "text", "expand", "25", "7")[:2] == (0, "3,1,1,3\n")


def test_csv_unavailable_is_usage_error(capsys):
    assert run(capsys, "--format", "csv", "anticont", "3,1,1,3")[0] == 1


def test_every_operation_reachable(capsys, tmp_path):
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
        "run_battery": [*_BATTERY, "--out", str(tmp_path)],
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

    monkeypatch.setattr(verifier, "verify_main_theorem", broken)
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
    # The scanner, cfasym.exhaustive, is registered as a LazyLoader stub, so
    # the check is that it has not run.  -S keeps site's .pth hooks, which can
    # import random at start, out of the count; site-packages stays on the
    # path so numpy is still findable.  No CLI group module runs either: a
    # start imports only the group of the subcommand it runs.
    unread = {"numpy", "dataclasses", "inspect", "random", "json"}
    code = ("import sys, types, cfasym, cfasym.cli\n"
            f"print(sorted({unread!r} & set(sys.modules)),"
            " type(sys.modules['cfasym.exhaustive']) is types.ModuleType,"
            " [n for n in sys.modules if n.startswith('cfasym.cli.')])")
    path = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                            sysconfig.get_path("purelib")])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout == "[] False []\n"


# The child prints its exit code and the cfasym modules that have run.  A
# registered module that has not run is a LazyLoader stub, not a plain module;
# reading any attribute of one would run it, so the check looks only at types.
# Each case names the one CLI group (cli.quotients, cli.catalog,
# cli.congruences or cli.checks) whose handler it runs.
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
_ROOTS = _START | {"congruence"}  # the root side reads no continued fraction
_SOLVED = _TYPED | {"cf", "congruence"}
_SWEPT = _TYPED | {"congruence", "verifier"}  # cf runs only to expand a violation


@pytest.mark.parametrize("argv, ran", [
    ("--help", _START),
    ("expand 355 113", _EXPANSION | {"cli.quotients"}),
    ("--format json expand 25 7 --predict-parity", _EXPANSION | {"cli.quotients"}),
    ("continuant 2,1,2,1", _START | {"continuants", "cli.quotients"}),
    ("anticont 3,1,1,3", _START | {"continuants", "cli.quotients"}),
    ("type 2,1,2,1", _TYPED | {"cli.catalog"}),
    ("enumerate --n 3", _TYPED | {"cli.catalog"}),
    ("solve --n 3 --s 1 --alpha 654321", _ROOTS | {"cli.congruences"}),
    ("--format csv solve --n 3 --s 1 --alpha 654321", _ROOTS | {"cli.congruences"}),
    ("--format json folded --b 2 --n 2 --a 1", _SOLVED | {"cli.congruences"}),
    ("exceptional --n 3 --s 1 --certificates", _ROOTS | {"cli.congruences"}),
    ("verify main --n 4 --s 0 --alpha-max 30", _SWEPT | {"cli.checks"}),
    ("table --n-max 2", _SWEPT | {"cli.checks"}),
    ("--format json solve --n 3 --s 1 --alpha 654321", _ROOTS | {"cli.congruences"}),
    ("exceptional --n 3 --s 1 --pairs", _ROOTS | {"cli.congruences"}),
    ("exceptional --n 3 --s 1 --true-exceptions", _ROOTS | {"cli.congruences"}),
    ("verify enumeration --max-len 6 --max-entry 4 --value-bound 6",
     _TYPED | {"exhaustive", "cli.checks"}),
    ("verify identities --alpha-max 20 --trials 5",
     _START | {"verifier", "cf", "continuants", "cli.checks"}),
])
def test_subcommand_runs_only_the_modules_it_reads(argv, ran):
    # -S as above; the scanner, exhaustive, runs only under verify enumeration
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-S", "-c", _RAN_MODULES, *argv.split()],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    code, *modules = done.stderr.splitlines()[-1].split()
    assert code == "0" and modules == sorted(ran)
