import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from cfasym import cli
from cfasym.cli import DOMAIN_EXIT
from cfasym.exhaustive import verify_enumeration
from scanning import scan_small_anticontinuants, scan_small_anticontinuants_reference

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
SCAN_SCRIPT = SCRIPTS / "scan_enumeration.py"


def test_scan_enumeration_script_small_bounds(capsys, monkeypatch):
    argv = ["--max-len", "6", "--max-entry", "4", "--value-bound", "6"]
    monkeypatch.setattr(sys, "argv", [str(SCAN_SCRIPT), *argv])
    main = runpy.run_path(str(SCAN_SCRIPT), run_name="scan_enumeration")["main"]
    assert main() == 0
    out = capsys.readouterr().out
    assert "no misses" in out
    found = re.search(r"(\d+) hits, (\d+) distinct type instances", out)
    assert found is not None
    assert int(found[1]) == sum(1 for _ in scan_small_anticontinuants_reference(6, 4, 6))


def test_scan_enumeration_script_defaults():
    # the stock scan, run as a program the way perfbench runs it, and the
    # lines that perfbench parses from it
    done = subprocess.run([sys.executable, str(SCAN_SCRIPT)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert "609982 hits, 352 distinct type instances" in done.stdout
    assert "enumeration complete: no misses" in done.stdout.splitlines()


def test_scan_enumeration_script_refuses_a_bound_with_the_domain_exit():
    # a value bound past TARGET_MAX is refused before any scan; exit 1 would
    # read as "misses found"
    done = subprocess.run([sys.executable, str(SCAN_SCRIPT), "--value-bound", "200"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == DOMAIN_EXIT
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert re.fullmatch(r"scan_enumeration: domain error: .*200\n", done.stderr)


def test_scan_enumeration_script_names_no_cfasym_class(monkeypatch):
    # perfbench's set-up probe replaces every cfasym callable in the script's
    # globals by a wrapper and stops at the first call with an exception of
    # its own; that must reach the caller, not a TypeError from an except
    # clause that names a wrapped class
    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop

    main = runpy.run_path(str(SCAN_SCRIPT), run_name="scan_enumeration")["main"]
    ns = main.__globals__
    for name, obj in list(ns.items()):
        if callable(obj) and (getattr(obj, "__module__", None) or "").startswith("cfasym."):
            ns[name] = stop
    monkeypatch.setattr(sys, "argv", [str(SCAN_SCRIPT)])
    with pytest.raises(Stop):
        main()


def test_scan_enumeration_script_reports_misses(capsys, monkeypatch, planted_miss):
    argv = ["--max-len", "6", "--max-entry", "4", "--value-bound", "6"]
    monkeypatch.setattr(sys, "argv", [str(SCAN_SCRIPT), *argv])
    main = runpy.run_path(str(SCAN_SCRIPT), run_name="scan_enumeration")["main"]
    assert main() == 1
    captured = capsys.readouterr()
    assert "no misses" not in captured.out
    assert re.search(r"^MISS seq=\(.*\): missing from catalog$", captured.err, re.M)


def test_scan_enumeration_script_counts_unprinted_misses(capsys, monkeypatch, no_sigma_odd):
    argv = ["--max-len", "7", "--max-entry", "4", "--value-bound", "6"]
    monkeypatch.setattr(sys, "argv", [str(SCAN_SCRIPT), *argv])
    main = runpy.run_path(str(SCAN_SCRIPT), run_name="scan_enumeration")["main"]
    assert main() == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 51  # 50 of the 64 misses, then the count of the rest
    assert all(line.startswith("MISS seq=") for line in err[:50])
    assert err[-1] == "  ... and 14 more"


_WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None  # so that import numpy raises ImportError
from cfasym import cli, verify_enumeration
from scanning import scan_small_anticontinuants
print(repr(verify_enumeration(6, 4, 6)))
print(repr(list(scan_small_anticontinuants(6, 4, 6))))
cli.main({cli_argv!r})
sys.argv = {script_argv!r}
runpy.run_path(sys.argv[0], run_name="scan_enumeration")["main"]()
"""


def test_enumeration_check_runs_without_numpy(capsys, monkeypatch):
    # numpy is a test dependency only: the library, the CLI and the scan
    # script give the same output in a process where it cannot be imported
    cli_argv = "verify enumeration --max-len 4 --max-entry 3 --value-bound 2".split()
    script_argv = [str(SCAN_SCRIPT), "--max-len", "6", "--max-entry", "4", "--value-bound", "6"]
    print(repr(verify_enumeration(6, 4, 6)))
    print(repr(list(scan_small_anticontinuants(6, 4, 6))))
    cli.main(cli_argv)
    monkeypatch.setattr(sys, "argv", script_argv)
    runpy.run_path(str(SCAN_SCRIPT), run_name="scan_enumeration")["main"]()
    expected = capsys.readouterr().out
    code = _WITHOUT_NUMPY.format(cli_argv=cli_argv, script_argv=script_argv)
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests"))  # tests/ for scanning.py
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    elapsed = re.compile(r"\[\d+\.\ds\]")  # the script's timing
    assert elapsed.sub("", done.stdout) == elapsed.sub("", expected)
    assert len(expected.splitlines()) == 5


CODE_LINES_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts its line

# a comment line does not count


def f(x):
    """A one-line docstring."""
    text = """a multi-line
string that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    def g(self):
        pass
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks(tmp_path, capsys):
    script = runpy.run_path(str(SCRIPTS / "code_lines.py"), run_name="code_lines")
    # import, def f, the two string lines, the two return lines, class C, def g, pass
    assert script["code_lines"](CODE_LINES_SNIPPET) == 9
    (tmp_path / "a.py").write_text(CODE_LINES_SNIPPET)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    (tmp_path / "sub").mkdir()  # a subpackage's modules count, named by their path
    (tmp_path / "sub" / "c.py").write_text("# a comment\nY = 2\nZ = 3\n")
    assert script["main"]([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "a.py          9\nb.py          1\nsub/c.py      2\ntotal        12\n")
