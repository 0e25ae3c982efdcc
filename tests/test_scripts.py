import re
import runpy
import sys
from pathlib import Path

from cfasym.exhaustive import scan_small_anticontinuants_reference

SCAN_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scan_enumeration.py"


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


def test_scan_enumeration_script_reports_misses(capsys, monkeypatch, planted_miss):
    argv = ["--max-len", "6", "--max-entry", "4", "--value-bound", "6"]
    monkeypatch.setattr(sys, "argv", [str(SCAN_SCRIPT), *argv])
    main = runpy.run_path(str(SCAN_SCRIPT), run_name="scan_enumeration")["main"]
    assert main() == 1
    captured = capsys.readouterr()
    assert "no misses" not in captured.out
    assert re.search(r"^MISS seq=\(.*\): missing from catalog$", captured.err, re.M)
