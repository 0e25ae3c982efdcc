"""The repo's pytest configuration, run on a throwaway test file in a child pytest."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_a_given_test_that_fails(x):
    assert x != x


def test_a_later_test_that_passes():
    pass
'''


def test_a_failing_given_test_does_not_end_the_run(tmp_path):
    # with filterwarnings = ["error"] alone, the hypothesis plugin's report
    # hook on a failing @given test raises a deprecation warning as an error,
    # and pytest stops with INTERNALERROR before the later test runs
    test_file = tmp_path / "test_given_then_plain.py"
    test_file.write_text(FAILING_GIVEN_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]


def test_a_run_under_python_o_starts(tmp_path):
    # -O strips asserts, and pytest warns at start-up that it cannot rewrite
    # those outside test modules; with filterwarnings = ["error"] alone that
    # warning ends the run before the first test
    test_file = tmp_path / "test_passes.py"
    test_file.write_text("def test_passes():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout.splitlines()[-1]
