"""The package surface: `import cfasym` registers its submodules without running them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfasym

SUBMODULES = ["asymmetry", "cf", "congruence", "continuants", "errors", "exhaustive",
              "verifier"]
ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> str:
    src = str(ROOT / "src")
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True).stdout


def test_import_registers_every_submodule_and_runs_none():
    # a tracer that wraps the cfasym.* modules in sys.modules finds all seven
    # right after `import cfasym`; a module that has not run is a LazyLoader
    # stub, not a plain module
    out = run_fresh("import sys, types, cfasym\n"
                    "print(sorted(n for n in sys.modules if n.startswith('cfasym.')))\n"
                    "print(sorted(n for n, m in sys.modules.items()\n"
                    "             if n.startswith('cfasym') and type(m) is types.ModuleType))")
    assert out == f"{[f'cfasym.{m}' for m in SUBMODULES]}\n['cfasym']\n"


def test_every_export_is_its_owner_modules_attribute():
    assert len(cfasym.__all__) == 42 and cfasym.__all__ == sorted(cfasym.__all__)
    owners = set()
    for name in cfasym.__all__:
        obj = getattr(cfasym, name)
        owner = sys.modules[obj.__module__]
        assert getattr(owner, name) is obj and getattr(cfasym, owner.__name__[7:]) is owner
        owners.add(owner.__name__[7:])
    assert sorted(owners) == SUBMODULES


def test_star_import_binds_every_export():
    out = run_fresh("from cfasym import *\nimport cfasym\n"
                    "print([n for n in cfasym.__all__ if globals().get(n) is not getattr(cfasym, n)],"
                    " len(cfasym.__all__))")
    assert out == "[] 42\n"


def test_dir_lists_every_export():
    assert set(cfasym.__all__) <= set(dir(cfasym))
    assert set(SUBMODULES) <= set(dir(cfasym))


@pytest.mark.parametrize("name", ["no_such_name", "__module__"])
def test_an_unknown_name_raises_attribute_error(name):
    # the benchmark harness reads getattr(obj, "__module__", None) off the package
    assert getattr(cfasym, name, None) is None
    with pytest.raises(AttributeError, match=f"module 'cfasym' has no attribute '{name}'"):
        getattr(cfasym, name)


def test_the_root_side_runs_only_errors_and_congruence():
    # the roots and the certified moduli need no continued fraction, so
    # asymmetry, cf and continuants stay LazyLoader stubs through all four
    out = run_fresh("import sys, types\n"
                    "from cfasym import congruence\n"
                    "spec = congruence.CongruenceSpec(3, 1)\n"
                    "congruence.solve_quadratic(spec, 654321)\n"
                    "congruence.exceptional_candidates(spec)\n"
                    "congruence.candidate_pairs(spec)\n"
                    "congruence.true_exceptions(spec)\n"
                    "print(sorted(n for n, m in sys.modules.items()\n"
                    "             if n.startswith('cfasym.') and type(m) is types.ModuleType))")
    assert out == "['cfasym.congruence', 'cfasym.errors']\n"


def test_the_enumeration_script_runs_only_the_scanner_and_the_type_theory():
    # the benchmark's path: the check lives beside its scanner, which reads
    # asymmetry at call time, so neither the verifier nor the root finder runs
    script = ROOT / "scripts" / "scan_enumeration.py"
    out = run_fresh("import runpy, sys, types\n"
                    f"sys.argv = [{str(script)!r}, '--max-len', '6', '--max-entry', '4',"
                    " '--value-bound', '6']\n"
                    "code = runpy.run_path(sys.argv[0], run_name='scan_enumeration')['main']()\n"
                    "print(code, sorted(n for n, m in sys.modules.items()\n"
                    "                   if n.startswith('cfasym.') and type(m) is types.ModuleType))")
    assert out.splitlines()[1:] == ["enumeration complete: no misses",
                                    "0 ['cfasym.asymmetry', 'cfasym.continuants', "
                                    "'cfasym.errors', 'cfasym.exhaustive']"]
