"""Self-tests of the benchmark, at tiny bounds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY_IDENTITY = {"max_alpha": 40, "trials": 60}


def tiny_identity(check=run.check_identity_sweep) -> run.Workload:
    return run.Workload("identity_sweep", "identity_sweep", TINY_IDENTITY, check)


def test_identity_check_matches_the_acceptance_count():
    params = run.WORKLOADS["identity_sweep"].params
    assert run.check_identity_sweep(params, {"ok": True, "checked": 86115})
    assert not run.check_identity_sweep(params, {"ok": True, "checked": 86114})
    assert not run.check_identity_sweep(params, {"ok": False, "checked": 86115})


def test_sweep_checks_reject_corrupted_outputs():
    main = {"ok": [True] * 22, "checked": [848] * 21 + [856], "sha256": run.MAIN_THEOREM_SHA256}
    assert run.check_main_theorem_sweep({}, main)
    assert not run.check_main_theorem_sweep({}, {**main, "sha256": "0" * 64})
    assert not run.check_main_theorem_sweep({}, {**main, "ok": [True] * 21 + [False]})
    assert not run.check_main_theorem_sweep({}, {**main, "checked": [848] * 21 + [857]})
    scan = {"rc": 0, "stdout": "scanned ...: 609982 hits, 352 distinct type instances [1s]\n"
                               "enumeration complete: no misses\n"}
    assert run.check_enumeration_oracle({}, scan)
    assert not run.check_enumeration_oracle({}, {**scan, "rc": 1})
    assert not run.check_enumeration_oracle({}, {**scan, "stdout": scan["stdout"].replace("352", "351")})


@pytest.fixture
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "PROBES_BEFORE", 2)
    monkeypatch.setattr(run, "PROBES_AFTER", 1)


def test_corrupted_output_is_counted_and_the_run_goes_on(few_probes):
    def corrupted(params, out):
        return run.check_identity_sweep(params, {**out, "checked": out["checked"] + 1})

    metrics, tally, samples = run.run(tiny_identity(corrupted), seed=1, seconds=0, trace=False)
    ops = len(samples["op_wall_s"])
    assert ops >= 1
    assert tally.failed == ops  # every sweep; the probes and --help pass
    assert tally.attempted == 1 + 2 * (run.PROBES_BEFORE + run.PROBES_AFTER) + ops
    assert metrics["wall_s"] > 0


def test_clean_tiny_run_has_no_failures(few_probes):
    metrics, tally, samples = run.run(tiny_identity(), seed=2, seconds=0, trace=False)
    assert tally.failed == 0
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert len(samples["setup_s"]) == 3 + len(samples["op_wall_s"])


def covered_union(start, end, parent) -> float:
    """Length of the union of the top-level spans, by merging intervals."""
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(start[parent < 0], end[parent < 0])):
        total += max(0.0, e - max(s, reach))
        reach = max(reach, e)
    return total


def test_layer_self_times_and_own_time_add_up_to_traced_wall(tmp_path):
    trace_out = str(tmp_path / "spans")
    op = run.harness_op(tiny_identity(), 3, run.Tally(), run.clock() + 60, trace_out=trace_out)
    assert op.layers, "traced operation failed"
    spans = tracer.load(trace_out)
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    nested = parent >= 0
    # every child lies inside its parent, so no self time is negative
    assert np.all(start[nested] >= start[parent[nested]])
    assert np.all(end[nested] <= end[parent[nested]])
    # the time the layers cover is the union of the top-level spans
    assert tracer.layer_totals(spans)[1] == pytest.approx(covered_union(start, end, parent))
    assert op.own_s > 0
    total = sum(v["self_s"] for v in op.layers.values()) + op.own_s
    assert total == pytest.approx(op.latencies[0], abs=1e-6)
    pairs = queries.coprime_pairs(TINY_IDENTITY["max_alpha"])
    assert op.layers["verifier"]["calls"] == 1
    assert op.layers["cf"]["calls"] == 3 * pairs
    assert op.layers["continuants"]["calls"] == 3 * pairs + 3 * TINY_IDENTITY["trials"]
    assert op.layers["congruence"]["calls"] == 0


def test_active_time_leaves_out_pauses_and_scales_to_nominal_speed():
    proc = run.Proc(0, "", "", t_launch=10.0, t_exit=14.0, rss_mb=1.0,
                    pauses=((11.0, 11.5), (12.0, 12.5)), slowdown=1.5)
    assert proc.wall == pytest.approx(3.0 / 1.5)
    assert proc.active(11.2) == pytest.approx(1.0 / 1.5)  # inside the first pause
    assert proc.active(10.5) == pytest.approx(0.5 / 1.5)


def test_a_long_child_is_paused_for_the_reference_and_finishes():
    spin = "import time\nt = time.monotonic()\nwhile time.monotonic() - t < 1.2: pass\nprint('done')"
    proc = run.launch(["-c", spin], run.clock() + 60)
    assert proc.rc == 0 and proc.stdout == "done\n"
    assert len(proc.pauses) >= 1
    assert proc.slowdown > 0


def test_generator_resumes_are_spans():
    t = tracer.Tracer()

    def scan(n):
        for i in range(n):
            yield i

    traced = t.wrap(scan, "exhaustive")
    assert list(traced(3)) == [0, 1, 2]
    assert list(t.calls) == [1] and list(t.yields) == [3]
    assert len(t.start) == 1 + 4  # the call, three yielding resumes, the final one
    assert all(p == -1 for p in t.parent)


def test_mix_composition_is_fixed_and_seeded():
    a, b = queries.build_mix(5), queries.build_mix(5)
    assert [q.argv for q in a] == [q.argv for q in b]
    assert len(a) >= 100
    kinds = [q.kind for q in a]
    assert kinds.count("solve") == queries.LARGE_SOLVES == len(a) // 4
    assert kinds.count("help") >= 1
    assert {q.argv[1] for q in a if q.argv[0] == "--format"} == {"text", "json", "csv"}
    assert sorted(kinds) == sorted(q.kind for q in queries.build_mix(6))


def test_mix_checks_accept_real_outputs_and_reject_corrupted_ones(monkeypatch):
    from cfasym.cli import console_main

    loose = {"help", "enumerate", "table", "exceptional"}  # checks that read only part
    for q in queries.build_mix(0):
        if q.kind == "solve":
            continue  # large moduli: slow in-process; the same check runs in solve_small
        buf = io.StringIO()
        monkeypatch.setattr(sys, "argv", ["cfasym", *q.argv])
        with redirect_stdout(buf), pytest.raises(SystemExit) as exc:
            console_main()
        assert exc.value.code == 0, q.argv
        out = buf.getvalue()
        assert q.check(out), q.argv
        if q.kind not in loose:
            assert not run.passes(q.check, out.rstrip("\n") + "7\n"), q.argv


def test_no_private_cfasym_name_is_used():
    for path in HERE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cfasym"):
                assert not any(a.name.startswith("_") for a in node.names), path
                assert not any(part.startswith("_") for part in node.module.split(".")), path
            if isinstance(node, ast.Attribute):
                chain, base = [node.attr], node.value
                while isinstance(base, ast.Attribute):
                    chain.append(base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id == "cfasym":
                    assert not any(a.startswith("_") and not a.startswith("__")
                                   for a in chain), (path, chain)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                name = str(node.args[1].value)
                assert not name.startswith("_") or name.startswith("__"), (path, name)


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
