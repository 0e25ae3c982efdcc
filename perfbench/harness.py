"""One benchmark operation in a fresh process.

    python3 harness.py ROOT WORKLOAD PARAMS_JSON SEED [--setup-only] [--trace-out PATH]

Imports `cfasym` from ROOT/src, notes the time of the first workload call
(the end of set-up), runs the workload and prints one JSON line:
{"setup_t": <time.monotonic()>, "out": {...outputs for the parent to check}}.
With --setup-only it stops at the first workload call; with --trace-out it
records spans (see tracer.py) and writes them to PATH.json and PATH.bin.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
import time
from pathlib import Path

# the scan script builds its type catalogs with this before its workload starts
CATALOG_FUNCTIONS = {"enumerate_types"}


class SetupDone(Exception):
    """Raised at the first workload call when only set-up is measured."""


class Run:
    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.setup_t = None

    def mark_setup(self) -> None:
        if self.setup_t is None:
            self.setup_t = time.monotonic()
            if self.setup_only:
                raise SetupDone


def identity_sweep(cfasym, run, params, seed, tracer):
    if tracer:
        tracer.install(cfasym)
    run.mark_setup()
    report = cfasym.verify_identities(params["max_alpha"], trials=params["trials"], seed=seed)
    return {"ok": report.ok, "checked": report.checked}


def main_theorem_sweep(cfasym, run, params, seed, tracer):
    specs = [cfasym.CongruenceSpec(sign * n, s) for n in range(1, params["n_max"] + 1)
             for sign in (1, -1) for s in (0, 1) if not (s == 0 and n == 2)]
    if tracer:
        tracer.install(cfasym)
    run.mark_setup()
    reports = [cfasym.verify_main_theorem(spec, params["alpha_max"], "refined")
               for spec in specs]
    digest = hashlib.sha256("".join(r.to_json() for r in reports).encode()).hexdigest()
    return {"ok": [r.ok for r in reports], "checked": [r.checked for r in reports],
            "sha256": digest}


def enumeration_oracle(cfasym, run, params, seed, tracer):
    script = Path(params["root"]) / "scripts" / "scan_enumeration.py"
    main = runpy.run_path(str(script), run_name="scan_enumeration")["main"]
    ns = main.__globals__
    if tracer:
        tracer.install(cfasym, [ns])
    for name, obj in list(ns.items()):
        module = getattr(obj, "__module__", None)
        if (name not in CATALOG_FUNCTIONS and callable(obj) and isinstance(module, str)
                and module.startswith("cfasym.")):
            ns[name] = _marking(obj, run)
    sys.argv = [str(script), "--max-len", str(params["max_len"]),
                "--max-entry", str(params["max_entry"]),
                "--value-bound", str(params["value_bound"])]
    return _captured(main)


def cli_query(cfasym, run, params, seed, tracer):
    from cfasym.cli import console_main
    run.mark_setup()
    ns = {"console_main": console_main}
    if tracer:
        tracer.install(cfasym, [ns])
    sys.argv = ["cfasym", *params["argv"]]
    return _captured(ns["console_main"])


def _marking(fn, run):
    def first_call_marks_setup(*args, **kwargs):
        run.mark_setup()
        return fn(*args, **kwargs)
    return first_call_marks_setup


def _captured(entry) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = entry()
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "stdout": buf.getvalue()}


WORKLOADS = {f.__name__: f for f in (identity_sweep, main_theorem_sweep,
                                     enumeration_oracle, cli_query)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("params")
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import cfasym
    if not Path(cfasym.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"cfasym imported from {cfasym.__file__}, not {src}")

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
    run = Run(args.setup_only)
    params = dict(json.loads(args.params), root=str(args.root))
    try:
        out = WORKLOADS[args.workload](cfasym, run, params, args.seed, tracer)
    except SetupDone:
        out = {}
    if tracer:
        tracer.dump(args.trace_out)
    print(json.dumps({"setup_t": run.setup_t, "out": out}))
    with open("/proc/self/status") as status:  # peak RSS, for the parent
        sys.stderr.writelines(ln for ln in status if ln.startswith("VmHWM"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
