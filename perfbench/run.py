#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cfasym checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; `cfasym` is imported from its `src`.
One parent drives fresh single-threaded child processes in a closed loop,
one at a time, so no module-level cache carries over from one operation
to the next.  An operation is one launched process: a sweep, a set-up
probe or one CLI query.  Every output is checked; a wrong output, a nonzero
exit or a crash counts as failed and the run goes on.

Workloads (BENCHMARK.json lists the last two, with reasons; README.md has all):
  identity_sweep      verify_identities(500, trials=10000, seed)
  main_theorem_sweep  verify_main_theorem(spec, 2000, "refined") for all 22 specs
  enumeration_oracle  scripts/scan_enumeration.py at its defaults
  cli_queries         a seeded mix of 120 `cfasym` invocations (queries.py)

Each run first launches one unmeasured warm-up.  Then it repeats the
workload's operation (on cli_queries, the whole mix) at least once, and
starts another only while the last one's duration still fits in --seconds.
Untraced, set-up and `cfasym --help` are sampled through the run: on a
sweep, ten set-up probes (processes that stop at the first workload call)
and ten `--help` runs before the operations and ten of each after; on
cli_queries, every query reports its own set-up and a `--help` run follows
every fifth query.

Every time is reported at a nominal machine speed: parent and children
share one CPU, and each child's time is divided by its slowdown, the time
of a fixed reference loop around and during it over REF_NOMINAL_S.

--trace 0 prints the end-to-end metrics; on a sweep workload a "query" is
one sweep process.  --trace 1 alternates untraced and traced operations and
prints per-layer metrics for each module of `cfasym` (see tracer.py) and
the tracing overhead.  The last stdout line is the JSON result; the line
before it is the environment block, and both are also saved under
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import queries
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
clock = tracer.clock

RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed at this
PROBES_BEFORE, PROBES_AFTER = 10, 10  # set-up probes, and `--help` runs, around a sweep
HELP_EVERY = 5  # on cli_queries, a `--help` run after every this many queries
# the console script's body, plus on stderr the end of set-up and, at exit, the peak RSS
REPORT_PEAK = ("import atexit, sys, time\n"
               "atexit.register(lambda: sys.stderr.writelines(\n"
               "    ln for ln in open('/proc/self/status') if ln.startswith('VmHWM')))\n")
CLI = ("-c", REPORT_PEAK + "from cfasym.cli import console_main\n"
       "sys.stderr.write(f'setup_t {time.monotonic()!r}\\n')\nconsole_main()\n")
PEAK = re.compile(r"^VmHWM:\s+(\d+) kB", re.M)
SETUP_T = re.compile(r"^setup_t (\S+)$", re.M)

# Speed normalisation: the machine changes speed by 30-55% for seconds at a
# time, so every time is scaled by a reference loop timed on the child's CPU
# just before and after the child and, while it runs, with it paused.
REF_LOOPS = 120_000     # one reference unit
REF_NOMINAL_S = 0.008   # reported times assume that one unit takes this long
SAMPLE_EVERY_S = 0.5    # a running child is paused for one unit this often

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "query_p50_ms": "ms", "query_p90_ms": "ms", "cold_start_ms": "ms"}
LAYERS = ("verifier", "congruence", "cf", "continuants", "exhaustive", "asymmetry", "cli")
PER_LAYER = {**{f"{layer}.self_s": "s" for layer in LAYERS},
             **{f"{layer}.calls": "count" for layer in LAYERS if layer != "exhaustive"},
             "exhaustive.hits": "count", "asymmetry.distinct_ratio": "ratio",
             "trace.overhead_s": "s"}

# outputs of the acceptance bounds at the commit that added this benchmark
MAIN_THEOREM_CHECKED = 18664
MAIN_THEOREM_SHA256 = "32dbb307b0805de30d8ba95a6f34931137bd70f18f2e051f95a25e38098569c6"
ENUMERATION_HITS, ENUMERATION_TYPES = 609982, 352
SCAN_SUMMARY = re.compile(r"(\d+) hits, (\d+) distinct type instances")


def check_identity_sweep(params: dict, out: dict) -> bool:
    expected = _coprime_pairs(params["max_alpha"]) + params["trials"]
    return out["ok"] is True and out["checked"] == expected


_coprime_pairs = functools.cache(queries.coprime_pairs)


def check_main_theorem_sweep(params: dict, out: dict) -> bool:
    return (len(out["ok"]) == 22 and all(out["ok"]) is True
            and sum(out["checked"]) == MAIN_THEOREM_CHECKED
            and out["sha256"] == MAIN_THEOREM_SHA256)


def scan_summary(out: dict) -> tuple[int, int] | None:
    found = SCAN_SUMMARY.search(out.get("stdout", ""))
    return (int(found[1]), int(found[2])) if found else None


def check_enumeration_oracle(params: dict, out: dict) -> bool:
    return (out["rc"] == 0 and "no misses" in out["stdout"]
            and scan_summary(out) == (ENUMERATION_HITS, ENUMERATION_TYPES))


@dataclass(frozen=True)
class Workload:
    name: str
    harness: str  # the harness.py workload behind one operation
    params: dict = field(default_factory=dict)
    check: Callable[[dict, dict], bool] | None = None


WORKLOADS = {w.name: w for w in (
    Workload("identity_sweep", "identity_sweep", {"max_alpha": 500, "trials": 10000},
             check_identity_sweep),
    Workload("main_theorem_sweep", "main_theorem_sweep", {"n_max": 6, "alpha_max": 2000},
             check_main_theorem_sweep),
    Workload("enumeration_oracle", "enumeration_oracle",
             {"max_len": 10, "max_entry": 8, "value_bound": 8}, check_enumeration_oracle),
    Workload("cli_queries", "cli_query"),
)}


# -- launching children -----------------------------------------------------

def reference() -> float:
    """Time of one reference unit, a fixed pure-Python loop."""
    t0 = clock()
    total = 0
    for i in range(REF_LOOPS):
        total += i % 7
    t1 = clock()
    last_reference[:] = [t1, t1 - t0]
    return t1 - t0


last_reference = [-1.0, 0.0]  # when the last unit ended, and its time


def recent_reference() -> float:
    """The last unit's time if it ended just now, else a new unit's."""
    t_end, took = last_reference
    return took if clock() - t_end < 0.05 else reference()


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the one the reference sees."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass(frozen=True)
class Proc:
    rc: int
    stdout: str
    stderr: str
    t_launch: float
    t_exit: float
    rss_mb: float
    pauses: tuple[tuple[float, float], ...]  # while the reference ran
    slowdown: float  # mean reference unit over REF_NOMINAL_S

    def active(self, t: float) -> float:
        """Time from launch to `t`, less the pauses before `t`, at nominal speed."""
        paused = sum(min(b, t) - a for a, b in self.pauses if a < t)
        return (t - self.t_launch - paused) / self.slowdown

    @property
    def wall(self) -> float:
        return self.active(self.t_exit)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("CFASYM_FORMAT", None)  # the mix sets --format itself
    return env


def launch(argv: list[str], deadline: float, sample: bool = True) -> Proc:
    """Run one child to completion; it is killed at `deadline`.

    A reference unit runs just before the launch and just after the exit
    and, with `sample`, every SAMPLE_EVERY_S while the child is stopped.
    Parent and child share one CPU (`pin_to_one_cpu`), so the stopped
    child loses no time but the pause, which `Proc.active` leaves out.
    The child's peak RSS is the VmHWM it reports at exit: wait4's ru_maxrss
    would also count the parent's memory, which the child holds until exec.
    """
    OUT.mkdir(exist_ok=True)
    refs, pauses = [recent_reference()], []
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = clock()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                if clock() > deadline:
                    proc.kill()
                elif sample:
                    os.kill(proc.pid, signal.SIGSTOP)
                    a = clock()
                    refs.append(reference())
                    pauses.append((a, clock()))
                    os.kill(proc.pid, signal.SIGCONT)
        except BaseException:  # interrupted: take the child down too
            proc.kill()
            raise
        finally:
            os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = clock()
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    refs.append(reference())
    if proc.returncode != 0:
        print(f"child {argv[:4]} exited {proc.returncode}: {stderr[-2000:]}", file=sys.stderr)
    peak = PEAK.search(stderr)
    rss_kb = int(peak[1]) if peak else usage.ru_maxrss
    return Proc(proc.returncode, stdout, stderr, t0, t1, rss_kb / 1024, tuple(pauses),
                statistics.fmean(refs) / REF_NOMINAL_S)


def passes(check, *args) -> bool:
    """A check's verdict; a check that raises on malformed output fails it."""
    try:
        return bool(check(*args))
    except Exception as exc:  # any malformed output is a failed operation
        print(f"check failed with {exc!r}", file=sys.stderr)
        return False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


@dataclass
class Op:
    elapsed: float       # the parent's clock time for the whole operation
    wall: float          # launch to exit, at nominal speed; on a mix, the sum
    rss_mb: float
    setups: list[float] = field(default_factory=list)     # launch to first workload call
    latencies: list[float] = field(default_factory=list)  # per process
    helps: list[float] = field(default_factory=list)      # per `--help` process
    out: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)             # traced only
    own_s: float = 0.0   # traced only: time outside every span


def harness_op(w: Workload, seed: int, tally: Tally, deadline: float, *,
               params: dict | None = None, check: Callable[[dict], bool] | None = None,
               setup_only: bool = False, trace_out: str | None = None) -> Op:
    """One harness.py process; `check` (by default the workload's) judges its output.

    A traced process is not paused for the reference, so its spans hold no pause.
    """
    params = w.params if params is None else params
    if check is None and w.check is not None:
        check = functools.partial(w.check, params)
    argv = [str(HERE / "harness.py"), str(ROOT), w.harness, json.dumps(params), str(seed)]
    argv += ["--setup-only"] * setup_only + (["--trace-out", trace_out] if trace_out else [])
    proc = launch(argv, deadline, sample=not trace_out)
    setups, out, ok = [], {}, False
    if proc.rc == 0:
        try:
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            setups, out = [proc.active(line["setup_t"])], line["out"]
            ok = setup_only or passes(check, out)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            print(f"bad harness output: {exc!r}", file=sys.stderr)
    tally.count(ok)
    op = Op(clock() - proc.t_launch, proc.wall, proc.rss_mb, setups, [proc.wall], out=out)
    if trace_out and ok:
        layers, covered = tracer.layer_totals(tracer.load(trace_out))
        op.layers = {layer: {**v, "self_s": v["self_s"] / proc.slowdown}
                     for layer, v in layers.items()}
        op.own_s = proc.wall - covered / proc.slowdown
    return op


def query_op(q: queries.Query, tally: Tally, deadline: float) -> Op:
    """One `cfasym` process; it reports the end of its set-up on stderr."""
    t0 = clock()
    proc = launch([*CLI, *q.argv], deadline)
    ok = proc.rc == 0 and passes(q.check, proc.stdout)
    tally.count(ok)
    mark = SETUP_T.search(proc.stderr)
    setups = [proc.active(float(mark[1]))] if ok and mark else []
    return Op(clock() - t0, proc.wall, proc.rss_mb, setups, [proc.wall],
              [proc.wall] if q.kind == "help" else [])


def mix_op(w: Workload, mix: list, seed: int, tally: Tally, deadline: float,
           trace: bool = False) -> Op:
    """Every query of the mix, one process at a time; one Op for the whole mix.

    Untraced, a `--help` probe follows every HELP_EVERY queries; it adds to
    `helps` and `setups` only.
    """
    t0 = clock()
    op = Op(0.0, 0.0, 0.0)
    rss = []
    for i, q in enumerate(mix):
        if trace:
            sub = harness_op(w, seed, tally, deadline, params={"argv": list(q.argv)},
                             check=lambda out: out["rc"] == 0 and q.check(out["stdout"]),
                             trace_out=str(OUT / f"trace-q{i}"))
            for layer, v in sub.layers.items():
                acc = op.layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "yields": 0})
                for k in acc:
                    acc[k] += v[k]
            op.own_s += sub.own_s
            sub.helps = sub.latencies if q.kind == "help" else []
        else:
            sub = query_op(q, tally, deadline)
        op.latencies += sub.latencies
        op.helps += sub.helps
        op.setups += sub.setups
        rss.append(sub.rss_mb)
        if not trace and (i + 1) % HELP_EVERY == 0:
            probe = query_op(queries.HELP, tally, deadline)
            op.helps += probe.helps
            op.setups += probe.setups
    op.elapsed = clock() - t0
    op.wall = sum(op.latencies)
    op.rss_mb = statistics.median(rss)
    return op


# -- one run -----------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    values = list(values)
    return float(np.percentile(values, 90)) if len(values) > 1 else float(values[0])


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, dict]:
    """Measure `w` for `seconds`; returns (metrics, tally, raw samples)."""
    tally = Tally()
    start = clock()
    deadline = start + RUN_LIMIT_S
    is_mix = w.name == "cli_queries"
    mix = queries.build_mix(seed) if is_mix else None

    def op(traced: bool, k: int) -> Op:
        if is_mix:
            return mix_op(w, mix, seed, tally, deadline, trace=traced)
        trace_out = str(OUT / f"trace-{w.name}-{k}") if traced else None
        return harness_op(w, seed, tally, deadline, trace_out=trace_out)

    probe_params = {"argv": ["--help"]} if is_mix else None
    setups, helps = [], []

    def probes(count: int) -> None:
        """Set-up probes and `--help` runs around a sweep; a mix has its own."""
        if trace or is_mix:
            return
        for _ in range(count):
            setups.extend(harness_op(w, seed, tally, deadline, setup_only=True).setups)
            helps.extend(query_op(queries.HELP, tally, deadline).helps)

    harness_op(w, seed, tally, deadline, params=probe_params,
               setup_only=True)  # warm-up: bytecode and file caches
    probes(PROBES_BEFORE)
    plain, traced = [], []
    t0 = clock()
    while True:
        next_traced = trace and len(traced) < len(plain)
        if plain and (traced or not trace):
            # start another operation only if it should end within `seconds`
            expected = (traced if next_traced else plain)[-1].elapsed
            if clock() - t0 + expected > seconds or clock() + expected > deadline:
                break
        if next_traced:
            traced.append(op(True, len(traced)))
        else:
            plain.append(op(False, len(plain)))
    probes(PROBES_AFTER)

    setups += [s for o in plain for s in o.setups]
    helps += [h for o in plain for h in o.helps]
    samples = {"op_wall_s": [o.wall for o in plain], "setup_s": setups, "help_s": helps,
               "rss_mb": [o.rss_mb for o in plain]}
    if not trace:
        latencies = [lat for o in plain for lat in o.latencies]
        metrics = {
            "wall_s": median(samples["op_wall_s"]),
            "setup_s": median(setups) if setups else 0.0,
            "peak_rss_mb": median(samples["rss_mb"]),
            "query_p50_ms": 1000 * median(latencies),
            "query_p90_ms": 1000 * p90(latencies),
            "cold_start_ms": 1000 * median(helps) if helps else 0.0,
        }
        return metrics, tally, samples

    good = [o for o in traced if o.layers]
    samples.update(traced_wall_s=[o.wall for o in traced], own_s=[o.own_s for o in good],
                   layers=[o.layers for o in good])
    metrics = {}
    for layer in LAYERS:
        per_op = [o.layers.get(layer, {"self_s": 0.0, "calls": 0, "yields": 0}) for o in good]
        metrics[f"{layer}.self_s"] = median(v["self_s"] for v in per_op) if per_op else 0.0
        key, name = ("yields", "hits") if layer == "exhaustive" else ("calls", "calls")
        metrics[f"{layer}.{name}"] = int(median(v[key] for v in per_op)) if per_op else 0
    summaries = [s for s in (scan_summary(o.out) for o in plain + traced) if s]
    metrics["asymmetry.distinct_ratio"] = summaries[0][1] / summaries[0][0] if summaries else 0.0
    metrics["trace.overhead_s"] = (median(samples["traced_wall_s"])
                                   - median(samples["op_wall_s"]) if traced else 0.0)
    return metrics, tally, samples


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu or platform.machine(),
            "platform": platform.platform(), "seed": seed}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/cfasym/__init__.py", "scripts/scan_enumeration.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a cfasym checkout, missing {missing}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    pin_to_one_cpu()
    metrics, tally, samples = run(w, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    env = environment(args.seed)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "samples": samples}, indent=1) + "\n")
    for k, u in units.items():
        print(f"{w.name} {k} = {metrics[k]:.6g} {u}")
    print(f"{w.name} error_rate = {tally.failed}/{tally.attempted}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
