#!/usr/bin/env python3
"""Run the full verification battery and write reports.

Sweeps the identity checks, the refined root/type correspondence for every
(n, s) of `main_theorem_specs(n_max)`, and rebuilds the type/exception
table.  JSON and CSV artifacts land in --out, which is written only once
every sweep has run.  Exits 3 if any sweep records a violation.  Exits 2,
as `cfasym` does on a domain error, with one line on stderr and no --out
if a sweep refuses its bounds; a bad --n-max is refused before the first
sweep.  An --out that is, or lies under, an existing file is a usage
error (exit 2, as argparse gives it), refused before the first sweep.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from cfasym.congruence import main_theorem_specs
from cfasym.errors import DomainError
from cfasym.verifier import build_table, verify_identities, verify_main_theorem

_DOMAIN_EXIT = 2  # cfasym.cli.DOMAIN_EXIT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--identities-alpha-max", type=int, default=500)
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha-max", type=int, default=2000)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--out", type=Path, default=Path("reports"))
    args = parser.parse_args()
    # mkdir would refuse it only after every sweep
    found = next(path for path in (args.out, *args.out.parents) if path.exists())
    if not found.is_dir():
        parser.error(f"--out {args.out}: {found} is not a directory")
    try:
        return _sweep(args)
    except DomainError as exc:
        print(f"run_verification: domain error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT


def _sweep(args) -> int:
    specs = main_theorem_specs(args.n_max)  # refuses a bad --n-max before any sweep
    files = {}  # name -> text, written once every sweep has accepted its bounds
    failed = False

    t0 = time.perf_counter()
    report = verify_identities(args.identities_alpha_max, trials=args.trials,
                               seed=args.seed)
    files["identities.json"] = report.to_json() + "\n"
    print(f"identities: checked={report.checked} violations={len(report.violations)} "
          f"[{time.perf_counter() - t0:.1f}s]")
    failed |= not report.ok

    summaries = []
    for spec in specs:
        t0 = time.perf_counter()
        rep = verify_main_theorem(spec, args.alpha_max, mode="refined")
        files[f"main_n{spec.n:+d}_s{spec.s}.json"] = rep.to_json() + "\n"
        print(f"main (n={spec.n:+d}, s={spec.s}): checked={rep.checked} "
              f"violations={len(rep.violations)} "
              f"necessary_exclusions={list(rep.necessary_exclusions)} "
              f"[{time.perf_counter() - t0:.1f}s]")
        summaries.append(rep.to_dict())
        failed |= not rep.ok
    files["main_theorem_all.json"] = json.dumps(summaries, sort_keys=True) + "\n"

    doc = build_table(args.n_max)
    files["table.csv"] = doc.to_csv()
    files["table.txt"] = doc.to_text()

    args.out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (args.out / name).write_text(text)
    print(f"table: {len(doc.rows)} row groups written to {args.out / 'table.csv'}")

    if failed:
        print("VIOLATIONS FOUND", file=sys.stderr)
        return 3
    print("all sweeps clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
