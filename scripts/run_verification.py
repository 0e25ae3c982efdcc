#!/usr/bin/env python3
"""Run the full verification battery and write reports.

Sweeps the identity checks, the refined root/type correspondence for every
(n, s) with 1 <= |n| <= n_max (skipping the excluded s = 0, n = +-2), and
rebuilds the type/exception table.  JSON and CSV artifacts land in --out.
Exits 3 if any sweep records a violation.  Exits 2, as `cfasym` does on a
domain error, with one line on stderr if a sweep refuses its bounds; an
--n-max past TARGET_MAX is refused before the first sweep.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from cfasym.congruence import CongruenceSpec
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
    try:
        return _sweep(args)
    except DomainError as exc:
        print(f"run_verification: domain error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT


def _sweep(args) -> int:
    # the table first: build_table refuses a bad --n-max before any sweep runs
    doc = build_table(args.n_max)
    args.out.mkdir(parents=True, exist_ok=True)
    failed = False

    t0 = time.perf_counter()
    report = verify_identities(args.identities_alpha_max, trials=args.trials,
                               seed=args.seed)
    (args.out / "identities.json").write_text(report.to_json() + "\n")
    print(f"identities: checked={report.checked} violations={len(report.violations)} "
          f"[{time.perf_counter() - t0:.1f}s]")
    failed |= not report.ok

    summaries = []
    for n_abs in range(1, args.n_max + 1):
        for sign in (1, -1):
            for s in (0, 1):
                if s == 0 and n_abs == 2:
                    continue
                spec = CongruenceSpec(sign * n_abs, s)
                t0 = time.perf_counter()
                rep = verify_main_theorem(spec, args.alpha_max, mode="refined")
                name = f"main_n{spec.n:+d}_s{spec.s}.json"
                (args.out / name).write_text(rep.to_json() + "\n")
                print(f"main (n={spec.n:+d}, s={spec.s}): checked={rep.checked} "
                      f"violations={len(rep.violations)} "
                      f"necessary_exclusions={list(rep.necessary_exclusions)} "
                      f"[{time.perf_counter() - t0:.1f}s]")
                summaries.append(rep.to_dict())
                failed |= not rep.ok

    (args.out / "main_theorem_all.json").write_text(
        json.dumps(summaries, sort_keys=True) + "\n")

    (args.out / "table.csv").write_text(doc.to_csv())
    (args.out / "table.txt").write_text(doc.to_text())
    print(f"table: {len(doc.rows)} row groups written to {args.out / 'table.csv'}")

    if failed:
        print("VIOLATIONS FOUND", file=sys.stderr)
        return 3
    print("all sweeps clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
