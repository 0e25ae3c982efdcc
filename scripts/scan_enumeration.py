#!/usr/bin/env python3
"""Exhaustively cross-check the type enumerator against bounded sequences.

Scans every quotient sequence up to the given length and entry bounds,
keeps those whose anticontinuant value is small and nonzero, and confirms
that each one's extended type appears in the enumerated catalog for its
value (`cfasym.verify_enumeration`).  Exits 1 and prints the offenders if
any sequence is missed: the first 50 to stderr, then how many more there are.
Exits 2, as `cfasym` does on a domain error, with one line on stderr if
`verify_enumeration` refuses the bounds.
"""

import argparse
import sys
import time

import cfasym
from cfasym import verify_enumeration

_SHOWN_MISSES = 50
_DOMAIN_EXIT = 2  # cfasym.cli.DOMAIN_EXIT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=int, default=10)
    parser.add_argument("--max-entry", type=int, default=8)
    parser.add_argument("--value-bound", type=int, default=8)
    args = parser.parse_args()

    t0 = time.perf_counter()
    try:
        report = verify_enumeration(args.max_len, args.max_entry, args.value_bound)
    # named through the package: perfbench wraps each cfasym callable in
    # these globals in a function, and except takes no function
    except cfasym.DomainError as exc:
        print(f"scan_enumeration: domain error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    print(f"scanned sequences with length <= {args.max_len}, entries <= "
          f"{args.max_entry}: {report.hits} hits, {report.types} distinct type "
          f"instances [{time.perf_counter() - t0:.1f}s]")
    if not report.ok:
        for v in report.violations[:_SHOWN_MISSES]:
            print(f"MISS seq={v.expansion}: {v.kind.replace('_', ' ')}", file=sys.stderr)
        if len(report.violations) > _SHOWN_MISSES:
            print(f"  ... and {len(report.violations) - _SHOWN_MISSES} more", file=sys.stderr)
        return 1
    print("enumeration complete: no misses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
