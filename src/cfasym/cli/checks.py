"""The subcommands that check the theorem (`verifier`, `exhaustive`)."""

from .. import congruence, exhaustive, verifier
from ..errors import DomainError, as_plain
from . import VIOLATION_EXIT, _Result, _seq_str, _spec_arguments

_SHOWN_VIOLATIONS = 20


def _violation_table(violations) -> tuple:
    return (("kind", "alpha", "beta", "expansion"),
            [(v.kind, v.alpha, v.beta, _seq_str(v.expansion or ())) for v in violations])


def _battery(args) -> _Result:
    # --out is refused before the first sweep, and written only after the last
    from pathlib import Path  # only the battery reads it; kept out of start-up

    out = Path(args.out)
    found = next(path for path in (out, *out.parents) if path.exists())
    if not found.is_dir():
        raise DomainError(f"--out {out}: {found} is not a directory")
    battery = verifier.run_battery(args.n_max, args.alpha_max, args.identities_alpha_max,
                                   args.trials, args.seed)
    path = out
    try:  # a write that fails is a domain error too, with the files before it kept
        out.mkdir(parents=True, exist_ok=True)
        for name, text in battery.files.items():
            path = out / name
            path.write_text(text)
    except OSError as exc:
        raise DomainError(f"--out {out}: cannot write {path}: {exc.strerror or exc}") from None
    report = battery.identities
    lines = [f"identities: checked={report.checked} violations={len(report.violations)}"]
    lines += [f"main (n={r.n:+d}, s={r.s}): checked={r.checked} "
              f"violations={len(r.violations)} "
              f"necessary_exclusions={list(r.necessary_exclusions)}" for r in battery.main]
    lines.append(f"table: {len(battery.table.rows)} row groups written to {out / 'table.csv'}")
    lines.append("all sweeps clean" if battery.ok else "VIOLATIONS FOUND")
    violations = [v for r in (battery.identities, *battery.main) for v in r.violations]
    return _Result("\n".join(lines), {"out": str(out), "files": list(battery.files),
                                      "ok": battery.ok},
                   _violation_table(violations), 0 if battery.ok else VIOLATION_EXIT)


def _cmd_verify(args) -> _Result:
    if args.suite == "battery":
        return _battery(args)
    if args.suite == "enumeration":
        report = exhaustive.verify_enumeration(args.max_len, args.max_entry, args.value_bound)
        head = f"hits={report.hits} types={report.types}"
    else:
        if args.suite == "identities":
            report = verifier.verify_identities(args.alpha_max, trials=args.trials,
                                                seed=args.seed)
        else:
            spec = congruence.CongruenceSpec(args.n, args.s)
            report = verifier.verify_main_theorem(spec, args.alpha_max, mode=args.mode)
        head = f"checked={report.checked} matches={report.matches}"
    violations = report.violations
    lines = [f"{head} violations={len(violations)}"]
    for v in violations[:_SHOWN_VIOLATIONS]:
        lines.append(f"  violation {v.kind}: alpha={v.alpha} beta={v.beta} "
                     f"expansion={_seq_str(v.expansion) if v.expansion else '-'}")
    if len(violations) > _SHOWN_VIOLATIONS:
        lines.append(f"  ... and {len(violations) - _SHOWN_VIOLATIONS} more")
    for c in getattr(report, "coarse_counterexamples", ()):
        lines.append(f"  coarse {c.direction}: alpha={c.alpha} beta={c.beta} "
                     f"type=({c.marginal};{_seq_str(c.core)})")
    return _Result("\n".join(lines), report.to_dict(), _violation_table(violations),
                   VIOLATION_EXIT if violations else 0)


def _cmd_table(args) -> _Result:
    doc = verifier.build_table(args.n_max)
    return _Result(doc.to_text().rstrip("\n"), as_plain(doc), (doc.columns, doc.csv_rows()))


def _verify_arguments(p) -> None:
    vsub = p.add_subparsers(dest="suite", required=True)
    pi = vsub.add_parser("identities", help="identity sweep over coprime pairs")
    pi.add_argument("--alpha-max", type=int, default=500)
    pi.add_argument("--trials", type=int, default=10000)
    pi.add_argument("--seed", type=int, default=0)
    pm = vsub.add_parser("main", help="roots versus typed expansions per modulus")
    _spec_arguments(pm)
    pm.add_argument("--alpha-max", type=int, default=2000)
    pm.add_argument("--mode", choices=("refined", "coarse"), default="refined")
    pe = vsub.add_parser("enumeration", help="type catalog versus every bounded sequence")
    pe.add_argument("--max-len", type=int, default=10)
    pe.add_argument("--max-entry", type=int, default=8)
    pe.add_argument("--value-bound", type=int, default=8)
    pb = vsub.add_parser("battery", help="both sweeps and the table, written to --out")
    for flag, default in (("--identities-alpha-max", 500), ("--trials", 10000), ("--seed", 0),
                          ("--alpha-max", 2000), ("--n-max", 6)):
        pb.add_argument(flag, type=int, default=default)
    pb.add_argument("--out", default="reports")


def _table_arguments(p) -> None:
    p.add_argument("--n-max", type=int, default=6)
