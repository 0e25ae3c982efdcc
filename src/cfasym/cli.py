"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification
violations found, and from the console script 141 (128 + SIGPIPE) when
stdout's reader has left, as a shell reports for a filter.  Output format
comes from --format or the CFASYM_FORMAT environment variable (text, json,
csv); results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from . import asymmetry, cf, congruence, continuants, verifier
from .errors import DomainError, as_plain, render_csv

USAGE_EXIT = 1
DOMAIN_EXIT = 2
VIOLATION_EXIT = 3
CLOSED_PIPE_EXIT = 141  # 128 + SIGPIPE, a shell's status for a filter whose reader left

_FORMATS = ("text", "json", "csv")
_SHOWN_VIOLATIONS = 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise DomainError(f"expected comma-separated integers, got {text!r}")


def _seq_str(q) -> str:
    return ",".join(str(e) for e in q)


class _Result(NamedTuple):
    text: str
    payload: object
    table: tuple | None = None  # (columns, rows), for subcommands with CSV output
    exit_code: int = 0


def _scalar(key: str, value: int) -> _Result:
    return _Result(str(value), {key: value})


def _refuse_unread(use: str, flags) -> None:
    """Refuse the first given flag of `flags`, (flag, given) pairs that `use` does not read."""
    for flag, given in flags:
        if given:
            raise DomainError(f"{flag} does not apply with {use}")


def _cmd_expand(args) -> _Result:
    # three uses: evaluate --from-quotients; predict the length parity of
    # ALPHA BETA; expand ALPHA BETA at --parity
    if args.from_quotients is not None:
        _refuse_unread("--from-quotients", (("a pair ALPHA BETA", args.alpha is not None),
                                            ("--predict-parity", args.predict_parity),
                                            ("--parity", args.parity is not None)))
        alpha, beta = cf.evaluate(_parse_sequence(args.from_quotients))
        return _Result(f"{alpha}/{beta}", {"alpha": alpha, "beta": beta})
    if args.alpha is None or args.beta is None:
        raise DomainError("expand needs ALPHA BETA or --from-quotients")
    if args.predict_parity:
        _refuse_unread("--predict-parity", (("--parity", args.parity is not None),))
        pred = cf.parity_by_inverse(args.alpha, args.beta)
        return _Result(pred.predicted_parity, as_plain(pred))
    if args.parity in (None, "conv"):
        q = cf.expand(args.alpha, args.beta)
    else:
        q = cf.expand_with_parity(args.alpha, args.beta, args.parity)
    return _Result(_seq_str(q), {"quotients": list(q)})


def _cmd_continuant(args) -> _Result:
    # three uses: a Fibonacci number from --fib; the --euler residual of a
    # SEQUENCE; the continuant of a SEQUENCE over --i..--j
    range_flags = (("--i", args.i is not None), ("--j", args.j is not None))
    if args.fib is not None:
        _refuse_unread("--fib", (("a SEQUENCE", args.sequence is not None),
                                 ("--euler", args.euler is not None), *range_flags))
        return _scalar("fibonacci", continuants.fibonacci(args.fib))
    if args.sequence is None:
        raise DomainError("continuant needs a SEQUENCE or --fib")
    q = _parse_sequence(args.sequence)
    if args.euler is not None:
        _refuse_unread("--euler", range_flags)
        indices = _parse_sequence(args.euler)
        if len(indices) != 4:
            raise DomainError(f"--euler needs four indices K,L,M,N, got {args.euler!r}")
        k, l, m, n = indices
        return _scalar("euler_residual", continuants.euler_residual(q, k, l, m, n))
    j = len(q) - 1 if args.j is None else args.j
    return _scalar("continuant", continuants.continuant_range(q, args.i or 0, j))


def _cmd_anticont(args) -> _Result:
    q = _parse_sequence(args.sequence)
    j = len(q) - 1 if args.j is None else args.j
    return _scalar("anticontinuant", continuants.anticontinuant_range(q, args.i, j))


def _cmd_type(args) -> _Result:
    # three uses: value a type from --marginal, --core and --sigma; compose one
    # from --marginal, --core, --pivot and --outer, whose length fixes sigma;
    # decompose a SEQUENCE.  A flag that the chosen use would not read is an
    # error, not silently dropped.
    if args.marginal is not None:
        _refuse_unread("--marginal", (("a SEQUENCE", args.sequence is not None),))
        core = _parse_sequence(args.core) if args.core else ()
        if args.pivot is None:
            if args.outer is not None:
                raise DomainError("--outer needs --pivot")
            t = asymmetry.ExtendedAsymmetryType(args.marginal, core, args.sigma or "even")
            return _scalar("value", asymmetry.type_value(t))
        if args.sigma is not None:
            raise DomainError("--sigma does not apply with --pivot: "
                              "the length of --outer fixes it")
        outer = _parse_sequence(args.outer) if args.outer else ()
        q = asymmetry.compose(asymmetry.AsymmetryDecomposition(
            depth=len(outer), c=args.marginal, core=core, pivot=args.pivot, outer=outer))
        return _Result(_seq_str(q), {"quotients": list(q)})
    for flag, value in (("--core", args.core), ("--sigma", args.sigma),
                        ("--pivot", args.pivot), ("--outer", args.outer)):
        if value is not None:
            raise DomainError(f"{flag} needs --marginal")
    if args.sequence is None:
        raise DomainError("type needs a SEQUENCE, or --marginal/--core/--sigma, "
                          "or --marginal/--core/--pivot/--outer")
    q = _parse_sequence(args.sequence)
    dec = asymmetry.decompose(q)
    payload = {"depth": dec.depth, "marginal": dec.c, "core": list(dec.core),
               "pivot": dec.pivot, "outer": list(dec.outer), "sigma": dec.sigma}
    if dec.c != 0:
        payload["value"] = asymmetry.type_value(asymmetry.extended_type(dec))
    else:
        payload["value"] = 0
    text = (f"depth={dec.depth} marginal={dec.c} core={_seq_str(dec.core)} "
            f"pivot={dec.pivot} sigma={dec.sigma} value={payload['value']}")
    return _Result(text, payload)


def _cmd_enumerate(args) -> _Result:
    catalog = asymmetry.enumerate_types(args.n, args.parity)
    if args.coarse:
        columns, key = ("marginal", "core"), "coarse"
        found = [(c, list(core)) for c, core in catalog.coarse_pairs()]
        found += [(f.c, f.display_core()) for f in catalog.coarse_families()]
    else:
        columns, key = ("marginal", "core", "sigma"), "types"
        found = [(t.c, list(t.core), t.sigma) for t in catalog.members()]
        found += [(f.c, f.display_core(), f.sigma) for f in catalog.family_members()]
    # a finite type's core is a list of entries, a family's its pattern text like "p,1"
    cells = [(c, core if isinstance(core, str) else _seq_str(core), *rest)
             for c, core, *rest in found]
    return _Result("\n".join(" ; ".join(map(str, r)) for r in cells),
                   {"target": args.n, key: [dict(zip(columns, r)) for r in found]},
                   (columns, cells))


def _cmd_solve(args) -> _Result:
    spec = congruence.CongruenceSpec(args.n, args.s)
    roots = congruence.solve_quadratic(spec, args.alpha)
    return _Result(_seq_str(roots), {"alpha": args.alpha, "roots": roots},
                   (("root",), [(r,) for r in roots]))


def _cmd_exceptional(args) -> _Result:
    # four uses: the moduli, their --certificates, their solved --pairs, or
    # the --true-exceptions among those pairs; --single-sign serves the last two
    uses = [flag for flag, given in (("--pairs", args.pairs),
                                     ("--true-exceptions", args.true_exceptions),
                                     ("--certificates", args.certificates)) if given]
    if len(uses) > 1:
        raise DomainError(f"{uses[1]} does not apply with {uses[0]}")
    if args.single_sign and not (args.pairs or args.true_exceptions):
        raise DomainError("--single-sign needs --pairs or --true-exceptions")
    spec = congruence.CongruenceSpec(args.n, args.s)
    if args.true_exceptions or args.pairs:
        find = congruence.true_exceptions if args.true_exceptions else congruence.candidate_pairs
        pairs = find(spec, include_negated=not args.single_sign)
        return _Result(" ".join(f"({a},{b})" for a, b in pairs),
                       {"pairs": [list(p) for p in pairs]}, (("alpha", "beta"), pairs))
    cands = congruence.exceptional_candidates(spec)
    if args.certificates:
        payload = {str(m): [as_plain(c) for c in certs] for m, certs in cands.items()}
        text = "\n".join(
            f"{m}: " + "; ".join(
                c.condition + (f"({c.witness})" if c.witness is not None else "")
                for c in certs)
            for m, certs in cands.items())
        return _Result(text, payload)
    moduli = list(cands)
    return _Result(_seq_str(moduli), {"moduli": moduli}, (("modulus",), [(m,) for m in moduli]))


def _cmd_folded(args) -> _Result:
    params = congruence.FoldedParams(args.b, args.n, args.a, args.eps)
    normalized = congruence.folded_normalize(params)
    if args.normalize_only:
        return _Result(f"b={normalized.b} n={normalized.n} a={normalized.a} "
                       f"eps={normalized.epsilon:+d}", as_plain(normalized))
    seq, form = congruence.folded_expand_classify(normalized)
    payload = {"alpha": normalized.alpha, "beta": normalized.beta,
               "quotients": list(seq), **as_plain(form)}
    return _Result(f"{_seq_str(seq)} form={form.form} x={form.x} pivot={form.pivot}",
                   payload)


def _cmd_verify(args) -> _Result:
    if args.suite == "enumeration":
        report = verifier.verify_enumeration(args.max_len, args.max_entry, args.value_bound)
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
    rows = [(v.kind, v.alpha, v.beta, _seq_str(v.expansion or ())) for v in violations]
    return _Result("\n".join(lines), report.to_dict(),
                   (("kind", "alpha", "beta", "expansion"), rows),
                   VIOLATION_EXIT if violations else 0)


def _cmd_table(args) -> _Result:
    doc = verifier.build_table(args.n_max)
    return _Result(doc.to_text().rstrip("\n"), as_plain(doc), (doc.columns, doc.csv_rows()))


def build_parser() -> _Parser:
    parser = _Parser(prog="cfasym",
                     description="Exact continued-fraction asymmetry toolkit")
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="output format (default: $CFASYM_FORMAT or text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand alpha/beta into quotients")
    p.add_argument("alpha", type=int, nargs="?")
    p.add_argument("beta", type=int, nargs="?")
    p.add_argument("--parity", choices=("conv", "even", "odd"))
    p.add_argument("--predict-parity", action="store_true",
                   help="predict the selected length parity from the inverse of beta")
    p.add_argument("--from-quotients", metavar="SEQ",
                   help="evaluate a quotient sequence back to alpha/beta")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("continuant", help="continuant of a sequence or range")
    p.add_argument("sequence", nargs="?")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--fib", type=int, help="return the k-th Fibonacci number")
    p.add_argument("--euler", metavar="K,L,M,N",
                   help="residual of the continuant product identity")
    p.set_defaults(func=_cmd_continuant)

    p = sub.add_parser("anticont", help="anticontinuant of a sequence or range")
    p.add_argument("sequence")
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int)
    p.set_defaults(func=_cmd_anticont)

    p = sub.add_parser("type", help="decompose a sequence, or compose/value a type")
    p.add_argument("sequence", nargs="?")
    p.add_argument("--marginal", type=int)
    p.add_argument("--core")
    p.add_argument("--sigma", choices=("even", "odd"))
    p.add_argument("--pivot", type=int)
    p.add_argument("--outer")
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("enumerate", help="all extended types achieving a value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    p.add_argument("--coarse", action="store_true",
                   help="print the sigma-even slice without sigma")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve", help="roots of x^2 + nx + (-1)^s mod alpha")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exceptional", help="certified exceptional moduli and pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--pairs", action="store_true",
                   help="solved pairs over the exceptional moduli")
    p.add_argument("--true-exceptions", action="store_true",
                   help="pairs whose expansions never reach the target value")
    p.add_argument("--single-sign", action="store_true",
                   help="use only the given sign of n, not both")
    p.add_argument("--certificates", action="store_true")
    p.set_defaults(func=_cmd_exceptional)

    p = sub.add_parser("folded", help="normalize and classify b*n^2/(b*a*n - eps)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--eps", type=int, choices=(1, -1), default=1)
    p.add_argument("--normalize-only", action="store_true")
    p.set_defaults(func=_cmd_folded)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.set_defaults(func=_cmd_verify)
    vsub = p.add_subparsers(dest="suite", required=True)
    pi = vsub.add_parser("identities", help="identity sweep over coprime pairs")
    pi.add_argument("--alpha-max", type=int, default=500)
    pi.add_argument("--trials", type=int, default=10000)
    pi.add_argument("--seed", type=int, default=0)
    pm = vsub.add_parser("main", help="roots versus typed expansions per modulus")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--s", type=int, choices=(0, 1), required=True)
    pm.add_argument("--alpha-max", type=int, default=2000)
    pm.add_argument("--mode", choices=("refined", "coarse"), default="refined")
    pe = vsub.add_parser("enumeration", help="type catalog versus every bounded sequence")
    pe.add_argument("--max-len", type=int, default=10)
    pe.add_argument("--max-entry", type=int, default=8)
    pe.add_argument("--value-bound", type=int, default=8)

    p = sub.add_parser("table", help="types and true exceptions for values 1..n_max")
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    # results are exact integers of any size, but Python 3.10.7+ refuses
    # int/str conversions past 4,300 digits: lift the limit for this call only
    limit = getattr(sys, "get_int_max_str_digits", None)
    saved = limit() if limit else None
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT

    fmt = args.format or os.environ.get("CFASYM_FORMAT", "text")
    if fmt not in _FORMATS:
        print(f"cfasym: error: bad CFASYM_FORMAT {fmt!r}", file=sys.stderr)
        return USAGE_EXIT

    try:
        result = args.func(args)
    except DomainError as exc:
        print(f"cfasym: domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT

    if fmt == "json":
        import json  # only JSON output reads it; kept out of start-up

        print(json.dumps(result.payload, sort_keys=True))
    elif fmt == "csv":
        if result.table is None:
            print("cfasym: error: csv output is not available for this subcommand",
                  file=sys.stderr)
            return USAGE_EXIT
        sys.stdout.write(render_csv(*result.table))
    else:
        print(result.text)
    return result.exit_code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output goes nowhere, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE_EXIT
    sys.exit(code)


if __name__ == "__main__":
    console_main()
