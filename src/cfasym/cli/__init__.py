"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification
violations found, and from the console script 141 (128 + SIGPIPE) when
stdout's reader has left, as a shell reports for a filter.  Output format
comes from --format or the CFASYM_FORMAT environment variable (text, json,
csv); results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import NamedTuple

from ..errors import DomainError, render_csv

USAGE_EXIT = 1
DOMAIN_EXIT = 2
VIOLATION_EXIT = 3
CLOSED_PIPE_EXIT = 141  # 128 + SIGPIPE, a shell's status for a filter whose reader left

_FORMATS = ("text", "json", "csv")


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


def _spec_arguments(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, choices=(0, 1), required=True)


_COMMANDS = {  # name: (help, group module)
    "expand": ("expand alpha/beta into quotients", "quotients"),
    "continuant": ("continuant of a sequence or range", "quotients"),
    "anticont": ("anticontinuant of a sequence or range", "quotients"),
    "type": ("decompose a sequence, or compose/value a type", "catalog"),
    "enumerate": ("all extended types achieving a value", "catalog"),
    "solve": ("roots of x^2 + nx + (-1)^s mod alpha", "congruences"),
    "exceptional": ("certified exceptional moduli and pairs", "congruences"),
    "folded": ("normalize and classify b*n^2/(b*a*n - eps)", "congruences"),
    "verify": ("run a verification sweep", "checks"),
    "table": ("types and true exceptions for values 1..n_max", "checks"),
}


def build_parser(argv=None) -> _Parser:
    """The cfasym parser; given argv, only the subcommand it names gets its arguments.

    Every subcommand is registered with its name and help either way, so
    usage, --help and a bad choice read the same.  The named subcommand is
    the first token of argv that is a command name; with none, no
    subcommand gets arguments and no group module is imported, and with
    argv None every one does and every group is imported.  A subcommand's
    handler and arguments are read by name from the group `_COMMANDS`
    gives it: `_cmd_<name>` and `_<name>_arguments`.
    """
    parser = _Parser(prog="cfasym",
                     description="Exact continued-fraction asymmetry toolkit")
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="output format (default: $CFASYM_FORMAT or text)")
    sub = parser.add_subparsers(dest="command", required=True)
    named = None if argv is None else next((t for t in argv if t in _COMMANDS), None)
    for name, (summary, group) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if argv is None or name == named:
            module = importlib.import_module(f"{__name__}.{group}")
            p.set_defaults(func=getattr(module, f"_cmd_{name}"))
            getattr(module, f"_{name}_arguments")(p)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
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
