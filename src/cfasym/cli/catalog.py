"""The subcommands over asymmetry types: type, enumerate (`asymmetry`)."""

from .. import asymmetry
from ..errors import DomainError
from . import _Result, _parse_sequence, _refuse_unread, _scalar, _seq_str


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


def _type_arguments(p) -> None:
    p.add_argument("sequence", nargs="?")
    p.add_argument("--marginal", type=int)
    p.add_argument("--core")
    p.add_argument("--sigma", choices=("even", "odd"))
    p.add_argument("--pivot", type=int)
    p.add_argument("--outer")


def _enumerate_arguments(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    p.add_argument("--coarse", action="store_true",
                   help="print the sigma-even slice without sigma")


COMMANDS = {  # name: (handler, adds its arguments)
    "type": (_cmd_type, _type_arguments),
    "enumerate": (_cmd_enumerate, _enumerate_arguments),
}
