"""The subcommands over quotient sequences (`cf`, `continuants`)."""

from .. import cf, continuants
from ..errors import DomainError, as_plain
from . import _Result, _parse_sequence, _refuse_unread, _scalar, _seq_str


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


def _expand_arguments(p) -> None:
    p.add_argument("alpha", type=int, nargs="?")
    p.add_argument("beta", type=int, nargs="?")
    p.add_argument("--parity", choices=("conv", "even", "odd"))
    p.add_argument("--predict-parity", action="store_true",
                   help="predict the selected length parity from the inverse of beta")
    p.add_argument("--from-quotients", metavar="SEQ",
                   help="evaluate a quotient sequence back to alpha/beta")


def _continuant_arguments(p) -> None:
    p.add_argument("sequence", nargs="?")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--fib", type=int, help="return the k-th Fibonacci number")
    p.add_argument("--euler", metavar="K,L,M,N",
                   help="residual of the continuant product identity")


def _anticont_arguments(p) -> None:
    p.add_argument("sequence")
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int)
