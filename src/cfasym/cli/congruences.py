"""The subcommands over quadratic congruences (`congruence`)."""

from .. import congruence
from ..errors import DomainError, as_plain
from . import _Result, _seq_str, _spec_arguments


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


def _solve_arguments(p) -> None:
    _spec_arguments(p)
    p.add_argument("--alpha", type=int, required=True)


def _exceptional_arguments(p) -> None:
    _spec_arguments(p)
    p.add_argument("--pairs", action="store_true",
                   help="solved pairs over the exceptional moduli")
    p.add_argument("--true-exceptions", action="store_true",
                   help="pairs whose expansions never reach the target value")
    p.add_argument("--single-sign", action="store_true",
                   help="use only the given sign of n, not both")
    p.add_argument("--certificates", action="store_true")


def _folded_arguments(p) -> None:
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--eps", type=int, choices=(1, -1), default=1)
    p.add_argument("--normalize-only", action="store_true")
