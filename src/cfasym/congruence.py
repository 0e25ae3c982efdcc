"""Quadratic congruences x^2 + nx + (-1)^s = 0 (mod alpha) and their expansions.

Covers root finding (factor alpha, solve modulo each prime power, combine
by CRT), the finite set of moduli where the length-parity conclusion can
fail, the pairs among those moduli whose expansions never reach the target
anticontinuant, and the n = +-2 family of fractions b*n^2 / (b*a*n - eps)
with its three quotient patterns.

The root side needs no continued fractions, and `asymmetry` and `cf` are
read at call time (see the package docstring), so `solve_quadratic`,
`exceptional_candidates`, `candidate_pairs` and `true_exceptions` run only
this module and `errors`; the folded operations and `main_theorem_specs`
run what they read.
"""

from __future__ import annotations

from itertools import accumulate, chain, cycle
from math import gcd
from typing import Literal, NamedTuple, Optional

from . import asymmetry, cf
from .errors import DomainError, FoldedFormError, is_int

Condition = Literal["small_alpha", "gamma_condition", "eta_condition"]

ALPHA_MAX = 10**14  # largest modulus solve_quadratic factors (trial division)
ROOTS_MAX = 10**6  # most roots solve_quadratic lists; cfasym solve prints them in 0.5 s
# largest |n| exceptional_candidates certifies: its slowest use, true_exceptions,
# solves every certified modulus and takes about half a second there
EXCEPTIONAL_N_MAX = 1000


class _SpecFields(NamedTuple):
    n: int
    s: int


class CongruenceSpec(_SpecFields):
    """The pair (n, s) defining x^2 + nx + (-1)^s = 0 (mod alpha), s in {0, 1}."""

    __slots__ = ()

    def __new__(cls, n: int, s: int):
        if not is_int(n):
            raise DomainError(f"n must be an integer, got {n!r}")
        if not is_int(s) or s not in (0, 1):
            raise DomainError(f"s must be 0 or 1, got {s!r}")
        return super().__new__(cls, n, s)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it validates too
        return cls(*iterable)

    @property
    def unit(self) -> int:
        return 1 if self.s == 0 else -1

    def negated(self) -> "CongruenceSpec":
        return CongruenceSpec(-self.n, self.s)


class ExceptionalCertificate(NamedTuple):
    """Which excluding condition a modulus satisfies, with its witness if any."""

    condition: Condition
    witness: Optional[int] = None


class _FoldedFields(NamedTuple):
    b: int
    n: int
    a: int
    epsilon: int


class FoldedParams(_FoldedFields):
    """Parameters (b, n, a, epsilon) of the fraction b*n^2 / (b*a*n - epsilon).

    Normalization moves gcd(a, n)^2 into b, so b need not stay square-free.
    """

    __slots__ = ()

    def __new__(cls, b: int, n: int, a: int, epsilon: int):
        for name, v in (("b", b), ("n", n), ("a", a)):
            if not is_int(v) or v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        if not is_int(epsilon) or epsilon not in (1, -1):
            raise DomainError(f"epsilon must be +1 or -1, got {epsilon!r}")
        return super().__new__(cls, b, n, a, epsilon)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def alpha(self) -> int:
        return self.b * self.n * self.n

    @property
    def beta(self) -> int:
        return self.b * self.a * self.n - self.epsilon


class FoldedForm(NamedTuple):
    """Which of the three folded quotient patterns matched.

    Pattern cores, reading the two marked end entries as (first, pivot):
      form 1: (pivot +- 2, pivot)
      form 2: (pivot + 1, x, 1, pivot)
      form 3: (pivot - 1, 1, x, pivot)
    surrounded by a symmetric outer layer.
    """

    form: int
    x: Optional[int]
    pivot: int


def solve_quadratic(spec: CongruenceSpec, alpha: int) -> list[int]:
    """All beta in (0, alpha) with beta^2 + n*beta + (-1)^s = 0 (mod alpha), sorted.

    Factors alpha by trial division, finds the roots modulo each prime power
    p^k as residue classes (`_roots_mod_prime_power`), combines the classes
    by CRT and lists their members once.  Cost
    O(sqrt(alpha) + #roots * log(alpha));
    alpha above ALPHA_MAX is refused so that the factoring stays bounded,
    and more than ROOTS_MAX roots, counted from the classes before any is
    listed, so that the list does.  Every root is coprime to alpha.
    """
    if not is_int(alpha) or alpha < 1:
        raise DomainError(f"alpha must be a positive integer, got {alpha!r}")
    if alpha > ALPHA_MAX:
        raise DomainError(f"alpha must be at most 10**14, got {alpha}")
    if alpha == 1:
        return []
    classes, modulus = [0], 1
    for p, k in _factor(alpha):
        local, step = _roots_mod_prime_power(spec.n, spec.unit, p, k)
        if not local:
            return []
        m_inv = pow(modulus, -1, step)
        classes = [c + modulus * ((t - c) * m_inv % step) for c in classes for t in local]
        modulus *= step
    count = len(classes) * (alpha // modulus)
    if count > ROOTS_MAX:
        raise DomainError(f"alpha = {alpha} gives {count} roots; at most {ROOTS_MAX} are listed")
    return sorted(r for c in classes for r in range(c, alpha, modulus))


def _factor(v: int) -> list[tuple[int, int]]:
    """Prime factorization of v >= 1 by trial division over 2, 3 and 6j +- 1."""
    out = []
    for d in chain((2, 3), accumulate(cycle((2, 4)), initial=5)):
        if d * d > v:
            break
        if v % d == 0:
            k = 0
            while v % d == 0:
                v //= d
                k += 1
            out.append((d, k))
    if v > 1:
        out.append((v, 1))
    return out


def _roots_mod_prime_power(n: int, e: int, p: int, k: int) -> tuple[list[int], int]:
    """Roots of x^2 + n*x + e (mod p^k), e = +-1, as classes t (mod step), step | p^k.

    Via a square root of the discriminant.  Odd p: y = 2x + n turns the
    equation into y^2 = n^2 - 4e, and 2 is invertible mod step.  p = 2: odd
    n leaves x^2 + n*x + e odd, so there is no root; even n gives
    (x + n/2)^2 = n^2/4 - e.
    """
    if p == 2:
        if n % 2:
            return [], 1
        half = n // 2
        ys, step = _square_roots(half * half - e, 2, k)
        return [(y - half) % step for y in ys], step
    ys, step = _square_roots(n * n - 4 * e, p, k)
    return [(y - n) * ((step + 1) // 2) % step for y in ys], step


def _square_roots(d: int, p: int, k: int) -> tuple[list[int], int]:
    """The y with y^2 = d (mod p^k), as classes t (mod step) with step | p^k.

    With d = 0 (mod p^k) the roots are the multiples of p^ceil(k/2).  Otherwise
    d = p^v * u with u a unit and v < k; a root needs v even and then is
    p^(v/2) * w, where w runs over the lifts to p^(k - v/2) of the unit roots
    z of w^2 = u (mod p^(k - v)): the classes p^(v/2) * z mod p^(k - v/2).
    """
    d %= p**k
    if d == 0:
        return [0], p ** ((k + 1) // 2)
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    if v % 2:
        return [], 1
    scale = p ** (v // 2)
    return [scale * z for z in _unit_square_roots(d, p, k - v)], scale * p ** (k - v)


def _unit_square_roots(u: int, p: int, m: int) -> list[int]:
    """All z in [0, p^m) with z^2 = u (mod p^m), for u prime to p and m >= 1.

    Odd p: the units mod q = p^m form a cyclic group of order q - q/p, and a
    unit is a square mod q exactly when it is one mod p (Euler's criterion),
    so Tonelli-Shanks runs in that group, with a non-residue mod p as its
    generator of the 2-part, and finds a root r; the roots are +-r.  p = 2:
    the group is not cyclic, so the odd roots mod 2^j are lifted bit by bit,
    and there are never more than four of them.
    """
    if p == 2:
        roots = [1]
        for j in range(1, m):
            mod = 2 << j
            roots = [y for r in roots for y in (r, r + (1 << j)) if (y * y - u) % mod == 0]
        return roots
    if pow(u, (p - 1) // 2, p) != 1:
        return []
    q = p**m
    odd, twos = q - q // p, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, odd, q), pow(u, odd, q), pow(u, (odd + 1) // 2, q)
    while t != 1:  # t has order 2^i, i < twos; next raises if it does not
        i = next(i for i in range(1, twos) if pow(t, 1 << i, q) == 1)
        b = pow(c, 1 << (twos - i - 1), q)
        twos, c = i, b * b % q
        t, r = t * c % q, r * b % q
    return [r, q - r]


def _divisors(v: int) -> list[int]:
    """Every divisor of v >= 1, multiplied out from the prime powers of `_factor`."""
    out = [1]
    for p, k in _factor(v):
        out = [d * p**i for d in out for i in range(k + 1)]
    return out


def exceptional_candidates(spec: CongruenceSpec) -> dict[int, tuple[ExceptionalCertificate, ...]]:
    """Moduli where the root/length-parity conclusion may fail, with certificates.

    Union of three finite conditions, for a = |n|:
      (1) alpha <= 2a;
      (2) alpha divides gamma*(gamma - a) + (-1)^s for some gamma in [1, a - 1];
      (3) alpha divides eta*(eta - 2a) + 4*(-1)^s for some eta in [1, 2a - 1].
    Rejected for (s = 0, n = +-2), the only spec where a condition value can
    vanish: 0 needs gamma*(a - gamma) = 1, forcing a = 2 and s = 0, or
    eta*(2a - eta) = 4, forcing eta = a = 2 and s = 0.  Also rejected for
    a > EXCEPTIONAL_N_MAX, past which `true_exceptions`, which solves every
    certified modulus, takes more than about half a second.
    """
    if spec.n == 0:
        raise DomainError("exceptional_candidates needs n != 0 (value 0 is the symmetric class)")
    if spec.s == 0 and abs(spec.n) == 2:
        raise DomainError("exceptional_candidates excludes (n = +-2, s = 0); "
                          "use the folded-family operations")
    if abs(spec.n) > EXCEPTIONAL_N_MAX:
        raise DomainError(f"exceptional_candidates needs |n| <= {EXCEPTIONAL_N_MAX}, "
                          f"got {spec.n}")
    a = abs(spec.n)
    e = spec.unit
    certs: dict[int, list[ExceptionalCertificate]] = {}

    def add(modulus: int, condition: Condition, witness: Optional[int]) -> None:
        certs.setdefault(modulus, []).append(ExceptionalCertificate(condition, witness))

    for alpha in range(1, 2 * a + 1):
        add(alpha, "small_alpha", None)
    for gamma in range(1, a):
        value = gamma * (gamma - a) + e
        for alpha in _divisors(abs(value)):
            add(alpha, "gamma_condition", gamma)
    for eta in range(1, 2 * a):
        value = eta * (eta - 2 * a) + 4 * e
        for alpha in _divisors(abs(value)):
            add(alpha, "eta_condition", eta)

    return {m: tuple(certs[m]) for m in sorted(certs)}


def main_theorem_specs(n_max: int) -> list[CongruenceSpec]:
    """Every (n, s) the main theorem covers with 1 <= |n| <= n_max, in sweep order.

    |n| ascending, +n before -n, s = 0 before s = 1, with (+-2, 0) left out:
    the perfect-square case that `exceptional_candidates` refuses.  n_max
    must be a positive integer at most TARGET_MAX, the largest value whose
    catalog `enumerate_types` builds.
    """
    if not is_int(n_max) or n_max < 1:
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    if n_max > asymmetry.TARGET_MAX:
        raise DomainError(f"n_max must be at most {asymmetry.TARGET_MAX}, got {n_max}")
    return [CongruenceSpec(sign * a, s) for a in range(1, n_max + 1) for sign in (1, -1)
            for s in (0, 1) if (a, s) != (2, 0)]


def candidate_pairs(spec: CongruenceSpec, include_negated: bool = True) -> list[tuple[int, int]]:
    """Solved (alpha, beta) over the exceptional moduli, for n (and -n if asked).

    The roots of -n are alpha - r for the roots r of n, since x -> -x maps
    one congruence onto the other.
    """
    pairs = []
    for alpha in exceptional_candidates(spec):
        roots = solve_quadratic(spec, alpha)
        if include_negated:
            roots = sorted({*roots, *(alpha - r for r in roots)})
        pairs.extend((alpha, beta) for beta in roots)
    return pairs


def true_exceptions(spec: CongruenceSpec, include_negated: bool = True) -> list[tuple[int, int]]:
    """Solved pairs over the exceptional moduli with no expansion reaching the target.

    A pair survives when neither representation of alpha/beta has
    anticontinuant n (or -n when the negated congruence is included).  By
    the congruence identity those anticontinuants are u - beta and
    alpha - u - beta, with u the inverse of beta mod alpha, which exists
    since every root is coprime to alpha; so no expansion is built.
    """
    targets = {spec.n, -spec.n} if include_negated else {spec.n}
    out = []
    for alpha, beta in candidate_pairs(spec, include_negated):
        u = pow(beta, -1, alpha)
        if u - beta not in targets and alpha - u - beta not in targets:
            out.append((alpha, beta))
    return out


def folded_normalize(p: FoldedParams) -> FoldedParams:
    """Move gcd(a, n)^2 into b; idempotent, preserves alpha and b*a*n."""
    d = gcd(p.a, p.n)
    return FoldedParams(p.b * d * d, p.n // d, p.a // d, p.epsilon)


def _match_form(q: tuple[int, ...]) -> Optional[FoldedForm]:
    dec = asymmetry.decompose(q)
    if dec.c == 0:
        return None
    displayed, core = q[dec.depth], dec.core
    if core == () and abs(dec.c) == 2:
        return FoldedForm(form=1, x=None, pivot=dec.pivot)
    if len(core) == 2 and displayed == dec.pivot + 1 and core[1] == 1:
        return FoldedForm(form=2, x=core[0], pivot=dec.pivot)
    if len(core) == 2 and displayed == dec.pivot - 1 and core[0] == 1:
        return FoldedForm(form=3, x=core[1], pivot=dec.pivot)
    return None


def folded_expand_classify(p: FoldedParams) -> tuple[tuple[int, ...], FoldedForm]:
    """Expand alpha/beta and match it against the three folded patterns.

    The selected expansion is tried first and returned when it matches; when
    the pattern only shows in the alternate representation (the selected one
    can come out symmetric), that representation is returned instead, unless
    the selected expansion is too short to carry any pattern (length <= 2,
    the collapsed case), in which case it is returned with the form matched
    on the alternate.  b = 1 must give form 1; b >= 2 must give form 2 or 3
    with x = b - 1.
    """
    if gcd(p.a, p.n) != 1:
        raise DomainError(f"params must be normalized first: gcd({p.a}, {p.n}) != 1")
    alpha, beta = p.alpha, p.beta
    if not 1 <= beta < alpha:
        raise DomainError(f"denominator {beta} outside (0, {alpha})")
    reps = cf.representations(alpha, beta)  # the selected expansion first
    seq = reps[0]
    for cand in reps:
        match = _match_form(cand)
        if match is not None:
            if len(reps[0]) > 2:
                seq = cand
            break
    if match is None:
        raise FoldedFormError(
            f"no folded pattern matches {alpha}/{beta} with quotients {seq}")
    if p.b == 1 and match.form != 1:
        raise FoldedFormError(
            f"b = 1 requires form 1, got form {match.form} for {alpha}/{beta}")
    if p.b >= 2 and (match.form == 1 or match.x != p.b - 1):
        raise FoldedFormError(
            f"b = {p.b} requires form 2 or 3 with x = {p.b - 1}, got {match} "
            f"for {alpha}/{beta}")
    return seq, match
