"""Sweep verification of the root/expansion correspondence and table building.

Two sweeps are provided.  `verify_identities` exhaustively rechecks, over all
coprime pairs up to a bound, the congruence satisfied by both representations,
the half bound on the selected representation, and the parity predictor, plus
seeded random checks of the continuant product identity and reversal
antisymmetry.  `verify_main_theorem` compares, modulus by modulus, the roots
of x^2 + nx + (-1)^s with the denominators whose selected expansion has
anticontinuant n and matching length parity; the finitely many certified
moduli are excluded and reported.  Reports are plain data with stable
ordering, so equal inputs give byte-identical serializations.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from math import gcd
from typing import ClassVar, Iterator, Literal, Optional

from .asymmetry import decompose, enumerate_types
from .cf import alternate_expansion, expand, parity_by_inverse
from .congruence import (CongruenceSpec, ExceptionalCertificate,
                         exceptional_candidates, solve_quadratic, true_exceptions)
from .continuants import anticontinuant, euler_residual
from .errors import DomainError

Mode = Literal["refined", "coarse"]

_DEFAULT_INDEX_BOUND = 8
_pair_index_cache: dict[int, tuple[int, dict[tuple[int, int], tuple[int, ...]]]] = {}


def _conv_value_parity(alpha: int, beta: int) -> Optional[tuple[int, int]]:
    """(anticontinuant, length parity) of the selected expansion, or None if not coprime.

    Fused Euclidean/convergent pass: with p the continuant of all quotients
    so far, the anticontinuant of the full sequence is K(drop last) - beta,
    and the end-coefficient fix rewrites it to (alpha - K(drop last)) - beta
    while flipping the parity.
    """
    a, b = alpha, beta
    pm2, pm1 = 0, 1
    first_q = 0
    last_q = 0
    count = 0
    while b:
        q, r = divmod(a, b)
        if count == 0:
            first_q = q
        last_q = q
        pm2, pm1 = pm1, q * pm1 + pm2
        count += 1
        a, b = b, r
    if a != 1:
        return None
    value = pm2 - beta
    parity = count % 2
    if count >= 2 and (first_q == 1) != (last_q == 1):
        value = (alpha - pm2) - beta
        parity ^= 1
    return value, parity


def _pair_index(alpha: int, bound: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Map (value, parity) -> denominators, for |value| <= bound; cached per alpha."""
    cached = _pair_index_cache.get(alpha)
    if cached is not None and cached[0] >= bound:
        return cached[1]
    idx: dict[tuple[int, int], list[int]] = {}
    for beta in range(1, alpha):
        vp = _conv_value_parity(alpha, beta)
        if vp is None:
            continue
        value, parity = vp
        if -bound <= value <= bound:
            idx.setdefault((value, parity), []).append(beta)
    frozen = {k: tuple(v) for k, v in idx.items()}
    _pair_index_cache[alpha] = (bound, frozen)
    return frozen


@dataclass(frozen=True)
class ViolationRecord:
    alpha: Optional[int]
    beta: Optional[int]
    expansion: Optional[tuple[int, ...]]
    kind: str

    def to_dict(self) -> dict:
        return {**asdict(self), "expansion": list(self.expansion) if self.expansion else None}


@dataclass(frozen=True)
class CoarseCounterexample:
    alpha: int
    beta: int
    marginal: int
    core: tuple[int, ...]
    direction: str

    def to_dict(self) -> dict:
        return {**asdict(self), "core": list(self.core)}


@dataclass(frozen=True)
class ExcludedModulus:
    modulus: int
    certificates: tuple[ExceptionalCertificate, ...]

    def to_dict(self) -> dict:
        return {"modulus": self.modulus,
                "certificates": [{"condition": c.condition, "witness": c.witness}
                                 for c in self.certificates]}


@dataclass(frozen=True)
class VerificationReport:
    """Per-modulus reconciliation results; violations empty means the sweep held."""

    kind: str
    alpha_min: int
    alpha_max: int
    checked: int
    matches: int
    violations: tuple[ViolationRecord, ...]
    n: Optional[int] = None
    s: Optional[int] = None
    mode: Optional[Mode] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    excluded: tuple[ExcludedModulus, ...] = ()
    coarse_counterexamples: tuple[CoarseCounterexample, ...] = ()
    necessary_exclusions: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "alpha_min": self.alpha_min,
            "alpha_max": self.alpha_max,
            "checked": self.checked,
            "matches": self.matches,
            "violations": [v.to_dict() for v in self.violations],
            "ok": self.ok,
        }
        if self.kind == "main_theorem":
            out.update({
                "n": self.n,
                "s": self.s,
                "mode": self.mode,
                "excluded": [e.to_dict() for e in self.excluded],
                "coarse_counterexamples": [c.to_dict() for c in self.coarse_counterexamples],
                "necessary_exclusions": list(self.necessary_exclusions),
            })
        else:
            out.update({"trials": self.trials, "seed": self.seed})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def verify_identities(max_alpha: int, trials: int = 10000, seed: int = 0) -> VerificationReport:
    """Exhaustive identity sweep over coprime pairs with alpha <= max_alpha.

    Per pair: both representations satisfy beta^2 + A*beta + (-1)^len = 0
    (mod alpha); the selected representation has |A| < alpha / 2; the parity
    predictor agrees with the selected length.  Then `trials` random
    sequences are checked for a vanishing continuant-identity residual and
    for A(reversed) = -A.  Failures become report records, not exceptions.
    """
    if not isinstance(max_alpha, int) or max_alpha < 2:
        raise DomainError(f"max_alpha must be an integer >= 2, got {max_alpha!r}")
    violations: list[ViolationRecord] = []
    checked = 0
    for alpha in range(2, max_alpha + 1):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            checked += 1
            conv = expand(alpha, beta)
            reps = (conv,) if conv == (1,) else (conv, alternate_expansion(conv))
            for q in reps:
                a_val = anticontinuant(q)
                unit = -1 if len(q) % 2 else 1
                if (beta * beta + a_val * beta + unit) % alpha != 0:
                    violations.append(ViolationRecord(alpha, beta, q, "congruence_identity"))
            if 2 * abs(anticontinuant(conv)) >= alpha:
                violations.append(ViolationRecord(alpha, beta, conv, "half_bound"))
            predicted = parity_by_inverse(alpha, beta).predicted_parity
            actual = "odd" if len(conv) % 2 else "even"
            if predicted != actual:
                violations.append(ViolationRecord(alpha, beta, conv, "parity_prediction"))

    rng = random.Random(seed)
    for _ in range(trials):
        checked += 1
        s = rng.randint(1, 12)
        q = tuple(rng.randint(1, 9) for _ in range(s))
        m = rng.randint(0, s - 1)
        n = rng.randint(m, s - 1)
        l = rng.randint(0, m + 2)
        k = rng.randint(0, l)
        if euler_residual(q, k, l, m, n) != 0:
            violations.append(ViolationRecord(None, None, q, "euler_identity"))
        if anticontinuant(q[::-1]) != -anticontinuant(q):
            violations.append(ViolationRecord(None, None, q, "reversal_antisymmetry"))

    return VerificationReport(
        kind="identities", alpha_min=2, alpha_max=max_alpha,
        checked=checked, matches=checked - len(violations),
        violations=tuple(violations), trials=trials, seed=seed)


def verify_main_theorem(spec: CongruenceSpec, alpha_max: int,
                        mode: Mode = "refined") -> VerificationReport:
    """Compare congruence roots against type-matching expansions for each modulus.

    For every alpha <= alpha_max outside the certified exceptional set, the
    root set of x^2 + nx + (-1)^s must equal the set of denominators whose
    selected expansion has anticontinuant n and length parity s.  In coarse
    mode the same refined comparison runs, and additionally each modulus is
    rechecked against the sigma-free printable (c, core) list; disagreements
    land in `coarse_counterexamples` without affecting `violations`.
    Excluded moduli where the refined equality fails anyway are reported as
    `necessary_exclusions`.
    """
    if mode not in ("refined", "coarse"):
        raise DomainError(f"mode must be 'refined' or 'coarse', got {mode!r}")
    if not isinstance(alpha_max, int) or alpha_max < 1:
        raise DomainError(f"alpha_max must be a positive integer, got {alpha_max!r}")
    candidates = exceptional_candidates(spec)  # also validates (n, s)
    n, s = spec.n, spec.s
    bound = max(_DEFAULT_INDEX_BOUND, abs(n))
    catalog = enumerate_types(n, "both") if mode == "coarse" else None

    excluded = tuple(ExcludedModulus(m, certs) for m, certs in candidates.items()
                     if m <= alpha_max)
    excluded_set = {e.modulus for e in excluded}
    violations: list[ViolationRecord] = []
    coarse_cex: list[CoarseCounterexample] = []
    necessary: list[int] = []
    checked = 0
    matches = 0

    for alpha in range(2, alpha_max + 1):
        roots = set(solve_quadratic(spec, alpha))
        typed = set(_pair_index(alpha, bound).get((n, s), ()))
        if alpha in excluded_set:
            if roots != typed:
                necessary.append(alpha)
            continue
        checked += len(roots | typed)
        matches += len(roots & typed)
        for beta in sorted(roots - typed):
            violations.append(ViolationRecord(alpha, beta, expand(alpha, beta),
                                              "root_without_type"))
        for beta in sorted(typed - roots):
            violations.append(ViolationRecord(alpha, beta, expand(alpha, beta),
                                              "type_without_root"))
        if mode == "coarse":
            listed = set()
            coarse_of = {}
            for beta in range(1, alpha):
                if gcd(alpha, beta) != 1:
                    continue
                q = expand(alpha, beta)
                if len(q) % 2 != s:
                    continue
                dec = decompose(q)
                if dec.c == 0:
                    continue
                coarse_of[beta] = (dec.c, dec.core)
                if catalog.coarse_contains(dec.c, dec.core):
                    listed.add(beta)
            for beta in sorted(roots - listed):
                c, core = coarse_of.get(beta, (0, ()))
                coarse_cex.append(CoarseCounterexample(alpha, beta, c, core,
                                                       "root_without_listed_type"))
            for beta in sorted(listed - roots):
                c, core = coarse_of[beta]
                coarse_cex.append(CoarseCounterexample(alpha, beta, c, core,
                                                       "listed_type_without_root"))

    return VerificationReport(
        kind="main_theorem", alpha_min=2, alpha_max=alpha_max,
        checked=checked, matches=matches, violations=tuple(violations),
        n=n, s=s, mode=mode, excluded=excluded,
        coarse_counterexamples=tuple(coarse_cex),
        necessary_exclusions=tuple(necessary))


@dataclass(frozen=True)
class TableEntry:
    """One printable type row: marginal asymmetry and core (or pattern) text."""

    marginal: int
    core: str

    def sort_key(self):
        lam = 0 if not self.core else self.core.count(",") + 1
        lex = tuple(0 if t == "p" else int(t) for t in self.core.split(",")) if self.core else ()
        return (lam, self.marginal, lex)


@dataclass(frozen=True)
class TableRow:
    value: int
    parity: str
    entries: tuple[TableEntry, ...]
    exceptions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TableDocument:
    """Catalog table for values 1..n_max, both core-length parities."""

    n_max: int
    rows: tuple[TableRow, ...]
    columns: ClassVar[tuple[str, ...]] = ("value", "parity", "marginal", "core", "exceptions")

    def csv_rows(self) -> Iterator[tuple]:
        """Cells under `columns`: cores use '.' separators and exception pairs 'a:b'."""
        for row in self.rows:
            exc = " ".join(f"{a}:{b}" for a, b in row.exceptions)
            for k, entry in enumerate(row.entries):
                yield (row.value, row.parity, entry.marginal,
                       entry.core.replace(",", "."), "" if k else exc)

    def to_csv(self) -> str:
        from .cli import _render_csv  # late import: the CLI imports this module
        return _render_csv(self.columns, self.csv_rows())

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            exc = ", ".join(f"({a},{b})" for a, b in row.exceptions) or "none"
            lines.append(f"({row.value}, {row.parity})  exceptions: {exc}")
            for entry in row.entries:
                lines.append(f"    {entry.marginal} ; {entry.core}")
        return "\n".join(lines) + "\n"


def build_table(n_max: int) -> TableDocument:
    """Printable types and true exceptions for each value 1..n_max and parity.

    Type cells are the sigma-even slice of the catalog at the row's
    core-length parity; the value-2 even row shows the parametric family.
    Exceptions come from the `true_exceptions` sweep over both signs; the
    (2, even) congruence is the excluded perfect-square case, which has no
    exceptions, so its cell is empty by construction.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    rows = []
    for value in range(1, n_max + 1):
        for parity_bit, parity in ((0, "even"), (1, "odd")):
            catalog = enumerate_types(value, parity)
            entries = [TableEntry(c, ",".join(map(str, core)))
                       for c, core in catalog.coarse_pairs()]
            entries += [TableEntry(f.c, f.display_core())
                        for f in catalog.coarse_families()]
            entries.sort(key=TableEntry.sort_key)
            if value == 2 and parity_bit == 0:
                exceptions: tuple[tuple[int, int], ...] = ()
            else:
                exceptions = tuple(true_exceptions(CongruenceSpec(value, parity_bit)))
            rows.append(TableRow(value, parity, tuple(entries), exceptions))
    return TableDocument(n_max=n_max, rows=tuple(rows))
