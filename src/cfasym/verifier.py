"""Sweep verification of the root/expansion correspondence and table building.

Reports are plain data with stable ordering, so equal inputs give
byte-identical serializations.  The third check, `verify_enumeration`,
lives beside its scanner in `exhaustive`.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Literal, NamedTuple, Optional

from . import asymmetry, cf, congruence, continuants
from .errors import (DomainError, ViolationRecord, is_int, render_csv, report_ok,
                     report_to_dict, report_to_json)

Mode = Literal["refined", "coarse"]


class CoarseCounterexample(NamedTuple):
    alpha: int
    beta: int
    marginal: int
    core: tuple[int, ...]
    direction: str


class ExcludedModulus(NamedTuple):
    modulus: int
    certificates: tuple[congruence.ExceptionalCertificate, ...]


class VerificationReport(NamedTuple):
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
    ok = report_ok
    to_json = report_to_json

    def to_dict(self) -> dict:
        """The fields of this report's kind plus `ok`, through `report_to_dict`."""
        if self.kind == "main_theorem":
            return report_to_dict(self, ("trials", "seed"))
        return report_to_dict(self, ("n", "s", "mode", "excluded", "coarse_counterexamples",
                                     "necessary_exclusions"))


def _check_alpha_max(name: str, alpha_max) -> None:
    if not is_int(alpha_max) or alpha_max < 2:  # the sweeps start at alpha = 2
        raise DomainError(f"{name} must be an integer >= 2, got {alpha_max!r}")


def _check_identity_bounds(max_alpha, trials, seed) -> None:
    _check_alpha_max("max_alpha", max_alpha)
    if not is_int(trials) or trials < 0:
        raise DomainError(f"trials must be a non-negative integer, got {trials!r}")
    if not is_int(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")


def verify_identities(max_alpha: int, trials: int = 10000, seed: int = 0) -> VerificationReport:
    """Exhaustive identity sweep over coprime pairs with alpha <= max_alpha.

    Per pair: both representations satisfy beta^2 + A*beta + (-1)^len = 0
    (mod alpha); the selected representation has |A| < alpha / 2; the parity
    predictor agrees with the selected length.  Then `trials` random
    sequences are checked for a vanishing continuant-identity residual and
    for A(reversed) = -A.  Failures become report records, not exceptions.
    """
    _check_identity_bounds(max_alpha, trials, seed)
    violations: list[ViolationRecord] = []
    checked = 0
    for alpha in range(2, max_alpha + 1):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            checked += 1
            conv = cf.expand(alpha, beta)
            for q in (conv, cf.alternate_expansion(conv)):
                a_val = continuants.anticontinuant(q)
                unit = -1 if len(q) % 2 else 1
                if (beta * beta + a_val * beta + unit) % alpha != 0:
                    violations.append(ViolationRecord(alpha, beta, q, "congruence_identity"))
            if 2 * abs(continuants.anticontinuant(conv)) >= alpha:
                violations.append(ViolationRecord(alpha, beta, conv, "half_bound"))
            predicted = cf.parity_by_inverse(alpha, beta).predicted_parity
            actual = "odd" if len(conv) % 2 else "even"
            if predicted != actual:
                violations.append(ViolationRecord(alpha, beta, conv, "parity_prediction"))

    import random  # only this sweep reads it; kept out of CLI start-up

    rng = random.Random(seed)
    for _ in range(trials):
        checked += 1
        s = rng.randint(1, 12)
        q = tuple(rng.randint(1, 9) for _ in range(s))
        m = rng.randint(0, s - 1)
        n = rng.randint(m, s - 1)
        l = rng.randint(0, m + 2)
        k = rng.randint(0, l)
        if continuants.euler_residual(q, k, l, m, n) != 0:
            violations.append(ViolationRecord(None, None, q, "euler_identity"))
        if continuants.anticontinuant(q[::-1]) != -continuants.anticontinuant(q):
            violations.append(ViolationRecord(None, None, q, "reversal_antisymmetry"))

    return VerificationReport(
        kind="identities", alpha_min=2, alpha_max=max_alpha,
        checked=checked, matches=checked - len(violations),
        violations=tuple(violations), trials=trials, seed=seed)


def verify_main_theorem(spec: congruence.CongruenceSpec, alpha_max: int,
                        mode: Mode = "refined") -> VerificationReport:
    """Compare congruence roots against type-matching expansions as two sets of pairs.

    Outside the certified exceptional set, the pairs (alpha, beta) with
    alpha <= alpha_max and beta a root of x^2 + nx + (-1)^s (mod alpha) must
    equal the pairs whose selected expansion carries a type of
    `enumerate_types(n)` at core-length parity s.  The roots come from
    `solve_quadratic`; the typed pairs are composed from the catalog's types
    (`_typed_pairs`), so the sweep compares two independent derivations.
    `checked` counts their union and `matches` their intersection; each
    difference is a violation.  In coarse mode the same refined comparison
    runs, and additionally the roots are compared with the pairs of the
    sigma-free printable (c, core) list, each pair composed at both sigmas;
    disagreements land in `coarse_counterexamples` without affecting
    `violations`.  Certified moduli where the two sets differ anyway are
    reported as `necessary_exclusions`.  Bad arguments, including
    |n| > TARGET_MAX, raise DomainError before any modulus is visited.
    """
    if mode not in ("refined", "coarse"):
        raise DomainError(f"mode must be 'refined' or 'coarse', got {mode!r}")
    _check_alpha_max("alpha_max", alpha_max)
    asymmetry._check_target_max(spec.n)  # enumerate_types' refusal, before the certified set
    candidates = congruence.exceptional_candidates(spec)  # also validates (n, s)
    n, s = spec.n, spec.s
    catalog = asymmetry.enumerate_types(n, "odd" if s else "even")
    excluded = tuple(ExcludedModulus(m, certs) for m, certs in candidates.items()
                     if m <= alpha_max)
    roots = {(alpha, beta) for alpha in range(2, alpha_max + 1)
             for beta in congruence.solve_quadratic(spec, alpha)}
    typed = _typed_pairs(catalog.finite_types, alpha_max)
    necessary = tuple(sorted({alpha for alpha, _ in roots ^ typed if alpha in candidates}))
    # the certified moduli leave both sides before the comparison
    roots, typed = ({p for p in pairs if p[0] not in candidates} for pairs in (roots, typed))
    violations = tuple(ViolationRecord(a, b, cf.expand(a, b), kind) for a, b, kind
                       in _differences(roots, typed, "root_without_type", "type_without_root"))
    coarse_cex = []
    if mode == "coarse":
        listed = _typed_pairs([asymmetry.ExtendedAsymmetryType(c, core, sigma)
                               for c, core in catalog.coarse_pairs()
                               for sigma in ("even", "odd")], alpha_max)
        for alpha, beta, direction in _differences(
                roots, {p for p in listed if p[0] not in candidates},
                "root_without_listed_type", "listed_type_without_root"):
            q = cf.expand(alpha, beta)
            dec = asymmetry.decompose(q)
            c, core = (dec.c, dec.core) if len(q) % 2 == s and dec.c else (0, ())
            coarse_cex.append(CoarseCounterexample(alpha, beta, c, core, direction))

    return VerificationReport(
        kind="main_theorem", alpha_min=2, alpha_max=alpha_max,
        checked=len(roots | typed), matches=len(roots & typed), violations=violations,
        n=n, s=s, mode=mode, excluded=excluded,
        coarse_counterexamples=tuple(coarse_cex), necessary_exclusions=necessary)


def _differences(roots: set, other: set, missing: str, extra: str) -> list[tuple[int, int, str]]:
    """(alpha, beta, kind) of `roots - other` as `missing` and `other - roots` as `extra`.

    Ordered by modulus, then `missing` before `extra`, then beta.
    """
    keyed = sorted([(alpha, 0, beta) for alpha, beta in roots - other]
                   + [(alpha, 1, beta) for alpha, beta in other - roots])
    return [(alpha, beta, (missing, extra)[k]) for alpha, k, beta in keyed]


def _typed_pairs(types: Iterable[asymmetry.ExtendedAsymmetryType],
                 alpha_max: int) -> set[tuple[int, int]]:
    """The pairs (alpha, beta), alpha <= alpha_max, whose selected expansions carry `types`.

    The sequences of type (c, core, sigma) are exactly
    outer + (p + (-1)^sigma * c, *core, p) + reversed(outer) with a symmetric
    outer layer of length d = sigma (mod 2), a pivot p >= 1 and a first entry
    >= 1.  Every sequence q is carried as K(q), K(q[1:]), K(q[:-1]) and
    K(q[1:-1]); (x, *q, y) has K = x*(y*K(q) + K(q[:-1])) + y*K(q[1:]) +
    K(q[1:-1]), y*K(q) + K(q[:-1]) and x*K(q) + K(q[1:]) for its tail and
    head, and K(q) inside.  Only the cores are evaluated (1, 0, 0, 1 when
    empty): the step at (x, y) = (p + (-1)^sigma * c, p) gives each pivot's
    block, and the walk wraps it depth-first in layers at x = y = a.  K grows
    with every entry and every layer, so each loop stops at its first modulus
    past alpha_max.  A sequence is the selected expansion of its
    (K(q), K(q[1:])) when its first entry is 1 exactly when its last is,
    which only the unwrapped block can fail.  The decomposition is unique, so
    no pair comes twice.  Each type's core is validated once, before its
    walk, so a bad entry raises DomainError; the blocks and the walk run
    unchecked.
    """
    pairs: set[tuple[int, int]] = set()

    def walk(k: int, kt: int, kh: int, km: int, record: bool, record_wraps: bool) -> None:
        # q has K(q) = k, K(q[1:]) = kt, K(q[:-1]) = kh and K(q[1:-1]) = km; its
        # wrappings are recorded at every other depth, starting from record_wraps
        if record:
            pairs.add((k, kt))
        a = 1
        while (alpha := a * (a * k + kt + kh) + km) <= alpha_max:
            walk(alpha, a * k + kh, a * k + kt, k, record_wraps, not record_wraps)
            a += 1

    for t in types:
        continuants._check_entries(t.core)
        k, kt, kh, km = continuants._ends(t.core)
        sigma = t.sigma == "odd"
        shift = -t.c if sigma else t.c
        for y in range(max(1, 1 - shift), alpha_max + 1):  # K(block) >= y
            x = y + shift
            if (alpha := x * (y * k + kh) + y * kt + km) > alpha_max:
                break
            walk(alpha, y * k + kh, x * k + kt, k, not sigma and (x == 1) == (y == 1), sigma)
    return pairs


class TableEntry(NamedTuple):
    """One printable type row: marginal asymmetry and core (or pattern) text."""

    marginal: int
    core: str


class TableRow(NamedTuple):
    value: int
    parity: str
    entries: tuple[TableEntry, ...]
    exceptions: tuple[tuple[int, int], ...]


class TableDocument(NamedTuple):
    """Catalog table for values 1..n_max, both core-length parities."""

    n_max: int
    rows: tuple[TableRow, ...]
    columns = ("value", "parity", "marginal", "core", "exceptions")

    def csv_rows(self) -> Iterator[tuple]:
        """Cells under `columns`; exception pairs are written 'a:b'."""
        for row in self.rows:
            exc = " ".join(f"{a}:{b}" for a, b in row.exceptions)
            for k, entry in enumerate(row.entries):
                yield (row.value, row.parity, entry.marginal, entry.core, "" if k else exc)

    def to_csv(self) -> str:
        return render_csv(self.columns, self.csv_rows())

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
    One search builds the catalogs of every value 1..n_max.
    Exceptions come from the `true_exceptions` sweep over both signs for the
    rows `main_theorem_specs` lists; the cell of the one row it leaves out,
    the perfect-square (2, even), is empty.
    """
    covered = set(congruence.main_theorem_specs(n_max))  # refuses a bad n_max first
    rows = []
    for value, pairs in asymmetry._sigma_even_pairs(n_max).items():
        for parity_bit, parity in ((0, "even"), (1, "odd")):
            catalog = asymmetry._catalog(value, pairs, parity)
            # sort on (core length, marginal, entries), a family's slot counting as 0
            keyed = [((len(core), c, core), c, ",".join(map(str, core)))
                     for c, core in catalog.coarse_pairs()]
            keyed += [(f.sort_key(), f.c, f.display_core()) for f in catalog.coarse_families()]
            entries = [TableEntry(c, core) for _, c, core in sorted(keyed)]
            spec = congruence.CongruenceSpec(value, parity_bit)
            exceptions = tuple(congruence.true_exceptions(spec)) if spec in covered else ()
            rows.append(TableRow(value, parity, tuple(entries), exceptions))
    return TableDocument(n_max=n_max, rows=tuple(rows))


class BatteryReport(NamedTuple):
    """`run_battery`'s reports and table, and the text of each file it writes, by name."""

    identities: VerificationReport
    main: tuple[VerificationReport, ...]
    table: TableDocument
    files: dict[str, str]

    @property
    def ok(self) -> bool:
        return self.identities.ok and all(report.ok for report in self.main)


def run_battery(n_max: int = 6, alpha_max: int = 2000, identities_alpha_max: int = 500,
                trials: int = 10000, seed: int = 0) -> BatteryReport:
    """The identity sweep, the refined sweep of each `main_theorem_specs(n_max)`, the table.

    Every bound is refused (DomainError) before the first sweep runs.  The
    files are `identities.json`, `main_n{n:+d}_s{s}.json` per spec,
    `main_theorem_all.json` (the specs' `to_dict()` as one sorted-key JSON
    list), `table.csv` and `table.txt`.
    """
    specs = congruence.main_theorem_specs(n_max)
    _check_identity_bounds(identities_alpha_max, trials, seed)
    _check_alpha_max("alpha_max", alpha_max)
    identities = verify_identities(identities_alpha_max, trials=trials, seed=seed)
    main = tuple(verify_main_theorem(spec, alpha_max) for spec in specs)
    table = build_table(n_max)

    import json  # only the battery's summary reads it; kept out of CLI start-up

    files = {"identities.json": identities.to_json() + "\n",
             **{f"main_n{r.n:+d}_s{r.s}.json": r.to_json() + "\n" for r in main},
             "main_theorem_all.json": json.dumps([r.to_dict() for r in main],
                                                 sort_keys=True) + "\n",
             "table.csv": table.to_csv(), "table.txt": table.to_text()}
    return BatteryReport(identities, main, table, files)
