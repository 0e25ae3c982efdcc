"""Sweep verification of the root/expansion correspondence and table building.

Three checks are provided.  `verify_identities` exhaustively rechecks, over
all coprime pairs up to a bound, the congruence satisfied by both
representations, the half bound on the selected representation, and the
parity predictor, plus seeded random checks of the continuant product
identity and reversal antisymmetry.  `verify_main_theorem` compares, modulus
by modulus, the roots of x^2 + nx + (-1)^s with the denominators of the
selected expansions that carry a type of value n and length parity s,
composed from the type catalog; the finitely many certified moduli are
excluded and reported.
`verify_enumeration` checks the type catalog against every bounded quotient
sequence with a small nonzero anticontinuant.  Reports are plain data with
stable ordering, so equal inputs give byte-identical serializations.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Literal, NamedTuple, Optional

from .asymmetry import (TARGET_MAX, ExtendedAsymmetryType, _catalog, _sigma_even_pairs,
                        decompose, enumerate_types, extended_type, type_value)
from .cf import alternate_expansion, expand, parity_by_inverse
from .congruence import (CongruenceSpec, ExceptionalCertificate, exceptional_candidates,
                         main_theorem_specs, solve_quadratic, true_exceptions)
from .continuants import _check_entries, _continuant, anticontinuant, euler_residual
from .errors import DomainError, as_plain, is_int, render_csv

Mode = Literal["refined", "coarse"]


class ViolationRecord(NamedTuple):
    alpha: Optional[int]
    beta: Optional[int]
    expansion: Optional[tuple[int, ...]]
    kind: str


class CoarseCounterexample(NamedTuple):
    alpha: int
    beta: int
    marginal: int
    core: tuple[int, ...]
    direction: str


class ExcludedModulus(NamedTuple):
    modulus: int
    certificates: tuple[ExceptionalCertificate, ...]


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

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The fields of this report's kind plus `ok`; tuples serialize as JSON arrays."""
        if self.kind == "main_theorem":
            other = ("trials", "seed")
        else:
            other = ("n", "s", "mode", "excluded", "coarse_counterexamples",
                     "necessary_exclusions")
        out = {k: v for k, v in as_plain(self).items() if k not in other}
        return {**out, "ok": self.ok}

    def to_json(self) -> str:
        import json  # kept out of CLI start-up, like random

        return json.dumps(self.to_dict(), sort_keys=True)


def verify_identities(max_alpha: int, trials: int = 10000, seed: int = 0) -> VerificationReport:
    """Exhaustive identity sweep over coprime pairs with alpha <= max_alpha.

    Per pair: both representations satisfy beta^2 + A*beta + (-1)^len = 0
    (mod alpha); the selected representation has |A| < alpha / 2; the parity
    predictor agrees with the selected length.  Then `trials` random
    sequences are checked for a vanishing continuant-identity residual and
    for A(reversed) = -A.  Failures become report records, not exceptions.
    """
    if not is_int(max_alpha) or max_alpha < 2:
        raise DomainError(f"max_alpha must be an integer >= 2, got {max_alpha!r}")
    if not is_int(trials) or trials < 0:
        raise DomainError(f"trials must be a non-negative integer, got {trials!r}")
    if not is_int(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    violations: list[ViolationRecord] = []
    checked = 0
    for alpha in range(2, max_alpha + 1):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            checked += 1
            conv = expand(alpha, beta)
            for q in (conv, alternate_expansion(conv)):
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
    selected expansion carries a type of `enumerate_types(n)` at core-length
    parity s.  The roots come from `solve_quadratic`; the typed denominators
    are composed from the catalog's types (`_typed_pairs`), so the sweep
    compares two independent derivations.  In coarse mode the same refined
    comparison runs, and additionally each modulus is rechecked against the
    sigma-free printable (c, core) list, each pair composed at both sigmas;
    disagreements land in `coarse_counterexamples` without affecting
    `violations`.  Excluded moduli where the refined equality fails anyway
    are reported as `necessary_exclusions`.  Bad arguments, including
    |n| > TARGET_MAX, raise DomainError before any modulus is visited.
    """
    if mode not in ("refined", "coarse"):
        raise DomainError(f"mode must be 'refined' or 'coarse', got {mode!r}")
    if not is_int(alpha_max) or alpha_max < 1:
        raise DomainError(f"alpha_max must be a positive integer, got {alpha_max!r}")
    if abs(spec.n) > TARGET_MAX:  # enumerate_types' refusal, before the certified set
        raise DomainError(f"target must be at most {TARGET_MAX} in absolute value, got {spec.n}")
    candidates = exceptional_candidates(spec)  # also validates (n, s)
    n, s = spec.n, spec.s
    catalog = enumerate_types(n, "odd" if s else "even")
    typed_of = _typed_pairs(catalog.finite_types, alpha_max)
    if mode == "coarse":
        listed_of = _typed_pairs([ExtendedAsymmetryType(c, core, sigma)
                                  for c, core in catalog.coarse_pairs()
                                  for sigma in ("even", "odd")], alpha_max)

    excluded = tuple(ExcludedModulus(m, certs) for m, certs in candidates.items()
                     if m <= alpha_max)
    violations: list[ViolationRecord] = []
    coarse_cex: list[CoarseCounterexample] = []
    necessary: list[int] = []
    checked = 0
    matches = 0

    for alpha in range(2, alpha_max + 1):
        roots = set(solve_quadratic(spec, alpha))
        typed = typed_of.get(alpha, set())
        if alpha in candidates:
            if roots != typed:
                necessary.append(alpha)
            continue
        checked += len(roots | typed)
        matches += len(roots & typed)
        for kind, betas in (("root_without_type", roots - typed),
                            ("type_without_root", typed - roots)):
            for beta in sorted(betas):
                violations.append(ViolationRecord(alpha, beta, expand(alpha, beta), kind))
        if mode == "coarse":
            listed = listed_of.get(alpha, set())
            for direction, betas in (("root_without_listed_type", roots - listed),
                                     ("listed_type_without_root", listed - roots)):
                for beta in sorted(betas):
                    q = expand(alpha, beta)
                    dec = decompose(q)
                    c, core = (dec.c, dec.core) if len(q) % 2 == s and dec.c else (0, ())
                    coarse_cex.append(CoarseCounterexample(alpha, beta, c, core, direction))

    return VerificationReport(
        kind="main_theorem", alpha_min=2, alpha_max=alpha_max,
        checked=checked, matches=matches, violations=tuple(violations),
        n=n, s=s, mode=mode, excluded=excluded,
        coarse_counterexamples=tuple(coarse_cex),
        necessary_exclusions=tuple(necessary))


def _typed_pairs(types: Iterable[ExtendedAsymmetryType],
                 alpha_max: int) -> dict[int, set[int]]:
    """Denominators by modulus <= alpha_max of the selected expansions carrying `types`.

    The sequences of type (c, core, sigma) are exactly
    outer + (p + (-1)^sigma * c, *core, p) + reversed(outer) with a symmetric
    outer layer of length d = sigma (mod 2), a pivot p >= 1 and a first entry
    >= 1.  The walk wraps each pivot's block depth-first in layers (a, ..., a),
    carrying only K(q), K(q[1:]), K(q[:-1]) and K(q[1:-1]) of each sequence q:
    (a, *q, a) has K = a*(a*K(q) + K(q[1:]) + K(q[:-1])) + K(q[1:-1]),
    denominator a*K(q) + K(q[:-1]), and its own four in O(1).  K grows with
    every entry and every layer, so each loop stops at its first modulus past
    alpha_max.  A sequence is the selected expansion of its (K(q), K(q[1:]))
    when its first entry is 1 exactly when its last is, which only the
    unwrapped block can fail.  The decomposition is unique, so no pair comes
    twice.  Each type's core is validated once, before its walk, so a bad
    entry raises DomainError; the blocks and the walk run unchecked.
    """
    pairs: dict[int, set[int]] = {}

    def walk(k: int, kt: int, kh: int, km: int, record: bool, record_wraps: bool) -> None:
        # q has K(q) = k, K(q[1:]) = kt, K(q[:-1]) = kh and K(q[1:-1]) = km; its
        # wrappings are recorded at every other depth, starting from record_wraps
        if record:
            pairs.setdefault(k, set()).add(kt)
        a = 1
        while (alpha := a * (a * k + kt + kh) + km) <= alpha_max:
            walk(alpha, a * k + kh, a * k + kt, k, record_wraps, not record_wraps)
            a += 1

    for t in types:
        _check_entries(t.core)
        sigma = t.sigma == "odd"
        shift = -t.c if sigma else t.c
        for p in range(max(1, 1 - shift), alpha_max + 1):  # K(block) >= p
            q = (p + shift, *t.core, p)
            k, kt = _continuant(q, 0, len(q) - 1), _continuant(q, 1, len(q) - 1)
            if k > alpha_max:
                break
            walk(k, kt, _continuant(q, 0, len(q) - 2), _continuant(q, 1, len(q) - 2),
                 not sigma and (q[0] == 1) == (q[-1] == 1), sigma)
    return pairs


class EnumerationReport(NamedTuple):
    """Hits and distinct type instances met; violations empty means the check held."""

    hits: int
    types: int
    violations: tuple[ViolationRecord, ...]
    ok = VerificationReport.ok
    to_json = VerificationReport.to_json

    def to_dict(self) -> dict:
        """The fields plus `ok`, as `VerificationReport.to_dict` gives them."""
        return {**as_plain(self), "ok": self.ok}


def verify_enumeration(max_len: int, max_entry: int, value_bound: int) -> EnumerationReport:
    """Check the type catalog against every bounded sequence with a small value.

    Every quotient sequence with length <= max_len, entries in [1, max_entry]
    and 1 <= |anticontinuant| <= value_bound is met, and each distinct type
    instance (c, core, sigma, value) must give its value through the type
    formula and be listed by `enumerate_types(value)`; otherwise it is a
    "formula_mismatch" or "missing_from_catalog" violation.  The scanner's
    two-sided blocks give the instances, the hit count and each instance's
    first hit in scan order directly (see `cfasym.exhaustive`), so no hit
    is listed: the stock bounds have 609,982 hits but 88 blocks and 352
    instances.  Each instance is decomposed once, at its first hit, and the
    instances are checked in the order of those hits.  One search builds
    the catalogs of every value up to the largest one met, as
    `enumerate_types` would one at a time.  Bad bounds raise DomainError
    before that search, and so does a bound that could reach a value beyond
    TARGET_MAX, whose catalog `enumerate_types` refuses.
    """
    # the scanner stays out of CLI start-up
    from .exhaustive import _checked_bound, _two_sided_blocks, scan_position

    bound = _checked_bound(max_len, max_entry, value_bound)
    if bound > TARGET_MAX:
        raise DomainError(f"value_bound must be at most {TARGET_MAX}, got {value_bound}")
    first = []  # each instance's first hit: (scan position, sequence, value)
    hits = 0
    for m, d, v in _two_sided_blocks(max_len, max_entry, bound):
        depths = range((max_len - len(m)) // 2)  # of the outer layer
        hits += 2 * (max_entry - d) * sum(max_entry ** depth for depth in depths)
        for block, value in [((1 + d, *m, 1), v), ((1, *m[::-1], 1 + d), -v)]:
            for parity in range(min(2, len(depths))):
                q = min(((1,) * depth + block + (1,) * depth for depth in depths[parity::2]),
                        key=scan_position)
                first.append((scan_position(q), q, -value if parity else value))
    top = max((abs(value) for *_, value in first), default=0)  # often far below bound
    catalogs = {sign * v: _catalog(sign * v, pairs)
                for v, pairs in _sigma_even_pairs(top).items() for sign in (1, -1)}
    violations: list[ViolationRecord] = []
    for _, q, value in sorted(first):
        dec = decompose(q)
        if type_value(extended_type(dec)) != value:
            violations.append(ViolationRecord(None, None, q, "formula_mismatch"))
            continue
        if not catalogs[value].contains(dec.c, dec.core, dec.sigma):
            violations.append(ViolationRecord(None, None, q, "missing_from_catalog"))
    return EnumerationReport(hits, len(first), tuple(violations))


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
    covered = set(main_theorem_specs(n_max))  # refuses a bad n_max first
    rows = []
    for value, pairs in _sigma_even_pairs(n_max).items():
        # one catalog per value, split by core-length parity as enumerate_types does
        catalog = _catalog(value, pairs)
        for parity_bit, parity in ((0, "even"), (1, "odd")):
            # sort on (core length, marginal, entries), a family's slot counting as 0
            keyed = [((len(core), c, core), c, ",".join(map(str, core)))
                     for c, core in catalog.coarse_pairs() if len(core) % 2 == parity_bit]
            keyed += [(f.sort_key(), f.c, f.display_core())
                      for f in catalog.coarse_families() if len(f.pattern) % 2 == parity_bit]
            entries = [TableEntry(c, core) for _, c, core in sorted(keyed)]
            spec = CongruenceSpec(value, parity_bit)
            exceptions = tuple(true_exceptions(spec)) if spec in covered else ()
            rows.append(TableRow(value, parity, tuple(entries), exceptions))
    return TableDocument(n_max=n_max, rows=tuple(rows))
