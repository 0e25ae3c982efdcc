"""The seeded `cfasym` CLI query mix and the independent checks of its outputs.

The mix has a fixed composition, so the seed changes parameters but not the
amount of work: 6 `--help`, 30 `solve` at moduli in [10^5, 10^6] (one per
stratum of width 30,000), and 6 queries of each of 14 other kinds that
together cover every subcommand.  Kinds with CSV output cycle through all
three formats.  Every check recomputes the expected answer with plain
integers, or with a numpy int64 residue scan for roots (exact: b^2 < 10^12),
and never calls `cfasym`.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

HELP_QUERIES = 6
LARGE_SOLVES = 30
LARGE_ALPHA = (10 ** 5, 10 ** 6)
PER_KIND = 6


@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[str], bool]


# -- plain-integer oracles ------------------------------------------------

def K(q) -> int:
    prev2, prev = 0, 1
    for e in q:
        prev2, prev = prev, e * prev + prev2
    return prev


def A(q) -> int:
    return K(q[:-1]) - K(q[1:]) if len(q) > 1 else 0


def evaluate(q) -> tuple[int, int]:
    return K(q), K(q[1:])


def euclid(a: int, b: int) -> list[int]:
    qs = []
    while b:
        qs.append(a // b)
        a, b = b, a % b
    return qs


def alternate(q) -> tuple[int, ...]:
    """The other representation of the same rational: split or merge the tail."""
    q = tuple(q)
    return q[:-1] + (q[-1] - 1, 1) if q[-1] >= 2 else q[:-2] + (q[-2] + 1,)


def both(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Both representations of a/b; only one for 1/1."""
    q = tuple(euclid(a, b))
    return (q,) if q == (1,) else (q, alternate(q))


def selected(a: int, b: int) -> list[int]:
    qs = euclid(a, b)
    if len(qs) >= 2 and (qs[0] == 1) != (qs[-1] == 1):
        qs[-1] -= 1
        qs.append(1)
    return qs


def type_value(c: int, core, sigma_odd: bool) -> int:
    return c * K(core) - (-1 if sigma_odd else 1) * A(core)


def roots(n: int, s: int, alpha: int) -> list[int]:
    x = np.arange(1, alpha, dtype=np.int64)
    return [int(r) for r in x[(x * x + n * x + (-1) ** s) % alpha == 0]]


def divisors(v: int) -> set[int]:
    return {d for d in range(1, v + 1) if v % d == 0}


def exceptional_moduli(n: int, s: int) -> list[int]:
    a, e = abs(n), (-1) ** s
    out = set(range(1, 2 * a + 1))
    for g in range(1, a):
        out |= divisors(abs(g * (g - a) + e))
    for h in range(1, 2 * a):
        out |= divisors(abs(h * (h - 2 * a) + 4 * e))
    return sorted(out)


def coprime_pairs(max_alpha: int) -> int:
    return sum(1 for a in range(2, max_alpha + 1) for b in range(1, a) if gcd(a, b) == 1)


def main_theorem_checked(n: int, s: int, alpha_max: int) -> int:
    """Roots over the non-excluded moduli: `checked` when the theorem holds."""
    excluded = set(exceptional_moduli(n, s))
    return sum(len(roots(n, s, a)) for a in range(2, alpha_max + 1) if a not in excluded)


# -- output parsing --------------------------------------------------------

def ints(text: str) -> list[int]:
    text = text.strip()
    return [int(t) for t in text.split(",")] if text else []


def lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n")


def csv_rows(out: str, header: str) -> list[list[str]] | None:
    rows = lines(out)
    return [r.split(",") for r in rows[1:]] if rows[0] == header else None


def render(fmt: str, value_text: str, payload_ok: Callable[[dict], bool]):
    """Check for a kind whose text output is one value and JSON one payload."""
    if fmt == "json":
        return lambda out: payload_ok(json.loads(out))
    return lambda out: out == value_text + "\n"


# -- the mix ---------------------------------------------------------------

def _seq(rng: random.Random, lo: int, hi: int, top: int = 9) -> tuple[int, ...]:
    return tuple(rng.randint(1, top) for _ in range(rng.randint(lo, hi)))


def _join(q) -> str:
    return ",".join(map(str, q))


def _spec(rng: random.Random, top: int = 6) -> tuple[int, int]:
    while True:
        n, s = rng.choice([1, -1]) * rng.randint(1, top), rng.randint(0, 1)
        if not (s == 0 and abs(n) == 2):
            return n, s


def _coprime(rng: random.Random, top: int) -> tuple[int, int]:
    while True:
        a = rng.randint(3, top)
        b = rng.randint(1, a - 1)
        if gcd(a, b) == 1:
            return a, b


def _solve(n: int, s: int, alpha: int, fmt: str):
    expect = roots(n, s, alpha)
    if fmt == "csv":
        check = lambda out: out == "root\n" + "".join(f"{r}\n" for r in expect)
    else:
        check = render(fmt, _join(expect),
                       lambda p: p == {"alpha": alpha, "roots": expect})
    return ("solve", "--n", str(n), "--s", str(s), "--alpha", str(alpha)), check


def _expand(rng, fmt):
    a, b = _coprime(rng, 10 ** 6)
    parity = rng.choice(["conv", "even", "odd"])

    def good(q):
        if evaluate(q) != (a, b):
            return False
        if parity == "conv":
            return (q[0] == 1) == (q[-1] == 1)
        return len(q) % 2 == (parity == "odd")

    if fmt == "json":
        check = lambda out: good(json.loads(out)["quotients"])
    else:
        check = lambda out: good(ints(out))
    return ("expand", str(a), str(b), "--parity", parity), check


def _predict(rng, fmt):
    a, b = _coprime(rng, 10 ** 6)
    parity = "odd" if len(selected(a, b)) % 2 else "even"
    return (("expand", str(a), str(b), "--predict-parity"),
            render(fmt, parity, lambda p: p["predicted_parity"] == parity
                   and p["v_inverse"] == pow(b, -1, a)))


def _from_quotients(rng, fmt):
    q = _seq(rng, 1, 14)
    a, b = evaluate(q)
    return (("expand", "--from-quotients", _join(q)),
            render(fmt, f"{a}/{b}", lambda p: p == {"alpha": a, "beta": b}))


def _continuant(rng, fmt):
    variant = rng.randrange(3)
    if variant == 0:
        k = rng.randint(0, 90)
        f = K((1,) * (k - 1)) if k else 0
        return ("continuant", "--fib", str(k)), render(fmt, str(f), lambda p: p == {"fibonacci": f})
    q = _seq(rng, 4, 16)
    if variant == 1:
        i = rng.randint(0, len(q) - 1)
        j = rng.randint(i, len(q) - 1)
        v = K(q[i:j + 1])
        return (("continuant", _join(q), "--i", str(i), "--j", str(j)),
                render(fmt, str(v), lambda p: p == {"continuant": v}))
    m = rng.randint(0, len(q) - 1)
    n = rng.randint(m, len(q) - 1)
    l = rng.randint(0, m + 2)
    k = rng.randint(0, l)
    return (("continuant", _join(q), "--euler", f"{k},{l},{m},{n}"),
            render(fmt, "0", lambda p: p == {"euler_residual": 0}))


def _anticont(rng, fmt):
    q = _seq(rng, 2, 16)
    v = A(q)
    return ("anticont", _join(q)), render(fmt, str(v), lambda p: p == {"anticontinuant": v})


def _type_seq(rng, fmt):
    q = _seq(rng, 2, 14, top=4)
    v = A(q)
    if fmt == "json":
        return ("type", _join(q)), lambda out: json.loads(out)["value"] == v
    return ("type", _join(q)), lambda out: out.rstrip("\n").endswith(f" value={v}")


def _type_build(rng, fmt):
    c = rng.choice([1, -1]) * rng.randint(1, 4)
    core = _seq(rng, 0, 4, top=5)
    if rng.randrange(2):
        sigma_odd = bool(rng.randrange(2))
        v = type_value(c, core, sigma_odd)
        argv = ("type", "--marginal", str(c), "--core", _join(core),
                "--sigma", "odd" if sigma_odd else "even")
        return argv, render(fmt, str(v), lambda p: p == {"value": v})
    outer = _seq(rng, 0, 3, top=5)
    sign = -1 if len(outer) % 2 else 1
    pivot = rng.randint(max(1, 1 - sign * c), 6)
    q = outer + (pivot + sign * c,) + core + (pivot,) + outer[::-1]
    argv = ("type", "--marginal", str(c), "--core", _join(core), "--pivot", str(pivot),
            "--outer", _join(outer))
    return argv, render(fmt, _join(q), lambda p: p == {"quotients": list(q)})


def _enumerate(rng, fmt):
    n = rng.choice([1, -1]) * rng.randint(1, 8)
    parity = rng.choice(["even", "odd", "both"])
    coarse = rng.randrange(2) == 1

    def good(rows):  # rows of (marginal, core text, sigma or None)
        if not rows:
            return False
        for c, core, sigma in rows:
            if "p" in core:  # a parametric family row
                continue
            q = tuple(int(t) for t in re.split("[,.]", core)) if core else ()
            if parity != "both" and len(q) % 2 != (parity == "odd"):
                return False
            if type_value(int(c), q, sigma == "odd") != n:
                return False
        return True

    argv = ("enumerate", "--n", str(n), "--parity", parity) + (("--coarse",) if coarse else ())
    key = "coarse" if coarse else "types"
    if fmt == "json":
        def check(out):
            p = json.loads(out)
            return p["target"] == n and good(
                [(r["marginal"], r["core"] if isinstance(r["core"], str) else _join(r["core"]),
                  r.get("sigma")) for r in p[key]])
    elif fmt == "csv":
        header = "marginal,core" if coarse else "marginal,core,sigma"

        def check(out):
            rows = csv_rows(out, header)
            return rows is not None and good([(r[0], r[1], r[2] if len(r) > 2 else None)
                                              for r in rows])
    else:
        def check(out):
            rows = [[f.strip() for f in ln.split(";")] for ln in lines(out)]
            return good([(r[0], r[1], r[2] if len(r) > 2 else None) for r in rows])
    return argv, check


def _solve_small(rng, fmt):
    n, s = _spec(rng, 8)
    return _solve(n, s, rng.randint(2, 5000), fmt)


def _exceptional(rng, fmt):
    n, s = _spec(rng, 8)
    e = (-1) ** s
    moduli = exceptional_moduli(n, s)
    pairs = [(m, b) for m in moduli for b in range(1, m)
             if (b * b + n * b + e) % m == 0 or (b * b - n * b + e) % m == 0]
    base = ("exceptional", "--n", str(n), "--s", str(s))
    variant = rng.randrange(3 if fmt == "csv" else 4)

    def pair_list(out):
        if fmt == "json":
            return [tuple(p) for p in json.loads(out)["pairs"]]
        if fmt == "csv":
            rows = csv_rows(out, "alpha,beta")
            return None if rows is None else [(int(a), int(b)) for a, b in rows]
        return [tuple(int(t) for t in p.strip("()").split(",")) for p in out.split()]

    if variant == 0:
        if fmt == "csv":
            return base, lambda out: out == "modulus\n" + "".join(f"{m}\n" for m in moduli)
        return base, render(fmt, _join(moduli), lambda p: p == {"moduli": moduli})
    if variant == 1:
        return base + ("--pairs",), lambda out: pair_list(out) == pairs
    if variant == 2:
        true = [(m, b) for m, b in pairs if not any(A(q) in (n, -n) for q in both(m, b))]
        return base + ("--true-exceptions",), lambda out: pair_list(out) == true
    if fmt == "json":
        return (base + ("--certificates",),
                lambda out: sorted(map(int, json.loads(out))) == moduli)
    return (base + ("--certificates",),
            lambda out: [int(ln.split(":")[0]) for ln in lines(out)] == moduli)


def _folded(rng, fmt):
    n = rng.randint(2, 15)
    a = rng.randint(1, n - 1)
    b = rng.randint(1, 7)
    eps = rng.choice([1, -1])
    alpha, beta = b * n * n, b * a * n - eps
    argv = ("folded", "--b", str(b), "--n", str(n), "--a", str(a), "--eps", str(eps))
    if rng.randrange(2):
        def good(b2, n2, a2, e2):
            return b2 * n2 * n2 == alpha and b2 * a2 * n2 - e2 == beta
        if fmt == "json":
            return argv + ("--normalize-only",), lambda out: good(
                *(json.loads(out)[k] for k in ("b", "n", "a", "epsilon")))
        return argv + ("--normalize-only",), lambda out: good(
            *(int(t.split("=")[1]) for t in out.split()))
    if fmt == "json":
        def check(out):
            p = json.loads(out)
            return (p["alpha"], p["beta"]) == (alpha, beta) and evaluate(p["quotients"]) == (alpha, beta)
        return argv, check
    b_norm = b * gcd(a, n) ** 2
    forms = ("form=1", "x=None") if b_norm == 1 else ("form=2", "form=3", f"x={b_norm - 1}")

    def check(out):  # the pivot may come from the other representation
        seq, form, x, pivot = out.split()
        q = ints(seq)
        return (evaluate(q) == (alpha, beta) and form in forms and x in forms
                and pivot.startswith("pivot=") and int(pivot[6:]) in q + list(alternate(q)))
    return argv, check


def _report_check(fmt, checked):
    if fmt == "json":
        return render(fmt, "", lambda p: p["ok"] and p["checked"] == checked
                      and p["matches"] == checked and p["violations"] == [])
    if fmt == "csv":
        return lambda out: out == "kind,alpha,beta,expansion\n"
    return lambda out: lines(out)[0] == f"checked={checked} matches={checked} violations=0"


def _verify_identities(rng, fmt):
    alpha_max, trials, seed = rng.randint(20, 80), rng.randint(50, 300), rng.randint(0, 10 ** 6)
    return (("verify", "identities", "--alpha-max", str(alpha_max), "--trials", str(trials),
             "--seed", str(seed)), _report_check(fmt, coprime_pairs(alpha_max) + trials))


def _verify_main(rng, fmt):
    n, s = _spec(rng, 6)
    alpha_max = rng.randint(50, 300)
    mode = rng.choice(["refined", "coarse"]) if fmt != "text" else "refined"
    return (("verify", "main", "--n", str(n), "--s", str(s), "--alpha-max", str(alpha_max),
             "--mode", mode), _report_check(fmt, main_theorem_checked(n, s, alpha_max)))


def _table(rng, fmt):
    k = rng.randint(1, 4)
    argv = ("table", "--n-max", str(k))
    if fmt == "json":
        return argv, render(fmt, "", lambda p: p["n_max"] == k and len(p["rows"]) == 2 * k)
    if fmt == "csv":
        def check(out):
            rows = csv_rows(out, "value,parity,marginal,core,exceptions")
            return rows is not None and {r[0] for r in rows} == {str(v) for v in range(1, k + 1)}
        return argv, check
    return argv, lambda out: sum(ln.startswith("(") for ln in lines(out)) == 2 * k


# kind -> (function making one query, formats it supports)
KINDS = {
    "expand": (_expand, ("text", "json")),
    "predict_parity": (_predict, ("text", "json")),
    "from_quotients": (_from_quotients, ("text", "json")),
    "continuant": (_continuant, ("text", "json")),
    "anticont": (_anticont, ("text", "json")),
    "type_sequence": (_type_seq, ("text", "json")),
    "type_build": (_type_build, ("text", "json")),
    "enumerate": (_enumerate, ("text", "json", "csv")),
    "solve_small": (_solve_small, ("text", "json", "csv")),
    "exceptional": (_exceptional, ("text", "json", "csv")),
    "folded": (_folded, ("text", "json")),
    "verify_identities": (_verify_identities, ("text", "json", "csv")),
    "verify_main": (_verify_main, ("text", "json", "csv")),
    "table": (_table, ("text", "json", "csv")),
}


HELP = Query("help", ("--help",), lambda out: out.startswith("usage: cfasym"))


def build_mix(seed: int) -> list[Query]:
    """The query mix for `seed`, in a seeded order."""
    rng = random.Random(seed)
    mix = [HELP] * HELP_QUERIES
    lo, hi = LARGE_ALPHA
    width = (hi - lo) // LARGE_SOLVES
    for i in range(LARGE_SOLVES):
        n, s = _spec(rng)
        fmt = ("text", "json", "csv")[i % 3]
        argv, check = _solve(n, s, rng.randrange(lo + i * width, lo + (i + 1) * width), fmt)
        mix.append(Query("solve", ("--format", fmt) + argv, check))
    for kind, (build, formats) in KINDS.items():
        for i in range(PER_KIND):
            fmt = formats[i % len(formats)]
            argv, check = build(rng, fmt)
            mix.append(Query(kind, ("--format", fmt) + tuple(argv), check))
    rng.shuffle(mix)
    return mix
