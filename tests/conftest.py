import os
import sys

import pytest

# No bytecode cache in src/, here or in the CLI subprocesses: a stale one
# changes how much compiling each CLI start does, and so what a copy measures.
# Set before cfasym is first imported.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from cfasym import asymmetry, congruence
from cfasym.asymmetry import _catalog, decompose, extended_type
from per_value_catalog import enumerate_types_per_value

PLANTED_MISS = (2, 1, 2, 1)  # value 4: the type (c=1, core=(1, 2), sigma even)


@pytest.fixture
def plant_catalogs(monkeypatch):
    """Return plant(edit), which passes every catalog the library builds through edit.

    `enumerate_types`, `verify_enumeration` and `build_table` each build a
    value's catalog with `asymmetry._catalog`, so the fault reaches them
    all, at the signed value it is planted for.  A second plant replaces
    the first.
    """
    def plant(edit):
        def planted(n, pairs, lambda_parity="both"):
            return edit(_catalog(n, pairs, lambda_parity))

        monkeypatch.setattr(asymmetry, "_catalog", planted)
    return plant


@pytest.fixture
def planted_miss(plant_catalogs):
    """Drop PLANTED_MISS's type from the catalogs the library builds; return that type."""
    dropped = extended_type(decompose(PLANTED_MISS))
    plant_catalogs(lambda catalog: catalog._replace(
        finite_types=catalog.finite_types - {dropped}))
    return dropped


def _without_sigma_odd(catalog):
    return catalog._replace(finite_types=frozenset(t for t in catalog.finite_types
                                                   if t.sigma == "even"))


@pytest.fixture
def no_sigma_odd(plant_catalogs):
    """Drop every sigma-odd finite type from the library's catalogs; return the catalog maker.

    Many instances miss then, not just one: 64 at the bounds (7, 4, 6).
    The maker builds the same catalogs from the per-value reference search.
    """
    plant_catalogs(_without_sigma_odd)

    def catalog_without_sigma_odd(n, lambda_parity="both"):
        return _without_sigma_odd(enumerate_types_per_value(n, lambda_parity))

    return catalog_without_sigma_odd


@pytest.fixture
def plant_roots(monkeypatch):
    """Return plant(alpha, drop=(), add=()), which edits the verifier's root set at alpha.

    The fault goes on the root side, `congruence.solve_quadratic`;
    `planted_miss` plants one on the typed side, which the verifier composes
    from its catalog.  `true_exceptions` reads the same name, so the fault
    reaches it too: of this fixture's users only the battery's test builds
    a table, and its plant (root 2 dropped at 7) leaves the table's bytes
    as they are.
    """
    def plant(alpha, drop=(), add=()):
        solve = congruence.solve_quadratic

        def planted(spec, modulus):
            roots = solve(spec, modulus)
            return sorted(set(roots) - set(drop) | set(add)) if modulus == alpha else roots

        monkeypatch.setattr(congruence, "solve_quadratic", planted)
    return plant
