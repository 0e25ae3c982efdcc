import dataclasses
import os
import sys

import pytest

# No bytecode cache in src/, here or in the CLI subprocesses: a stale one
# changes how much compiling each CLI start does, and so what a copy measures.
# Set before cfasym is first imported.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from cfasym import verifier
from cfasym.asymmetry import decompose, enumerate_types, extended_type

PLANTED_MISS = (2, 1, 2, 1)  # value 4: the type (c=1, core=(1, 2), sigma even)


@pytest.fixture
def planted_miss(monkeypatch):
    """Drop PLANTED_MISS's type from the catalogs the verifier builds; return that type."""
    dropped = extended_type(decompose(PLANTED_MISS))

    def catalog_without(n, lambda_parity="both"):
        catalog = enumerate_types(n, lambda_parity)
        return dataclasses.replace(catalog, finite_types=catalog.finite_types - {dropped})

    monkeypatch.setattr(verifier, "enumerate_types", catalog_without)
    return dropped


@pytest.fixture
def plant_roots(monkeypatch):
    """Return plant(alpha, drop=(), add=()), which edits the verifier's root set at alpha.

    The fault goes on the root side, `solve_quadratic`; `planted_miss` plants
    one on the typed side, which the verifier composes from its catalog.
    """
    def plant(alpha, drop=(), add=()):
        solve = verifier.solve_quadratic

        def planted(spec, modulus):
            roots = solve(spec, modulus)
            return sorted(set(roots) - set(drop) | set(add)) if modulus == alpha else roots

        monkeypatch.setattr(verifier, "solve_quadratic", planted)
    return plant
