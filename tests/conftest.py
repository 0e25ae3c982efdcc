import dataclasses

import pytest

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
