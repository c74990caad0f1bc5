import pytest

from nilcone import GradedCalculator, build
from weyl_oracle import enumerate_group


@pytest.fixture(scope="session")
def systems():
    """Shared built root systems, keyed by (family, rank)."""
    cache = {}

    def get(family, rank):
        key = (family, rank)
        if key not in cache:
            cache[key] = build(family, rank)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def groups(systems):
    cache = {}

    def get(family, rank, cap=3_000_000):
        key = (family, rank)
        if key not in cache:
            cache[key] = enumerate_group(systems(family, rank), cap)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def calculators(systems):
    cache = {}

    def get(family, rank):
        key = (family, rank)
        if key not in cache:
            cache[key] = GradedCalculator(systems(family, rank))
        return cache[key]

    return get
