import pytest

from enriques_bn import invariants
from enriques_bn.lattice import (
    canonical_form,
    config_i,
    config_ii,
    config_iii,
    embed_configuration,
)


@pytest.fixture(autouse=True)
def fresh_polarizations():
    """Start every test on an empty per-polarization cache, so no test reads
    a report cached before it monkeypatched what the report calls."""
    invariants.polarization.cache_clear()


@pytest.fixture(scope="session")
def form():
    return canonical_form()


@pytest.fixture(scope="session")
def pair_one():
    """Two primitive isotropic classes meeting in 1 (a hyperbolic pair)."""
    return embed_configuration(config_i(2))


@pytest.fixture(scope="session")
def pair_two():
    """Two primitive isotropic classes meeting in 2."""
    return embed_configuration(config_ii(2))


@pytest.fixture(scope="session")
def triple_one():
    return embed_configuration(config_i(3))


@pytest.fixture(scope="session")
def triple_iii():
    return embed_configuration(config_iii(3))
