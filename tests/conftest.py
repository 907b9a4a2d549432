import pytest

from fleetcarbon import config as cfgmod
from fleetcarbon.telemetry import ingest


@pytest.fixture(scope="session")
def run_config():
    return cfgmod.load_config()  # the bundled demo configuration


@pytest.fixture(scope="session")
def platforms(run_config):
    return cfgmod.load_platforms(run_config.platforms)


@pytest.fixture(scope="session")
def inventories(run_config):
    return cfgmod.load_inventories(run_config.inventories)


@pytest.fixture(scope="session")
def factor_config(run_config):
    return cfgmod.load_factors(run_config.factors)


@pytest.fixture(scope="session")
def fleet_dataset(run_config, platforms):
    return ingest(run_config.telemetry, platforms)
