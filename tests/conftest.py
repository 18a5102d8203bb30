import pytest

from helpers import make_instance, record_factors


@pytest.fixture(scope="session")
def kkt_2x2():
    """Tiny assembled instance: 9 vertices, KKT dimension 27."""
    return make_instance(nx=2, ny=2, n_obs=3, alpha=1e-2)


@pytest.fixture(scope="session")
def kkt_4x4():
    """Small instance used for quadratic-form and cross-solver checks."""
    return make_instance(nx=4, ny=4, n_obs=6, alpha=1e-2)


@pytest.fixture
def factors(monkeypatch):
    """Every SuperLU factor made while the test runs, in order, with the
    matrix each was made from in factors.inputs."""
    return record_factors(monkeypatch)
