import numpy as np
import pytest

import laserhydrogen.ionization as ionization
from laserhydrogen import LaserField, assemble, diagonalize, enumerate_basis
from laserhydrogen.errors import DomainError


@pytest.fixture(scope="session")
def basis5():
    return enumerate_basis(5)


@pytest.fixture(scope="session")
def decomp5(basis5):
    """Strong-field decomposition on a small basis, shared across tests."""
    laser = LaserField(0.4, 0.018)
    return diagonalize(assemble(basis5, laser)), laser


def w_matrix(decomp) -> np.ndarray:
    """Time-averaged transition matrix W(a, b) = sum_i C_a^2 C_b^2 between
    the states of the decomposition's class."""
    c2 = decomp.coefficients**2
    return c2 @ c2.T


@pytest.fixture
def bound_free_fails_at_second_point(monkeypatch):
    """The bound-free radial integrals raise DomainError, but only while the
    ionization records of a scan's second point are computed."""
    calls = {"records": 0}
    real_records = ionization.ionization_records
    real_ladders = ionization._bound_free_ladders

    def counting_records(*args, **kwargs):
        calls["records"] += 1
        return real_records(*args, **kwargs)

    def _bound_free_ladders(n0, l_min, k):
        if calls["records"] == 2:
            raise DomainError("injected bound-free failure")
        return real_ladders(n0, l_min, k)

    monkeypatch.setattr(ionization, "ionization_records", counting_records)
    monkeypatch.setattr(ionization, "_bound_free_ladders", _bound_free_ladders)
