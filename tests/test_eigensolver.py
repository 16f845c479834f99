import logging
import math
import warnings

import numpy as np
import pytest

from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen.eigensolver import (
    EigenDecomposition,
    diagonalize,
    track_state,
)
from laserhydrogen.errors import ConfigurationError, ConvergenceError
from laserhydrogen.hamiltonian import LaserField, PseudoHamiltonianMatrix, assemble


def _matrix_from(entries, basis):
    return PseudoHamiltonianMatrix(
        entries=entries,
        basis=basis,
        laser=LaserField(0.0, 1.0),
    )


def test_two_by_two_analytic():
    # restrict to a hand-built 2x2: eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2+b^2)
    basis = enumerate_basis(2)
    a, b, c = -0.5, 0.03, -0.125
    entries = np.diag([a, c, -1.0, -1.1, -1.2])
    entries[0, 1] = entries[1, 0] = b
    decomp = diagonalize(_matrix_from(entries, basis))
    mean, half = (a + c) / 2, math.hypot((a - c) / 2, b)
    top = sorted(decomp.energies)[-2:]
    assert top[0] == pytest.approx(mean - half, rel=1e-14)
    assert top[1] == pytest.approx(mean + half, rel=1e-14)


def test_orthogonality_and_residuals(decomp5):
    decomp, _ = decomp5
    c = decomp.coefficients
    n = decomp.dimension
    np.testing.assert_allclose(c.T @ c, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(c @ c.T, np.eye(n), atol=1e-12)


def test_energies_ascending(decomp5):
    decomp, _ = decomp5
    assert np.all(np.diff(decomp.energies) >= 0)


def test_sign_convention(decomp5):
    decomp, _ = decomp5
    c = decomp.coefficients
    pivots = np.argmax(np.abs(c), axis=0)
    assert np.all(c[pivots, np.arange(c.shape[1])] > 0)


def test_zero_field_reproduces_bare_energies():
    basis = enumerate_basis(3)
    omega = 0.1
    decomp = diagonalize(assemble(basis, LaserField(0.0, omega)))
    bare = sorted(-1 / (2 * s.n**2) + s.mu * omega for s in basis.states)
    np.testing.assert_allclose(decomp.energies, bare, atol=1e-15)


def test_nonsymmetric_rejected():
    basis = enumerate_basis(2)
    entries = np.diag([-0.5, -0.125, -0.2, -0.3, -0.4])
    entries[0, 1] = 1e-3  # not mirrored
    with pytest.raises(ConfigurationError):
        diagonalize(_matrix_from(entries, basis))


def test_near_degenerate_pairs():
    basis = enumerate_basis(2)
    entries = np.diag([-0.5, -0.5 + 1e-12, -0.3, -0.2, -0.1])
    decomp = diagonalize(_matrix_from(entries, basis))
    index, gaps = decomp.level_gaps()
    assert list(index[gaps < 1e-10]) == [0]
    assert list(index[gaps < 1e-14]) == []


def test_track_state_zero_field():
    basis = enumerate_basis(3)
    decomp = diagonalize(assemble(basis, LaserField(0.0, 0.1)))
    tracked = track_state(decomp, QuantumNumbers(2, 1, -1))
    assert tracked.overlap == pytest.approx(1.0, abs=1e-12)
    assert not tracked.ambiguous
    # the tracked eigenvalue is the bare pseudo-energy E_2 - omega
    assert decomp.energies[tracked.index] == pytest.approx(-0.125 - 0.1, rel=1e-12)


def test_track_state_warns_when_strongly_mixed(caplog):
    basis = enumerate_basis(2)
    # hand-built decomposition: the (1,0,0) row is spread 1/3-1/3-1/3
    s2, s3, s6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
    c = np.eye(5)
    c[:3, :3] = np.array(
        [
            [1 / s3, 1 / s3, 1 / s3],
            [1 / s2, -1 / s2, 0.0],
            [1 / s6, 1 / s6, -2 / s6],
        ]
    )
    decomp = EigenDecomposition(
        energies=np.array([-0.5, -0.4, -0.3, -0.2, -0.1]),
        coefficients=c,
        basis=basis,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported through logging, not warnings
        with caplog.at_level(logging.INFO, logger="laserhydrogen.eigensolver"):
            tracked = track_state(decomp, QuantumNumbers(1, 0, 0))
    assert [r.levelno for r in caplog.records] == [logging.INFO]
    assert "strongly mixed" in caplog.text
    assert tracked.ambiguous
    assert tracked.overlap == pytest.approx(1 / 3, rel=1e-12)
    assert tracked.index == 0  # tie broken toward the lowest pseudo-energy


def test_track_state_outside_basis():
    basis = enumerate_basis(2)
    decomp = diagonalize(assemble(basis, LaserField(0.0, 0.1)))
    with pytest.raises(ConfigurationError):
        track_state(decomp, QuantumNumbers(5, 0, 0))


@pytest.mark.parametrize("parity", [0, None], ids=["vector-solve", "whole-basis-solve"])
def test_lapack_failure_raises_convergence_error(monkeypatch, parity):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("injected: no convergence")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    matrix = assemble(enumerate_basis(3), LaserField(0.05, 0.1), parity=parity)
    with pytest.raises(ConvergenceError, match="eigensolver failed: injected"):
        diagonalize(matrix)
