import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import laserhydrogen.eigensolver as eigensolver
import laserhydrogen.transitions as transitions
from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen.eigensolver import (
    DEGENERACY_GAP,
    EigenDecomposition,
    diagonalize,
    track_state,
)
from laserhydrogen.errors import ConfigurationError, ConvergenceError
from laserhydrogen.hamiltonian import LaserField, PseudoHamiltonianMatrix, assemble
from laserhydrogen.ionization import ionization_records
from laserhydrogen.transitions import time_resolved_probability, transition_table
from oracles import ionization_rate, tracked_index

GROUND = QuantumNumbers(1, 0, 0)


def _matrix_from(entries, basis, parity=0):
    """A hand-built matrix of one class, read-only as assemble leaves it."""
    entries.flags.writeable = False
    return PseudoHamiltonianMatrix(entries=entries, basis=basis, parity=parity)


def test_two_by_two_analytic():
    # restrict to a hand-built 2x2: eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2+b^2)
    basis = enumerate_basis(2)  # class 0: (1,0,0), (2,0,0), (2,1,-1), (2,1,1)
    a, b, c = -0.5, 0.03, -0.125
    entries = np.diag([a, c, -1.0, -1.2])
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


def test_no_output_reads_the_sign_of_a_dressed_state():
    # A dressed state's column has no fixed sign: W, the ionization records'
    # E_f0, eta, rate and sigma, and the time-resolved probability read only
    # squares of a column or products of two entries of one column, so they
    # are bit for bit the same with any set of columns negated.
    basis = enumerate_basis(4)
    laser = LaserField(0.02, 0.6)  # the four branches mu < 0 of 1s are open
    decomp = diagonalize(assemble(basis, laser))
    tracked = tracked_index(decomp, GROUND)
    flip = np.random.default_rng(7).random(decomp.dimension) < 0.5
    flip[tracked] = True
    signs = np.where(flip, -1.0, 1.0)
    flipped = replace(decomp, coefficients=decomp.coefficients * signs)
    folded, _, _ = track_state(basis, laser, GROUND)
    negated = replace(folded, coefficients=-folded.coefficients)

    def observed(d, index):
        return [(r.E_f0, r.eta, ionization_rate(d, index, r, laser.amplitude_A),
                 r.sigma)
                for r in ionization_records(d, index, laser.omega)]

    assert np.array_equal(transition_table(decomp, GROUND).probabilities,
                          transition_table(flipped, GROUND).probabilities)
    assert len(observed(decomp, tracked)) == 4
    assert observed(decomp, tracked) == observed(flipped, tracked)
    assert observed(folded, 0) == observed(negated, 0)
    for final in (GROUND, QuantumNumbers(2, 1, 1), QuantumNumbers(4, 3, -3)):
        for t in (0.0, 3.7, 250.0):
            assert time_resolved_probability(
                decomp, GROUND, final, t
            ) == time_resolved_probability(flipped, GROUND, final, t)


def test_zero_field_reproduces_bare_energies():
    basis = enumerate_basis(3)
    omega = 0.1
    for parity in (0, 1):
        decomp = diagonalize(assemble(basis, LaserField(0.0, omega), parity=parity))
        bare = sorted(-1 / (2 * s.n**2) + s.mu * omega
                      for s in basis.states if s.parity == parity)
        np.testing.assert_allclose(decomp.energies, bare, atol=1e-15)


def test_nonsymmetric_rejected():
    # only a matrix from assemble (symmetric by construction, read-only) is
    # solved; an unmirrored matrix made elsewhere is refused, whole-basis or
    # of the class's size, writeable or not
    basis = enumerate_basis(2)
    whole = np.diag([-0.5, -0.125, -0.2, -0.3, -0.4])
    whole[0, 1] = 1e-3  # not mirrored
    whole_read_only = whole.copy()
    whole_read_only.flags.writeable = False
    one_class = np.diag([-0.5, -0.125, -0.2, -0.4])
    one_class[0, 1] = 1e-3
    for entries in (whole, whole_read_only, one_class):
        matrix = PseudoHamiltonianMatrix(entries=entries, basis=basis, parity=0)
        with pytest.raises(ConfigurationError, match="built by assemble"):
            diagonalize(matrix)


@pytest.mark.parametrize("n0", [1, 3])
def test_matrix_without_positions_rejected(n0):
    # the entries of an assembled matrix, copied into a writeable array,
    # are no longer a matrix that assemble built
    matrix = assemble(enumerate_basis(n0), LaserField(0.05, 0.1))
    outside = PseudoHamiltonianMatrix(
        entries=matrix.entries.copy(), basis=matrix.basis, parity=matrix.parity
    )
    with pytest.raises(ConfigurationError, match="built by assemble"):
        diagonalize(outside)
    other_class = PseudoHamiltonianMatrix(
        entries=matrix.entries, basis=matrix.basis, parity=1
    )
    with pytest.raises(ConfigurationError, match="built by assemble"):
        diagonalize(other_class)


def test_default_solve_is_the_class_of_the_ground_state():
    basis = enumerate_basis(4)
    laser = LaserField(0.3, 0.1)
    default = diagonalize(assemble(basis, laser))
    even = diagonalize(assemble(basis, laser, parity=0))
    assert default.parity == even.parity == 0
    np.testing.assert_array_equal(default.energies, even.energies)
    np.testing.assert_array_equal(default.coefficients, even.coefficients)
    np.testing.assert_array_equal(default.rows, basis.class_positions(0))


def test_near_degenerate_pairs(monkeypatch):
    # a scan point reads the smallest spacing of its class's levels, and
    # one below DEGENERACY_GAP marks it near-degenerate
    basis = enumerate_basis(2)
    entries = np.diag([-0.5, -0.5 + 1e-12, -0.3, -0.1])
    decomp = diagonalize(_matrix_from(entries, basis))
    monkeypatch.setattr(transitions, "diagonalize", lambda matrix: decomp)
    point = transitions.ScanPoint.observe(basis, GROUND, LaserField(0.0, 1.0), 0.0)
    assert 1e-14 < point.min_eigen_gap < DEGENERACY_GAP
    assert point.near_degenerate


def test_track_state_zero_field():
    basis = enumerate_basis(3)
    one, overlap, _ = track_state(basis, LaserField(0.0, 0.1), QuantumNumbers(2, 1, -1))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert not overlap < 0.5  # not strongly mixed
    # the tracked eigenvalue is the bare pseudo-energy E_2 - omega
    assert one.energy(0) == pytest.approx(-0.125 - 0.1, rel=1e-12)


def test_track_state_warns_when_strongly_mixed(caplog, monkeypatch):
    basis = enumerate_basis(2)
    # hand-built class-0 decomposition: the (1,0,0) row is spread 1/3-1/3-1/3
    s2, s3, s6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
    c = np.eye(4)
    c[:3, :3] = np.array(
        [
            [1 / s3, 1 / s3, 1 / s3],
            [1 / s2, -1 / s2, 0.0],
            [1 / s6, 1 / s6, -2 / s6],
        ]
    )
    decomp = EigenDecomposition(
        energies=np.array([-0.5, -0.4, -0.3, -0.1]),
        coefficients=c,
        basis=basis,
        parity=0,
    )
    # the fold fails, so the class solve, which returns this decomposition,
    # picks the state, and the iteration from its column fails too
    monkeypatch.setattr(eigensolver, "diagonalize", lambda matrix: decomp)
    monkeypatch.setattr(eigensolver, "_rayleigh_quotient_iteration", lambda *a: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported through logging, not warnings
        with caplog.at_level(logging.INFO, logger="laserhydrogen.eigensolver"):
            one, overlap, _ = track_state(
                basis, LaserField(0.0, 0.1), QuantumNumbers(1, 0, 0)
            )
    assert [r.levelno for r in caplog.records] == [logging.INFO]
    assert "strongly mixed" in caplog.text
    assert overlap < 0.5  # ambiguous
    assert overlap == pytest.approx(1 / 3, rel=1e-12)
    assert one.energy(0) == -0.5  # tie broken toward the lowest pseudo-energy


def test_track_state_outside_basis():
    basis = enumerate_basis(2)
    with pytest.raises(ConfigurationError):
        track_state(basis, LaserField(0.0, 0.1), QuantumNumbers(5, 0, 0))


@pytest.mark.parametrize("parity", [0], ids=["vector-solve"])
def test_lapack_failure_raises_convergence_error(monkeypatch, parity):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("injected: no convergence")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    matrix = assemble(enumerate_basis(3), LaserField(0.05, 0.1), parity=parity)
    with pytest.raises(ConvergenceError, match="eigensolver failed: injected"):
        diagonalize(matrix)
