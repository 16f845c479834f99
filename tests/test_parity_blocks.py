"""The parity-block eigensolve against the plain full-matrix solve.

The field lies in the xy-plane, so the z-reflection parity (l + mu) mod 2
of the bare states is conserved and `diagonalize` solves the two classes
separately.  These tests hold it to `scipy.linalg.eigh` of the whole matrix.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from laserhydrogen import (
    EigenDecomposition,
    LaserField,
    QuantumNumbers,
    UnitSystem,
    assemble,
    diagonalize,
    enumerate_basis,
)

from conftest import w_matrix


def _parity(basis):
    return np.array([(s.l + s.mu) % 2 for s in basis.states])


def _cluster_projectors(energies, vectors, gap):
    """Spectral projectors of the clusters of levels closer than gap.

    A degenerate level has no unique eigenvectors, but its projector is
    unique; the truncated basis has exactly degenerate levels (states
    whose p_x partners lie outside the basis are uncoupled).
    """
    bounds = np.nonzero(np.diff(energies) >= gap)[0] + 1
    out = []
    for cols in np.split(np.arange(len(energies)), bounds):
        v = vectors[:, cols]
        out.append(v @ v.T)
    return out, bounds


@pytest.mark.parametrize("n0", [10, 18])
def test_block_solve_matches_full_eigh_fig1_field(n0):
    units = UnitSystem()
    laser = LaserField(
        units.vector_potential_to_internal(5e-6), units.ev_to_internal(0.5)
    )
    basis = enumerate_basis(n0)
    matrix = assemble(basis, laser)
    decomp = diagonalize(matrix)
    energies, vectors = scipy.linalg.eigh(matrix.entries)
    np.testing.assert_allclose(decomp.energies, energies, rtol=0, atol=1e-12)
    ground = basis.position(QuantumNumbers(1, 0, 0))
    w_block = (decomp.coefficients**2) @ (decomp.coefficients[ground] ** 2)
    w_full = (vectors**2) @ (vectors[ground] ** 2)
    np.testing.assert_allclose(w_block, w_full, rtol=0, atol=1e-12)
    assert sorted(np.bincount(decomp.block_labels)) == sorted(
        np.bincount(_parity(basis))
    )


@settings(max_examples=40, deadline=None)
@given(
    n0=st.integers(min_value=2, max_value=7),
    amplitude=st.floats(min_value=0.0, max_value=0.5),
    omega=st.floats(min_value=1e-3, max_value=0.5),
)
def test_block_solve_equals_full_solve(n0, amplitude, omega):
    basis = enumerate_basis(n0)
    matrix = assemble(basis, LaserField(amplitude, omega))
    decomp = diagonalize(matrix)
    energies, vectors = scipy.linalg.eigh(matrix.entries)
    np.testing.assert_allclose(decomp.energies, energies, rtol=0, atol=1e-12)
    block, bounds = _cluster_projectors(decomp.energies, decomp.coefficients, 1e-6)
    full, full_bounds = _cluster_projectors(energies, vectors, 1e-6)
    assert np.array_equal(bounds, full_bounds)
    for p_block, p_full in zip(block, full):
        np.testing.assert_allclose(p_block, p_full, rtol=0, atol=1e-8)

    w = w_matrix(decomp)
    np.testing.assert_allclose(w, w.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    parity = _parity(basis)
    assert not w[np.ix_(parity == 0, parity == 1)].any()


def test_near_degenerate_pairs_only_inside_a_block():
    basis = enumerate_basis(2)
    decomp = EigenDecomposition(
        energies=np.array([-0.5, -0.5, -0.3, -0.3 + 1e-12, -0.1]),
        coefficients=np.eye(5),
        basis=basis,
        block_labels=np.array([0, 1, 0, 0, 1]),
    )
    # columns 0/1: an exact tie between the classes, not flagged;
    # columns 2/3: a 1e-12 gap inside class 0, flagged
    index, gaps = decomp.level_gaps()
    assert list(index[gaps < 1e-10]) == [2]
    assert list(index[gaps < 1e-14]) == []


def test_near_degenerate_pairs_skip_other_block_between():
    basis = enumerate_basis(2)
    decomp = EigenDecomposition(
        energies=np.array([-0.5, -0.5 + 5e-13, -0.5 + 1e-12, -0.2, -0.1]),
        coefficients=np.eye(5),
        basis=basis,
        block_labels=np.array([0, 1, 0, 1, 0]),
    )
    # columns 0 and 2 are neighbours within class 0
    index, gaps = decomp.level_gaps()
    assert list(index[gaps < 1e-10]) == [0]
