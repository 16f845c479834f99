"""The parity-class eigensolves against the plain full-matrix solve.

The field lies in the xy-plane, so the z-reflection parity (l + mu) mod 2
of the bare states is conserved and `assemble` and `diagonalize` handle one
class at a time.  These tests hold the two class solves together to
`scipy.linalg.eigh` of the whole-basis H of `tests/oracles.py`.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from laserhydrogen import (
    LaserField,
    QuantumNumbers,
    UnitSystem,
    assemble,
    diagonalize,
    enumerate_basis,
)

from oracles import whole_hamiltonian


def _parity(basis):
    return np.array([(s.l + s.mu) % 2 for s in basis.states])


def _both_classes(basis, laser):
    """The solves of both parity classes as one spectrum of the whole basis.

    Returns the energies in a stable merge (class 0 first in a tie), the
    coefficients over every basis state at those columns and each column's
    class.
    """
    decomps = [diagonalize(assemble(basis, laser, parity=p)) for p in (0, 1)]
    energies = np.concatenate([d.energies for d in decomps])
    labels = np.repeat([0, 1], [d.dimension for d in decomps])
    coefficients = np.zeros((len(basis), len(basis)))
    start = 0
    for d in decomps:
        coefficients[np.ix_(d.rows, np.arange(start, start + d.dimension))] = (
            d.coefficients
        )
        start += d.dimension
    order = np.argsort(energies, kind="stable")
    return energies[order], coefficients[:, order], labels[order]


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
    block_energies, coefficients, labels = _both_classes(basis, laser)
    energies, vectors = scipy.linalg.eigh(whole_hamiltonian(basis, laser))
    np.testing.assert_allclose(block_energies, energies, rtol=0, atol=1e-12)
    ground = basis.position(QuantumNumbers(1, 0, 0))
    w_block = (coefficients**2) @ (coefficients[ground] ** 2)
    w_full = (vectors**2) @ (vectors[ground] ** 2)
    np.testing.assert_allclose(w_block, w_full, rtol=0, atol=1e-12)
    assert sorted(np.bincount(labels)) == sorted(np.bincount(_parity(basis)))


@settings(max_examples=40, deadline=None)
@given(
    n0=st.integers(min_value=2, max_value=7),
    amplitude=st.floats(min_value=0.0, max_value=0.5),
    omega=st.floats(min_value=1e-3, max_value=0.5),
)
def test_block_solve_equals_full_solve(n0, amplitude, omega):
    basis = enumerate_basis(n0)
    laser = LaserField(amplitude, omega)
    block_energies, coefficients, _ = _both_classes(basis, laser)
    energies, vectors = scipy.linalg.eigh(whole_hamiltonian(basis, laser))
    np.testing.assert_allclose(block_energies, energies, rtol=0, atol=1e-12)
    block, bounds = _cluster_projectors(block_energies, coefficients, 1e-6)
    full, full_bounds = _cluster_projectors(energies, vectors, 1e-6)
    assert np.array_equal(bounds, full_bounds)
    for p_block, p_full in zip(block, full):
        np.testing.assert_allclose(p_block, p_full, rtol=0, atol=1e-8)

    c2 = coefficients**2
    w = c2 @ c2.T
    np.testing.assert_allclose(w, w.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    parity = _parity(basis)
    assert not w[np.ix_(parity == 0, parity == 1)].any()
