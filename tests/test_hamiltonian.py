import math

import numpy as np
import pytest

from laserhydrogen.basis import (
    QuantumNumbers,
    bound_energy,
    coupling_arrays,
    enumerate_basis,
)
from laserhydrogen.errors import ConfigurationError
from laserhydrogen.hamiltonian import LaserField, assemble, class_layout
from laserhydrogen.ionization import ionization_intensity_scan
from laserhydrogen.transitions import intensity_scan, spectrum_scan
from oracles import px_matrix_element, whole_hamiltonian


def _assert_class_blocks(basis, laser, whole):
    """Each parity class assembled alone is its block of the whole-basis H,
    entry for entry."""
    for parity in (0, 1):
        block = basis.class_positions(parity)
        np.testing.assert_array_equal(
            assemble(basis, laser, parity=parity).entries,
            whole[np.ix_(block, block)],
        )


def test_laser_field_validation():
    with pytest.raises(ConfigurationError):
        LaserField(-0.1, 0.3)
    with pytest.raises(ConfigurationError):
        LaserField(0.1, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["amplitude_A", "omega"])
def test_laser_field_rejects_non_finite(field, bad):
    values = {"amplitude_A": 0.1, "omega": 0.3, field: bad}
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        LaserField(**values)


def test_library_scans_reject_non_finite_at_the_boundary():
    with pytest.raises(ConfigurationError, match="omega must be finite"):
        spectrum_scan(0.01, [math.nan], QuantumNumbers(1, 0, 0), n0=2)
    with pytest.raises(ConfigurationError, match="amplitude_A must be finite"):
        intensity_scan(0.1, [math.inf], QuantumNumbers(1, 0, 0), n0=2)


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_every_library_scan_rejects_a_bad_amplitude(bad):
    # every field is built before the first point is solved, so a bad
    # amplitude anywhere in the sweep raises instead of failing one point
    ground = QuantumNumbers(1, 0, 0)
    with pytest.raises(ConfigurationError, match="amplitude_A"):
        spectrum_scan(bad, [0.1], ground, n0=2)
    with pytest.raises(ConfigurationError, match="amplitude_A"):
        intensity_scan(0.1, [0.05, bad], ground, n0=2)
    with pytest.raises(ConfigurationError, match="amplitude_A"):
        ionization_intensity_scan(0.087, [0.05, bad], n0=2)


def test_assemble_symmetric_and_real():
    basis = enumerate_basis(4)
    for parity in (0, 1):
        h = assemble(basis, LaserField(0.4, 0.05), parity=parity).entries
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        with pytest.raises(ValueError, match="read-only"):
            h[0, 1] = 1e-3  # diagonalize trusts that nothing unmirrored it


@pytest.mark.parametrize("parity", [None, 2, -1])
def test_assemble_needs_a_parity_class(parity):
    with pytest.raises(ConfigurationError, match="parity must be 0 or 1"):
        assemble(enumerate_basis(3), LaserField(0.1, 0.1), parity=parity)


def test_assemble_takes_the_parity_by_keyword_only():
    # a flag passed positionally must not silently pick a parity class
    basis, laser = enumerate_basis(3), LaserField(0.1, 0.1)
    with pytest.raises(TypeError):
        assemble(basis, laser, False)
    np.testing.assert_array_equal(
        assemble(basis, laser).entries, assemble(basis, laser, parity=0).entries
    )


def test_assemble_diagonal():
    basis = enumerate_basis(3)
    amp, omega = 0.3, 0.07
    laser = LaserField(amp, omega)
    h = whole_hamiltonian(basis, laser)
    for i, s in enumerate(basis.states):
        expected = bound_energy(s.n) + s.mu * omega + 0.5 * amp**2
        assert h[i, i] == pytest.approx(expected, rel=1e-15)
    _assert_class_blocks(basis, laser, h)


def test_assemble_zero_field_is_diagonal():
    basis = enumerate_basis(4)
    laser = LaserField(0.0, 0.1)
    h = whole_hamiltonian(basis, laser)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    _assert_class_blocks(basis, laser, h)


def test_off_diagonal_selection_rules_and_values():
    basis = enumerate_basis(4)
    amp = 0.25
    laser = LaserField(amp, 0.05)
    h = whole_hamiltonian(basis, laser)
    _assert_class_blocks(basis, laser, h)
    for i, a in enumerate(basis.states):
        for j, b in enumerate(basis.states):
            if i == j:
                continue
            expected = amp * px_matrix_element(a, b)
            assert h[i, j] == pytest.approx(expected, rel=1e-13, abs=1e-16)
            if abs(a.l - b.l) != 1 or abs(a.mu - b.mu) != 1 or a.n == b.n:
                assert h[i, j] == 0.0


def test_assemble_empty_basis_rejected():
    basis = enumerate_basis(1)
    object.__setattr__(basis, "states", ())
    with pytest.raises(ConfigurationError):
        assemble(basis, LaserField(0.1, 0.1))


def test_coupling_arrays_are_the_px_formula():
    basis = enumerate_basis(6)
    rows, cols, values = coupling_arrays(6)
    states = basis.states
    for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        assert v == px_matrix_element(states[i], states[j])
        assert states[j].l == states[i].l + 1
    cached = set(zip(rows.tolist(), cols.tolist()))
    assert len(cached) == len(rows)
    nonzero = {
        (i, j)
        for i, a in enumerate(states)
        for j, b in enumerate(states)
        if b.l == a.l + 1 and px_matrix_element(a, b) != 0.0
    }
    assert cached == nonzero
    with pytest.raises(ValueError):
        values[0] = 1.0  # shared by every later point of the basis


def test_assemble_has_no_cross_parity_entries():
    basis = enumerate_basis(6)
    parity = np.array([(s.l + s.mu) % 2 for s in basis.states])
    for amp, omega in ((0.3, 0.07), (0.01, 0.4), (0.5, 0.002)):
        laser = LaserField(amp, omega)
        h = whole_hamiltonian(basis, laser)
        assert np.count_nonzero(h[np.ix_(parity == 0, parity == 1)]) == 0
        assert np.count_nonzero(h[np.ix_(parity == 1, parity == 0)]) == 0
        _assert_class_blocks(basis, laser, h)


def test_second_point_of_a_sweep_hits_the_coupling_cache():
    class_layout.cache_clear()
    basis = enumerate_basis(5)
    omegas = [0.05, 0.1, 0.15, 0.2]
    spectrum_scan(0.2, omegas, QuantumNumbers(1, 0, 0), n0=5)
    # the sweep lays out the couplings of its one class once
    info = class_layout.cache_info()
    assert (info.misses, info.hits) == (1, len(omegas) - 1)
    assemble(basis, LaserField(0.2, 0.3))
    assemble(basis, LaserField(0.2, 0.3), parity=1)
    info = class_layout.cache_info()
    assert (info.misses, info.hits) == (2, len(omegas))
