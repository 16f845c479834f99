import math

import numpy as np
import pytest

from laserhydrogen.basis import (
    QuantumNumbers,
    bound_energy,
    enumerate_basis,
    px_matrix_element,
)
from laserhydrogen.errors import ConfigurationError
from laserhydrogen.hamiltonian import LaserField, assemble, coupling_arrays
from laserhydrogen.ionization import ionization_intensity_scan
from laserhydrogen.transitions import intensity_scan, spectrum_scan


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
    h = assemble(basis, LaserField(0.4, 0.05)).entries
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)


def test_assemble_diagonal():
    basis = enumerate_basis(3)
    amp, omega = 0.3, 0.07
    h = assemble(basis, LaserField(amp, omega)).entries
    for i, s in enumerate(basis.states):
        expected = bound_energy(s.n) + s.mu * omega + 0.5 * amp**2
        assert h[i, i] == pytest.approx(expected, rel=1e-15)


def test_assemble_drop_a2():
    basis = enumerate_basis(3)
    amp, omega = 0.3, 0.07
    with_a2 = assemble(basis, LaserField(amp, omega)).entries
    without = assemble(basis, LaserField(amp, omega), include_a2=False).entries
    np.testing.assert_allclose(
        np.diag(with_a2) - np.diag(without), 0.5 * amp**2, rtol=1e-14
    )
    np.testing.assert_array_equal(
        with_a2 - np.diag(np.diag(with_a2)), without - np.diag(np.diag(without))
    )


def test_assemble_zero_field_is_diagonal():
    basis = enumerate_basis(4)
    h = assemble(basis, LaserField(0.0, 0.1)).entries
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_off_diagonal_selection_rules_and_values():
    basis = enumerate_basis(4)
    amp = 0.25
    h = assemble(basis, LaserField(amp, 0.05)).entries
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
        h = assemble(basis, LaserField(amp, omega)).entries
        assert np.count_nonzero(h[np.ix_(parity == 0, parity == 1)]) == 0
        assert np.count_nonzero(h[np.ix_(parity == 1, parity == 0)]) == 0


def test_second_point_of_a_sweep_hits_the_coupling_cache():
    coupling_arrays.cache_clear()
    basis = enumerate_basis(5)
    spectrum_scan(0.2, [0.05, 0.1], QuantumNumbers(1, 0, 0), n0=5)
    info = coupling_arrays.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assemble(basis, LaserField(0.2, 0.3))
    assert coupling_arrays.cache_info().hits == 2
