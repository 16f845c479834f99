import math
from functools import partial

import numpy as np
import pytest

import laserhydrogen.ionization as ionization
import laserhydrogen.transitions as transitions
from laserhydrogen.basis import (
    QuantumNumbers,
    bound_energy,
    class_layout,
    enumerate_basis,
)
from laserhydrogen.cli import parse_config, sweep
from laserhydrogen.errors import ConfigurationError
from laserhydrogen.hamiltonian import LaserField, assemble
from laserhydrogen.transitions import ScanPoint, scan
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
    # a library sweep is described in I/O units, and its config is checked
    # before a field is built
    with pytest.raises(ConfigurationError, match="omega_ev_start must be finite"):
        parse_config(overrides={"mode": "spectrum", "amplitude_vspm": 1e-6,
                                "omega_ev_start": math.nan, "omega_ev_stop": 1.0})
    with pytest.raises(ConfigurationError, match="a_vspm_stop must be finite"):
        parse_config(overrides={"mode": "intensity", "omega_ev": 0.5,
                                "a_vspm_start": 0.0, "a_vspm_stop": math.inf})


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, 1e308])
def test_every_library_scan_rejects_a_bad_amplitude(monkeypatch, bad):
    # The config rejects a negative or non-finite amplitude, and every field
    # is built before the first point is solved, so an amplitude that is
    # finite in V*s/m but not in atomic units (1e308) raises too instead of
    # failing one point.
    solved = []
    monkeypatch.setattr(transitions, "diagonalize", solved.append)
    monkeypatch.setattr(ionization, "track_state", solved.append)
    for mode, keys in (
        ("spectrum", {"amplitude_vspm": bad, "omega_ev_start": 0.1,
                      "omega_ev_stop": 0.2}),
        ("intensity", {"omega_ev": 0.1, "a_vspm_start": 0.0, "a_vspm_stop": bad}),
        ("ionization", {"omega_ev": 2.37, "a_vspm_start": 0.0, "a_vspm_stop": bad}),
    ):
        with pytest.raises(ConfigurationError, match="amplitude|a_vspm_stop"):
            sweep(parse_config(overrides={"mode": mode, "n0": 2, "count": 2, **keys}))
    assert solved == []


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


@pytest.mark.parametrize("n0, parity", [(1, 0), (2, 0), (2, 1), (6, 0), (6, 1)])
def test_class_layout_is_the_px_formula(n0, parity):
    # n0 = 1 has no class 1
    basis = enumerate_basis(n0)
    states = [basis.states[i] for i in basis.class_positions(parity)]
    even, odd, r, c, values = class_layout(basis, parity)
    for i, j, v in zip(even[r].tolist(), odd[c].tolist(), values.tolist()):
        assert v == px_matrix_element(states[i], states[j])
    laid_out = set(zip(r.tolist(), c.tolist()))
    assert len(laid_out) == len(r)
    nonzero = {
        (i, j)
        for i, a in enumerate(even.tolist())
        for j, b in enumerate(odd.tolist())
        if px_matrix_element(states[a], states[b]) != 0.0
    }
    assert laid_out == nonzero
    for array in (even, odd, r, c, values):
        with pytest.raises(ValueError):
            array[:1] = 0  # shared by every later point of the basis


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
    scan(omegas, [LaserField(0.2, w) for w in omegas],
         partial(ScanPoint.observe, basis, QuantumNumbers(1, 0, 0)))
    # the sweep lays out the couplings of its one class once
    info = class_layout.cache_info()
    assert (info.misses, info.hits) == (1, len(omegas) - 1)
    assemble(basis, LaserField(0.2, 0.3))
    assemble(basis, LaserField(0.2, 0.3), parity=1)
    info = class_layout.cache_info()
    assert (info.misses, info.hits) == (2, len(omegas))
