import weakref

import numpy as np
import pytest

import laserhydrogen.transitions as transitions
from conftest import w_matrix
from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen.eigensolver import diagonalize
from laserhydrogen.errors import ConfigurationError, DomainError
from laserhydrogen.hamiltonian import LaserField, assemble
from laserhydrogen.ionization import ionization_intensity_scan
from laserhydrogen.transitions import (
    averaged_probability,
    intensity_scan,
    spectrum_scan,
    time_resolved_probability,
    transition_table,
)

GROUND = QuantumNumbers(1, 0, 0)


def test_w_doubly_stochastic_and_symmetric(decomp5):
    decomp, _ = decomp5
    w = w_matrix(decomp)
    np.testing.assert_allclose(w, w.T, atol=1e-14)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w >= 0)


def test_transition_table_matches_averaged_probability(decomp5):
    decomp, laser = decomp5
    table = transition_table(decomp, GROUND, laser)
    for final in (GROUND, QuantumNumbers(2, 1, 1), QuantumNumbers(4, 3, -2)):
        assert table.probability(final) == pytest.approx(
            averaged_probability(decomp, GROUND, final), rel=1e-13
        )
    assert float(table.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)
    assert table.as_dict()[GROUND] == table.probability(GROUND)


def test_zero_field_table_is_identity():
    basis = enumerate_basis(4)
    decomp = diagonalize(assemble(basis, LaserField(0.0, 0.1)))
    table = transition_table(decomp, GROUND, LaserField(0.0, 0.1))
    expected = np.zeros(len(basis))
    expected[basis.position(GROUND)] = 1.0
    np.testing.assert_allclose(table.probabilities, expected, atol=1e-24)


def test_time_resolved_at_t0_is_kronecker(decomp5):
    decomp, laser = decomp5
    assert time_resolved_probability(
        decomp, GROUND, GROUND, 0.0, laser.omega
    ) == pytest.approx(1.0, abs=1e-12)
    assert time_resolved_probability(
        decomp, GROUND, QuantumNumbers(3, 1, 0), 0.0, laser.omega
    ) == pytest.approx(0.0, abs=1e-12)


def test_time_resolved_time_average_approaches_w(decomp5):
    decomp, laser = decomp5
    final = QuantumNumbers(2, 1, 1)
    w = averaged_probability(decomp, GROUND, final)
    rng = np.random.default_rng(7)
    samples = [
        time_resolved_probability(decomp, GROUND, final, t, laser.omega)
        for t in rng.uniform(0.0, 5e6, size=4000)
    ]
    assert np.mean(samples) == pytest.approx(w, rel=0.05)


def test_time_resolved_rejects_negative_time(decomp5):
    decomp, laser = decomp5
    with pytest.raises(ConfigurationError):
        time_resolved_probability(decomp, GROUND, GROUND, -1.0, laser.omega)


def test_spectrum_scan():
    omegas = [0.1, 0.2, 0.3]
    result = spectrum_scan(0.05, omegas, GROUND, n0=3)
    assert result.axis == omegas
    assert len(result.rows) == 3
    for point, omega in zip(result.rows, omegas):
        assert not point.failed
        assert point.axis_value == omega
        assert point.normalization_error < 1e-12
        assert point.table.laser.omega == omega
    assert result.metadata["n0"] == 3


def test_spectrum_scan_rejects_bad_omega():
    with pytest.raises(ConfigurationError):
        spectrum_scan(0.05, [0.1, -0.2], GROUND, n0=3)


def test_intensity_scan():
    amps = [0.0, 0.1, 0.2]
    result = intensity_scan(0.018, amps, GROUND, n0=3, axis_values=[1, 2, 3])
    assert result.axis == [1, 2, 3]
    ground_w = [p.table.probability(GROUND) for p in result.rows]
    # survival probability decreases as the field is turned up
    assert ground_w[0] == pytest.approx(1.0, abs=1e-14)
    assert ground_w[0] > ground_w[1] > ground_w[2]


def test_intensity_scan_rejects_negative_amplitude():
    with pytest.raises(ConfigurationError):
        intensity_scan(0.018, [-0.1], GROUND, n0=3)


@pytest.mark.parametrize("run, message", [
    (lambda: spectrum_scan(0.05, [0.1, 0.2, 0.3], GROUND, n0=3, axis_values=[1.0]),
     "1 axis values for 3 field points"),
    (lambda: intensity_scan(0.018, [0.1], GROUND, n0=3, axis_values=[1, 2, 3]),
     "3 axis values for 1 field points"),
    (lambda: ionization_intensity_scan(0.087, [0.05], n0=3, axis_values=[1, 2]),
     "2 axis values for 1 field points"),
], ids=["spectrum", "intensity", "ionization"])
def test_mismatched_axis_values_rejected_before_the_first_point(
    monkeypatch, run, message
):
    solved = []
    real = transitions.diagonalize
    monkeypatch.setattr(
        transitions, "diagonalize", lambda m: solved.append(m) or real(m)
    )
    with pytest.raises(ConfigurationError, match=message):
        run()
    assert solved == []


def test_failed_record_keeps_only_strings(monkeypatch):
    """A failed point records the exception's message, type and raising
    function, and keeps neither the exception nor its decomposition."""
    solved = []

    def failing_table(decomp, initial, laser):
        solved.append(weakref.ref(decomp))
        raise DomainError("injected table failure")

    monkeypatch.setattr(transitions, "transition_table", failing_table)
    (record,) = transitions.scan(
        enumerate_basis(3), GROUND, [0.1], [LaserField(0.1, 0.1)],
        transitions.ScanPoint,
    )
    assert record.failed and record.table is None
    assert record.failure == transitions.PointFailure(
        "injected table failure", "DomainError", f"{__name__}.failing_table"
    )
    assert record.error == "injected table failure"
    assert not record.near_degenerate
    assert solved[0]() is None  # freed without a garbage collection
