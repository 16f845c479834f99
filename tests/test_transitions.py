import math
import weakref
from functools import partial

import numpy as np
import pytest

import laserhydrogen.transitions as transitions
from conftest import w_matrix
from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen.cli import parse_config, sweep
from laserhydrogen.eigensolver import diagonalize
from laserhydrogen.errors import ConfigurationError, DomainError
from laserhydrogen.hamiltonian import LaserField, assemble
from laserhydrogen.ionization import IonizationScanPoint
from laserhydrogen.transitions import (
    ScanPoint,
    scan,
    time_resolved_probability,
    transition_table,
)
from oracles import averaged_probability

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
    table = transition_table(decomp, GROUND)
    for final in (GROUND, QuantumNumbers(2, 1, 1), QuantumNumbers(4, 3, -3)):
        assert table.probability(final) == pytest.approx(
            averaged_probability(decomp, GROUND, final), rel=1e-13
        )
    # the decomposition holds the ground state's class; W into the other is 0
    assert table.probability(QuantumNumbers(4, 3, -2)) == 0.0
    assert float(table.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)


def test_zero_field_table_is_identity():
    basis = enumerate_basis(4)
    decomp = diagonalize(assemble(basis, LaserField(0.0, 0.1)))
    table = transition_table(decomp, GROUND)
    expected = np.zeros(len(basis))
    expected[basis.position(GROUND)] = 1.0
    np.testing.assert_allclose(table.probabilities, expected, atol=1e-24)


def test_time_resolved_at_t0_is_kronecker(decomp5):
    decomp, laser = decomp5
    assert time_resolved_probability(
        decomp, GROUND, GROUND, 0.0, laser.omega
    ) == pytest.approx(1.0, abs=1e-12)
    assert time_resolved_probability(
        decomp, GROUND, QuantumNumbers(3, 1, 1), 0.0, laser.omega
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
    # NaN and inf too: NaN fails no test of t < 0, and inf gives a NaN phase
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="time must be finite"):
            time_resolved_probability(decomp, GROUND, GROUND, t, laser.omega)
    # omega is a bare float here, which no LaserField has checked
    for omega in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ConfigurationError, match="omega must be finite"):
            time_resolved_probability(decomp, GROUND, GROUND, 1.0, omega)


def test_spectrum_scan():
    omegas = [0.1, 0.2, 0.3]
    points = scan(omegas, [LaserField(0.05, w) for w in omegas],
                  partial(ScanPoint.observe, enumerate_basis(3), GROUND))
    assert isinstance(points, list)
    assert [p.axis_value for p in points] == omegas
    for point, omega in zip(points, omegas):
        assert not point.failed
        assert point.normalization_error < 1e-12
        assert point.table.basis.n0 == 3
        # each point is the table of its own field
        decomp = diagonalize(assemble(point.table.basis, LaserField(0.05, omega)))
        np.testing.assert_array_equal(
            point.table.probabilities, transition_table(decomp, GROUND).probabilities
        )


def test_spectrum_scan_rejects_bad_omega():
    with pytest.raises(ConfigurationError, match="omega_ev_start must be positive"):
        sweep(parse_config(overrides={
            "mode": "spectrum", "n0": 3, "amplitude_vspm": 1e-6,
            "omega_ev_start": -0.2, "omega_ev_stop": 0.1, "count": 2,
        }))


def test_intensity_scan():
    amps = [0.0, 0.1, 0.2]
    points = scan([1, 2, 3], [LaserField(a, 0.018) for a in amps],
                  partial(ScanPoint.observe, enumerate_basis(3), GROUND))
    assert isinstance(points, list)
    assert [p.axis_value for p in points] == [1, 2, 3]
    ground_w = [p.table.probability(GROUND) for p in points]
    # survival probability decreases as the field is turned up
    assert ground_w[0] == pytest.approx(1.0, abs=1e-14)
    assert ground_w[0] > ground_w[1] > ground_w[2]


def test_intensity_scan_rejects_negative_amplitude():
    with pytest.raises(ConfigurationError, match="a_vspm_start must be >= 0"):
        sweep(parse_config(overrides={
            "mode": "intensity", "n0": 3, "omega_ev": 0.5,
            "a_vspm_start": -0.1, "a_vspm_stop": 0.1,
        }))


@pytest.mark.parametrize("run, message", [
    (lambda: scan([1.0], [LaserField(0.05, w) for w in (0.1, 0.2, 0.3)],
                  partial(ScanPoint.observe, enumerate_basis(3), GROUND)),
     "1 axis values for 3 field points"),
    (lambda: scan([1, 2, 3], [LaserField(0.1, 0.018)],
                  partial(ScanPoint.observe, enumerate_basis(3), GROUND)),
     "3 axis values for 1 field points"),
    (lambda: scan([1, 2], [LaserField(0.05, 0.087)],
                  partial(IonizationScanPoint.observe, enumerate_basis(3), GROUND)),
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

    def failing_table(decomp, initial):
        solved.append(weakref.ref(decomp))
        raise DomainError("injected table failure")

    monkeypatch.setattr(transitions, "transition_table", failing_table)
    (record,) = transitions.scan(
        [0.1], [LaserField(0.1, 0.1)],
        partial(transitions.ScanPoint.observe, enumerate_basis(3), GROUND),
    )
    assert record.failed and not hasattr(record, "table")
    assert record == transitions.PointFailure(
        0.1, "injected table failure", "DomainError", f"{__name__}.failing_table"
    )
    assert record.error == "injected table failure"
    assert not hasattr(record, "near_degenerate")
    assert solved[0]() is None  # freed without a garbage collection
