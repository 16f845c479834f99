import csv
import math
from functools import partial

import mpmath
import numpy as np
import pytest

from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen import specfun
from laserhydrogen.cli import main
from laserhydrogen.eigensolver import diagonalize
from laserhydrogen.errors import ConfigurationError, DomainError
from laserhydrogen.hamiltonian import LaserField, assemble
from laserhydrogen.ionization import (
    IonizationScanPoint,
    bound_free_element,
    eta_index,
    ionization_records,
    photoelectron_energy,
)
from laserhydrogen.transitions import scan
from laserhydrogen.units import CONSTANTS, UnitSystem
from oracles import (
    FIG3_SIGMA,
    bound_free_loop,
    bound_free_radial,
    coulomb_radial,
    ionization_rate,
    partial_wave_elements,
    radial_wavefunction,
    stobbe_sigma_pi_a0sq,
    tracked_index,
)

GROUND = QuantumNumbers(1, 0, 0)
EV = 27.211386245988


def test_photoelectron_energy_and_eta_identity():
    e_i, omega = -0.4821, 0.0871
    for mu in (-6, -3, -1, 0, 2):
        e_f0 = photoelectron_energy(e_i, mu, omega)
        eta = eta_index(e_i, omega, mu)
        assert e_f0 == pytest.approx(e_i - mu * omega, rel=1e-15)
        # eta*omega - b = E_f0 exactly, the defining relation
        assert eta * omega - 0.5 == pytest.approx(e_f0, rel=1e-12)
    # NaN fails no test of omega <= 0, and at inf eta would read -mu
    for omega in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="omega must be finite"):
            eta_index(e_i, omega, -1)
    # the sign of E_f0 marks the channel, and a NaN has none
    for omega in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ConfigurationError, match="omega must be finite"):
            photoelectron_energy(e_i, -1, omega)


def test_bound_free_element_refuses_a_closed_channel(decomp5):
    decomp, _ = decomp5
    assert len(bound_free_element(decomp, 0, -1, 0.3)) == decomp.basis.n0
    for e_f0 in (0.0, -0.1):
        with pytest.raises(DomainError, match="positive"):
            bound_free_element(decomp, 0, -1, e_f0)


def _bound_free_quad(n, l_b, l_f, k):
    """mpmath quadrature of int u_{E l_f}(r) r R_{n l_b}(r) r dr."""
    energy = 0.5 * k * k

    def integrand(r):
        r = float(r)
        return coulomb_radial(energy, l_f, r) * r * radial_wavefunction(n, l_b, r) * r

    points = [1e-12, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0,
              130.0, 160.0]
    return float(mpmath.quad(integrand, points))


@pytest.mark.parametrize(
    "n,l_b,l_f,k",
    [
        (1, 0, 1, 0.7), (1, 0, 1, 0.17), (2, 1, 0, 0.5),
        (2, 1, 2, 1.1), (3, 0, 1, 0.35), (4, 2, 3, 0.8),
    ],
)
def test_bound_free_radial_vs_quadrature(n, l_b, l_f, k):
    assert bound_free_radial(n, l_b, l_f, k) == pytest.approx(
        _bound_free_quad(n, l_b, l_f, k), rel=1e-8
    )


def _ground_records(basis, laser):
    decomp = diagonalize(assemble(basis, laser))
    index = tracked_index(decomp, GROUND)
    return decomp, index, ionization_records(decomp, index, laser.omega)


def test_zero_field_records_are_the_one_photon_limit():
    # at A = 0 nothing ionizes, but sigma per unit flux is the weak-field limit
    omega = 20.0 / EV
    basis = enumerate_basis(4)
    decomp, index, records = _ground_records(basis, LaserField(0.0, omega))
    _, _, weak = _ground_records(
        basis, LaserField(UnitSystem().vector_potential_to_internal(1e-12), omega)
    )
    assert [r.mu_branch for r in records] == [r.mu_branch for r in weak]
    assert all(ionization_rate(decomp, index, r, 0.0) == 0.0 for r in records)
    sigma = {r.mu_branch: r.sigma for r in records}
    one_photon = sigma.pop(-1)
    assert one_photon == pytest.approx(
        next(r.sigma for r in weak if r.mu_branch == -1), rel=1e-9
    )
    assert one_photon == pytest.approx(stobbe_sigma_pi_a0sq(omega), rel=5e-3)
    assert sigma and all(value == 0.0 for value in sigma.values())


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
def test_bound_free_channels_equal_the_loop_over_the_basis(parity):
    n0 = 6
    laser = LaserField(0.02, 0.3)
    decomp = diagonalize(assemble(enumerate_basis(n0), laser, parity=parity))
    for index in (0, decomp.dimension // 2, decomp.dimension - 1):
        # no partial wave l_f <= n0 has |mu| > n0: those branches are empty
        for mu in (*range(-n0, n0 + 1), n0 + 2, -n0 - 2, n0 + 6, -n0 - 6):
            waves = bound_free_element(decomp, index, mu, 0.2)
            # same terms, same order, same arithmetic: equal to the bit
            assert waves.tolist() == [
                bound_free_loop(decomp, index, mu, l_f, 0.2)
                for l_f in range(abs(mu), n0 + 1)
            ]


def test_bound_free_element_selection_rules():
    basis = enumerate_basis(2)
    laser = LaserField(1e-4, 0.8)
    decomp = diagonalize(assemble(basis, laser))
    tracked = tracked_index(decomp, GROUND)
    # ground dressed state is almost pure (1,0,0): l_f = 2 unreachable
    allowed, near_zero = bound_free_element(decomp, tracked, -1, 0.3)
    assert abs(near_zero) < 1e-8 * abs(allowed)


def test_weak_field_cross_section_matches_stobbe():
    omega = 20.0 / EV
    basis = enumerate_basis(4)
    laser = LaserField(1e-6, omega)
    decomp = diagonalize(assemble(basis, laser))
    tracked = tracked_index(decomp, GROUND)
    sigma = sum(r.sigma for r in ionization_records(decomp, tracked, laser.omega))
    assert sigma == pytest.approx(stobbe_sigma_pi_a0sq(omega), rel=5e-3)


def test_cli_sigma_just_above_the_one_photon_threshold(tmp_path):
    # E_f0 = 0.038 eV on the mu = -1 branch, where continuing the
    # bound-free 2F1 analytically in double precision loses every digit
    # (it gave sigma = 3423.7)
    out = tmp_path / "threshold.csv"
    argv = [
        "ionization", "--n0", "10", "--omega-ev", "13.585",
        "--a-vspm-start", "5e-7", "--a-vspm-stop", "5e-7", "--count", "1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if r["mu_branch"] == "-1")
    sigma = float(row["sigma_pia02"])
    # 40-digit mpmath radial integrals give the same value to 16 digits
    assert sigma == pytest.approx(0.066632611874570, rel=1e-9)
    # textbook one-photon value at the same photoelectron energy; the
    # dressed value is about 6% lower (tracked-state overlap 0.94)
    textbook = stobbe_sigma_pi_a0sq(0.5 + float(row["E_f0_eV"]) / EV)
    assert sigma == pytest.approx(textbook, rel=0.1)


class _NoMpmath:
    def __getattr__(self, name):
        raise AssertionError(f"mpmath.{name} was used")


def test_near_threshold_run_sums_exactly_without_mpmath(tmp_path, monkeypatch):
    argv = ["ionization", "--n0", "10", "--omega-ev", "13.585",
            "--a-vspm-start", "5e-7", "--a-vspm-stop", "5e-7", "--count", "1"]
    assert main(argv + ["--out", str(tmp_path / "reference.csv")]) == 0
    monkeypatch.setattr(specfun, "mpmath", _NoMpmath())
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert (tmp_path / "out.csv").read_bytes() == (
        tmp_path / "reference.csv").read_bytes()


def test_fig3_sigma_matches_stored_values(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["ionization", "--preset", "fig3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for axis, (index, stored) in FIG3_SIGMA.items():
        got = [r for r in rows if r["A_vspm"] == axis]
        assert [int(r["mu_branch"]) for r in got] == [-10, -9, -8, -7, -6]
        assert {r["dressed_index"] for r in got} == {index}
        np.testing.assert_allclose(
            [float(r["sigma_pia02"]) for r in got], stored, rtol=1e-12, atol=0
        )


def test_weak_field_rate_quadratic_in_amplitude():
    omega = 20.0 / EV
    basis = enumerate_basis(3)
    rates = []
    for amp in (1e-6, 2e-6):
        laser = LaserField(amp, omega)
        decomp = diagonalize(assemble(basis, laser))
        tracked = tracked_index(decomp, GROUND)
        records = ionization_records(decomp, tracked, laser.omega)
        rates.append(sum(ionization_rate(decomp, tracked, r, amp)
                         for r in records))
    assert rates[1] / rates[0] == pytest.approx(4.0, rel=1e-3)


def test_weak_field_sigma_amplitude_independent():
    # the flux-normalized cross section must not depend on A in the weak field
    omega = 20.0 / EV
    basis = enumerate_basis(3)
    sigmas = []
    for amp in (1e-6, 2e-6):
        laser = LaserField(amp, omega)
        decomp = diagonalize(assemble(basis, laser))
        tracked = tracked_index(decomp, GROUND)
        records = ionization_records(decomp, tracked, laser.omega)
        sigmas.append(sum(r.sigma for r in records))
    assert sigmas[1] == pytest.approx(sigmas[0], rel=1e-3)


def test_ionization_records_structure():
    omega = 2.37 / EV
    basis = enumerate_basis(6)
    laser = LaserField(0.2, omega)
    decomp = diagonalize(assemble(basis, laser))
    tracked = tracked_index(decomp, GROUND)
    records = ionization_records(decomp, tracked, laser.omega)
    assert records, "at least one channel must be open"
    for rec in records:
        assert rec.E_f0 > 0
        assert rec.E_f0 == pytest.approx(rec.E_i - rec.mu_branch * omega, rel=1e-13)
        assert ionization_rate(decomp, tracked, rec, laser.amplitude_A) >= 0
        assert rec.sigma >= 0
        # sigma sums the partial waves l_f = |mu| .. n0
        p_l = partial_wave_elements(decomp, tracked, rec)
        assert len(p_l) == 6 - abs(rec.mu_branch) + 1
        assert rec.sigma == pytest.approx(
            8 * math.pi * CONSTANTS.fine_structure_alpha / omega
            * sum(p * p for p in p_l), rel=1e-15
        )
    # consecutive open branches are spaced by exactly one photon energy
    mus = [r.mu_branch for r in records]
    assert mus == sorted(mus)
    for r1, r2 in zip(records, records[1:]):
        assert r1.E_f0 - r2.E_f0 == pytest.approx(
            (r2.mu_branch - r1.mu_branch) * omega, rel=1e-12
        )


def test_ionization_records_closed_channels_absent():
    # weak field, ground state: only mu <= -1 absorption channels are open
    omega = 20.0 / EV
    basis = enumerate_basis(3)
    laser = LaserField(1e-6, omega)
    decomp = diagonalize(assemble(basis, laser))
    tracked = tracked_index(decomp, GROUND)
    records = ionization_records(decomp, tracked, laser.omega)
    assert all(r.mu_branch <= -1 for r in records)
    one_photon = [r for r in records if r.mu_branch == -1][0]
    assert one_photon.E_f0 == pytest.approx(omega - 0.5, abs=1e-6)


def test_ionization_intensity_scan_smoke():
    omega = 2.37 / EV
    # n0 must reach the lowest open branch (|mu| = 6 at this photon energy)
    points = scan([1.0, 2.0], [LaserField(a, omega) for a in (0.05, 0.2)],
                  partial(IonizationScanPoint.observe, enumerate_basis(8), GROUND))
    assert [p.axis_value for p in points] == [1.0, 2.0]
    for p in points:
        assert not p.failed
        assert p.records
        assert 0.0 < p.overlap <= 1.0
    # pseudo-energy rises with intensity (ponderomotive-type shift)
    assert points[1].records[0].E_i > points[0].records[0].E_i


def test_ionization_scan_domain_error_fails_one_point(
    bound_free_fails_at_second_point,
):
    omega = 2.37 / EV
    amplitudes = [0.05, 0.1, 0.2]
    points = scan(amplitudes, [LaserField(a, omega) for a in amplitudes],
                  partial(IonizationScanPoint.observe, enumerate_basis(6), GROUND))
    assert [p.failed for p in points] == [False, True, False]
    assert points[1].error == "injected bound-free failure"
    assert not hasattr(points[1], "records")
    assert not hasattr(points[1], "dressed_index")
    assert points[1].axis_value == 0.1
    assert points[0].records and points[2].records
