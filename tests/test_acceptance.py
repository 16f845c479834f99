"""Acceptance gate: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
all even when everything passes) and then asserts the same condition.
"""

import math
import time
from functools import lru_cache

import mpmath
import numpy as np
import scipy.integrate

from conftest import w_matrix
from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen.eigensolver import diagonalize, track_state
from laserhydrogen.hamiltonian import LaserField, assemble
from laserhydrogen.ionization import ionization_intensity_scan, ionization_records
from laserhydrogen.specfun import KummerParams, laplace_1f1_product
from laserhydrogen.units import CONSTANTS, UnitSystem
from oracles import (
    coulomb_radial,
    kummer_1f1,
    overlap,
    radial_wavefunction,
    whole_hamiltonian,
)

GROUND = QuantumNumbers(1, 0, 0)
UNITS = UnitSystem()
EV = CONSTANTS.hartree_ev
FIG1_AMPLITUDE_AU = UNITS.vector_potential_to_internal(5e-6)  # ~0.402 a.u.


def _report(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@lru_cache(maxsize=4)
def _decomp(n0, amplitude_au, omega_au, parity=0):
    basis = enumerate_basis(n0)
    return diagonalize(
        assemble(basis, LaserField(amplitude_au, omega_au), parity=parity)
    )


def _ground_w_row(decomp):
    """W(1s, b) for every basis state b, 0 outside the ground state's class."""
    c2 = decomp.coefficients**2
    w = np.zeros(len(decomp.basis))
    w[decomp.rows] = c2 @ decomp.row(GROUND) ** 2
    return w


def test_criterion_1_basis_integrity():
    t0 = time.time()
    basis = enumerate_basis(10)
    # Gram matrix: angular part exact, radial part by quadrature
    max_err = 0.0
    for i, a in enumerate(basis.states):
        for b in basis.states[i:]:
            expected = 1.0 if a == b else 0.0
            max_err = max(max_err, abs(overlap(a, b) - expected))
    # node counts
    nodes_ok = True
    for n in range(1, 11):
        for l in range(n):
            r = np.linspace(1e-6, 3.0 * n * n, 40_000)
            vals = radial_wavefunction(n, l, r)
            nodes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
            nodes_ok = nodes_ok and nodes == n - l - 1
    elapsed = time.time() - t0
    ok = max_err < 1e-10 and nodes_ok and elapsed < 30.0
    _report(
        1, ok,
        f"n0=10 Gram deviation {max_err:.2e} (<1e-10), node counts "
        f"{'ok' if nodes_ok else 'WRONG'}, runtime {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_matrix_eigen_integrity_n0_18():
    t0 = time.time()
    omega = UNITS.ev_to_internal(0.5)
    decomps = [_decomp(18, FIG1_AMPLITUDE_AU, omega, parity) for parity in (0, 1)]
    dims = [d.dimension for d in decomps]
    dim_ok = sum(dims) == 2109
    # each class's dressed states against the whole-basis H
    h = whole_hamiltonian(decomps[0].basis, LaserField(FIG1_AMPLITUDE_AU, omega))
    h_norm = max(float(np.max(np.abs(d.energies))) for d in decomps)  # 2-norm
    residual = ortho = 0.0
    for d in decomps:
        c = np.zeros((len(h), d.dimension))
        c[d.rows] = d.coefficients
        residual = max(
            residual, float(np.max(np.linalg.norm(h @ c - c * d.energies, axis=0)))
        )
        ortho = max(ortho, float(np.max(np.abs(c.T @ c - np.eye(d.dimension)))))
    elapsed = time.time() - t0
    ok = dim_ok and residual <= 1e-9 * h_norm and ortho <= 1e-9 and elapsed < 300
    _report(
        2, ok,
        f"dim {dims[0]} + {dims[1]} (=2109), residual/|H| "
        f"{residual / h_norm:.2e} (<=1e-9), |C^T C - I| {ortho:.2e} (<=1e-9), "
        f"runtime {elapsed:.0f}s (<300s)",
    )


def test_criterion_3_transition_table_laws():
    worst_sym, worst_stoch = 0.0, 0.0
    identity_exact = True
    for parity in (0, 1):
        for amp, omega in [(0.1, 0.018), (0.402, 0.018), (0.05, 0.375), (0.3, 0.1)]:
            w = w_matrix(_decomp(6, amp, omega, parity))
            worst_sym = max(worst_sym, float(np.max(np.abs(w - w.T))))
            worst_stoch = max(
                worst_stoch,
                float(np.max(np.abs(w.sum(axis=0) - 1.0))),
                float(np.max(np.abs(w.sum(axis=1) - 1.0))),
            )
        w0 = w_matrix(_decomp(6, 0.0, 0.1, parity))
        identity_exact = identity_exact and np.array_equal(w0, np.eye(w0.shape[0]))
    ok = worst_sym < 1e-9 and worst_stoch < 1e-9 and identity_exact
    _report(
        3, ok,
        f"symmetry {worst_sym:.2e}, stochasticity {worst_stoch:.2e} "
        f"(<1e-9), A=0 identity exact: {identity_exact}",
    )


def test_criterion_4_weak_field_bohr_recovery():
    # off-resonant weak field: no appreciable transition between distinct
    # zero-field pseudo-levels.  Pairs with E_n + mu*omega exactly equal
    # (same n, same mu, different l - hydrogen's l-degeneracy) mix at O(1)
    # for any field strength; that is degenerate l-mixing, not a Bohr
    # transition, so those pairs are excluded from the bound.
    omega_off = 0.2
    basis5 = enumerate_basis(5)
    max_offdiag = 0.0
    for parity in (0, 1):  # W between the classes is exactly 0
        decomp = _decomp(5, 1e-5, omega_off, parity)
        w_off = w_matrix(decomp)
        pseudo = np.array(
            [-1 / (2 * s.n**2) + s.mu * omega_off
             for s in (basis5.states[j] for j in decomp.rows)]
        )
        distinct = np.abs(pseudo[:, None] - pseudo[None, :]) > 1e-9
        max_offdiag = max(max_offdiag, float(np.max(np.abs(w_off) * distinct)))
    # 1s-2p resonance: hbar*omega = 10.2 eV = 3/8 hartree exactly
    omega_res = 0.375
    basis = enumerate_basis(5)
    decomp = diagonalize(assemble(basis, LaserField(1e-5, omega_res)))
    w_pair = float(np.dot(
        decomp.row(GROUND) ** 2, decomp.row(QuantumNumbers(2, 1, -1)) ** 2
    ))
    # 2x2 degenerate-perturbation oracle: exactly on resonance the pair
    # mixes 50/50, so W(1s, 2p_{-1}) -> 2*(1/2)^2 = 1/2
    ok = max_offdiag <= 1e-4 and abs(w_pair - 0.5) <= 0.01
    _report(
        4, ok,
        f"off-resonant max offdiag W {max_offdiag:.2e} (<=1e-4), resonant "
        f"pair W {w_pair:.4f} (0.50 +- 0.01)",
    )


def test_criterion_5_perturbative_scaling():
    amps = np.array([1e-6, 2e-6, 4e-6])
    # allowed bound-bound W: 1s -> 2p_{+1} at an off-resonant frequency
    basis = enumerate_basis(4)
    w_vals = []
    for a in amps:
        decomp = diagonalize(assemble(basis, LaserField(a, 0.2)))
        w_vals.append(float(np.dot(
            decomp.row(GROUND) ** 2, decomp.row(QuantumNumbers(2, 1, 1)) ** 2
        )))
    slope_w = np.polyfit(np.log(amps), np.log(w_vals), 1)[0]
    # ionization: the golden-rule rate is proportional to intensity (A^2);
    # the flux-normalized sigma is A-independent by construction (see
    # criterion 7), so the quadratic law is carried by the rate
    omega = 20.0 / EV
    basis3 = enumerate_basis(3)
    rates = []
    for a in amps:
        laser = LaserField(a, omega)
        decomp = diagonalize(assemble(basis3, laser))
        tracked = track_state(decomp, GROUND)
        records = ionization_records(decomp, tracked.index, laser)
        rates.append(sum(r.rate_P for r in records))
    slope_r = np.polyfit(np.log(amps), np.log(rates), 1)[0]
    ok = abs(slope_w - 2.0) <= 0.05 and abs(slope_r - 2.0) <= 0.05
    _report(
        5, ok,
        f"log-log slope of W {slope_w:.3f}, of ionization rate "
        f"{slope_r:.3f} (2.00 +- 0.05)",
    )


def test_criterion_6_einstein_limit():
    omega = 20.0 / EV
    laser = LaserField(1e-6, omega)
    decomp = _decomp(3, 1e-6, omega)
    tracked = track_state(decomp, GROUND)
    records = ionization_records(decomp, tracked.index, laser)
    e_f0 = [r.E_f0 for r in records if r.mu_branch == -1][0]
    err = abs(e_f0 - (omega - 0.5))
    ok = err <= 1e-4
    _report(
        6, ok,
        f"one-photon E_f0 deviates from hbar*omega - b by {err:.2e} hartree "
        f"(<=1e-4)",
    )


def _stobbe_sigma_pi_a0sq(omega):
    b = 0.5
    k = math.sqrt(2.0 * (omega - b))
    zeta = 1.0 / k
    alpha = CONSTANTS.fine_structure_alpha
    return (
        (2**9 * math.pi / 3) * alpha * (b / omega) ** 4
        * math.exp(-4 * zeta * math.atan(1.0 / zeta))
        / (1.0 - math.exp(-2 * math.pi * zeta))
    )


def test_criterion_7_absolute_cross_section():
    details, ok = [], True
    basis = enumerate_basis(4)
    for ev in (14.0, 20.0, 40.0):
        omega = ev / EV
        laser = LaserField(1e-6, omega)
        decomp = diagonalize(assemble(basis, laser))
        tracked = track_state(decomp, GROUND)
        records = ionization_records(decomp, tracked.index, laser)
        sigma = sum(r.sigma for r in records)
        ref = _stobbe_sigma_pi_a0sq(omega)
        rel = abs(sigma / ref - 1.0)
        ok = ok and rel <= 0.05
        details.append(f"{ev:.0f}eV: {rel * 100:.2f}%")
    _report(7, ok, "sigma vs textbook oracle " + ", ".join(details) + " (<=5%)")


def test_criterion_8_special_function_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        a1 = -int(rng.integers(0, 6))
        a2 = -int(rng.integers(0, 6))
        c1 = int(rng.integers(2, 7))
        c2 = int(rng.integers(2, 7))
        u = int(rng.integers(1, 7))
        s = float(rng.uniform(0.6, 3.0))
        q = float(rng.uniform(0.2, 2.0))
        k1, k2 = KummerParams(a1, c1), KummerParams(a2, c2)
        analytic = laplace_1f1_product(s, u, k1, k2, q)

        def integrand(t):
            return (
                math.exp(-s * t) * t ** (u - 1)
                * kummer_1f1(k1, t) * kummer_1f1(k2, q * t)
            )

        quad, _ = scipy.integrate.quad(integrand, 0.0, 300.0, limit=400)
        worst = max(worst, abs(analytic - quad) / max(abs(quad), 1e-300))
    # production beta_l: analytic bound-free route vs full quadrature route
    omega = 0.8
    laser = LaserField(1e-3, omega)
    decomp = _decomp(3, 1e-3, omega)
    tracked = track_state(decomp, GROUND)
    records = ionization_records(decomp, tracked.index, laser)
    rec = [r for r in records if r.mu_branch == -1][0]
    k = math.sqrt(2.0 * rec.E_f0)
    worst_beta = 0.0
    basis = decomp.basis
    coeffs = decomp.coefficients[:, tracked.index]
    beta_scale = max(abs(b) for b in rec.beta_l)
    for l_f, beta in enumerate(rec.beta_l, start=1):
        # channels many orders below the dominant one sit at the noise
        # floor of the quadrature oracle; compare the significant ones
        if abs(beta) < 1e-6 * beta_scale:
            continue
        m_quad = 0.0
        for coeff, jb in zip(coeffs, decomp.rows):
            b = basis.states[jb]
            if abs(b.l - l_f) != 1 or abs(b.mu + 1) != 1 or abs(coeff) < 1e-14:
                continue
            from laserhydrogen.basis import angular_x, bound_energy

            def rint(r):
                r = float(r)
                return (
                    coulomb_radial(rec.E_f0, l_f, r) * r
                    * radial_wavefunction(b.n, b.l, r) * r
                )

            radial = float(mpmath.quad(rint, [1e-12, 2.0, 8.0, 20.0, 60.0]))
            x_fb = angular_x(l_f, -1, b.l, b.mu) * radial
            if l_f == b.l + 1:
                x_fb = -x_fb
            m_quad += coeff * (bound_energy(b.n) - rec.E_f0) * x_fb
        m_quad *= laser.amplitude_A
        beta_quad = math.sqrt(math.pi / (2.0 * k)) * m_quad / laser.amplitude_A
        worst_beta = max(worst_beta, abs(beta - beta_quad) / abs(beta_quad))
    ok = worst <= 1e-8 and worst_beta <= 1e-6
    _report(
        8, ok,
        f"Laplace identity vs quadrature worst rel {worst:.2e} (<=1e-8) over "
        f"60 draws; beta_l analytic vs quadrature worst rel {worst_beta:.2e} "
        f"(<=1e-6)",
    )


def test_criterion_9_non_integer_transition():
    omega = 2.37 / EV
    amps_si = np.linspace(5e-7, 5e-6, 8)
    amps_au = [UNITS.vector_potential_to_internal(a) for a in amps_si]
    points = ionization_intensity_scan(
        omega, amps_au, n0=8, axis_values=list(amps_si)
    )
    assert all(not p.failed and p.records for p in points)
    # branch spacing stays exactly one photon energy at every amplitude
    spacing_ok = True
    for p in points:
        for r1, r2 in zip(p.records, p.records[1:]):
            spacing_ok = spacing_ok and abs(
                (r1.E_f0 - r2.E_f0) - (r2.mu_branch - r1.mu_branch) * omega
            ) < 1e-12
    # at the largest amplitude eta is far from every integer
    last = points[-1]
    min_int_dist = min(
        abs(r.eta - round(r.eta)) for r in last.records
    )
    # lowest-branch photoelectron energy grows monotonically with A
    e_lowest = [p.records[0].E_f0 for p in points]
    monotone = all(b > a for a, b in zip(e_lowest, e_lowest[1:]))
    # sigma vs intensity is strongly nonlinear: linear fit R^2 < 0.99
    sigma_tot = np.array([sum(r.sigma for r in p.records) for p in points])
    intensity = np.array([a * a for a in amps_au])
    fit = np.polyfit(intensity, sigma_tot, 1)
    resid = sigma_tot - np.polyval(fit, intensity)
    r2 = 1.0 - np.sum(resid**2) / np.sum((sigma_tot - sigma_tot.mean()) ** 2)
    ok = spacing_ok and min_int_dist > 0.01 and monotone and r2 < 0.99
    _report(
        9, ok,
        f"branch spacing exact: {spacing_ok}; min |eta - nearest int| at "
        f"largest A {min_int_dist:.3f} (>0.01); E_f0 monotone: {monotone}; "
        f"linear-fit R^2 of sigma vs intensity {r2:.3f} (<0.99)",
    )


def test_criterion_10_truncation_convergence():
    omega = UNITS.ev_to_internal(0.5)
    d16 = _decomp(16, FIG1_AMPLITUDE_AU, omega)
    d18 = _decomp(18, FIG1_AMPLITUDE_AU, omega)
    w16 = _ground_w_row(d16)
    w18 = _ground_w_row(d18)
    common = len(d16.basis)
    # positions coincide for the common states: ordering is (n, l, mu)
    l1_diff = float(np.sum(np.abs(w18[:common] - w16)))
    ok = l1_diff < 0.05
    _report(
        10, ok,
        f"ground-state W row L1 change between n0=16 and n0=18: "
        f"{l1_diff:.4f} (<0.05)",
    )
