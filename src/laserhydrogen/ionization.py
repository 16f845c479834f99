"""Photoionization of a dressed hydrogen atom.

A dressed state with pseudo-energy E_i ejects electrons on magnetic-number
branches mu with kinetic energy E_f0 = E_i - mu*omega; the effective photon
number eta = (E_i + b)/omega - mu is in general not an integer.  Golden-rule
rates use energy-normalized Coulomb continuum states, which makes the final
density of states exactly one per unit energy.

The bound-free radial integrals are evaluated in closed form via the
Laplace transform of a product of two Kummer functions; the bound-state
series terminates, and each continuum Gauss function becomes a terminating
polynomial after Euler's transformation (`specfun._gauss_2f1`, which sums
no other kind of series).  Per partial wave,

    beta_l = sqrt(pi/(2 v)) * M_l / A,

with M_l the golden-rule matrix element, normalized so that the cross
section sigma = 16*alpha*v/omega * sum_l |beta_l|^2 (in units of pi*a0^2)
reproduces the textbook one-photon cross section in the weak-field limit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    QuantumNumbers,
    _radial_norm,
    angular_x,
    bound_energy,
    enumerate_basis,
)
from .eigensolver import EigenDecomposition, global_index, track_state
from .errors import ConfigurationError, DomainError
from .hamiltonian import LaserField
from .specfun import AppellF2Params, _gauss_2f1, appell_f2, log_abs_gamma
from .transitions import ScanRecord, scan
from .units import BINDING_ENERGY_AU, CONSTANTS

_COEFF_CUTOFF = 1e-15


@dataclass(frozen=True)
class ContinuumState:
    """Energy-normalized Coulomb continuum partial wave."""

    energy_Ef0: float  # hartree, > 0
    l: int
    mu: int

    def __post_init__(self):
        if self.energy_Ef0 <= 0:
            raise DomainError("continuum energy must be positive")
        if self.l < abs(self.mu):
            raise DomainError(f"|mu|={abs(self.mu)} exceeds l={self.l}")


@dataclass(frozen=True)
class IonizationRecord:
    """Per-branch photoionization observables for one dressed state."""

    dressed_state_index: int
    E_i: float           # pseudo-energy, hartree
    mu_branch: int
    E_f0: float          # photoelectron energy, hartree
    eta: float           # effective (generally non-integer) photon number
    beta_l: tuple        # partial amplitudes, index l - |mu_branch|
    rate_P: float        # transitions per unit time (atomic units)
    sigma: float         # cross section in units of pi*a0^2


def photoelectron_energy(E_i: float, mu_branch: int, omega: float) -> float:
    """E_f0 = E_i - mu*omega; non-positive values mark closed channels."""
    return E_i - mu_branch * omega


def eta_index(E_i: float, omega: float, mu_branch: int) -> float:
    """Effective photon number (E_i + b)/omega - mu, b = BINDING_ENERGY_AU."""
    if omega <= 0:
        raise ConfigurationError("omega must be positive")
    return (E_i + BINDING_ENERGY_AU) / omega - mu_branch


@lru_cache(maxsize=200_000)
def _bound_free_radial(n: int, l_b: int, l_f: int, k: float) -> float:
    """int_0^inf u_{E l_f}(r) r R_{n l_b}(r) r dr, closed form.

    u is the energy-normalized reduced Coulomb wave with momentum k.  Every
    Gauss function of the F2 sum is a polynomial (Euler's transformation);
    near threshold its terms cancel, by up to fifteen digits at n = 30 and
    k = 0.014, and such sums are redone at raised precision.  Against a
    60-digit evaluation of this formula the result agrees to 3e-12 relative
    or better on the grid of tests/test_bound_free_oracle.py: n up to 30,
    l_f = l_b +- 1, k from 0.014 (E_f0 of about 1e-4 hartree) to 3.
    """
    eta = -1.0 / k
    u = l_f + l_b + 4
    s = complex(1.0, -k * n) / 2.0
    q = complex(0.0, -k * n)
    a2, c1, c2 = complex(l_f + 1, eta), 2 * l_b + 2, 2 * l_f + 2
    x, y = 1.0 / s, q / s
    if n == l_f + 1 == l_b + 2:
        # a1 = -1 leaves the F2 terms m = 0 and 1.  The m = 0 Gauss function
        # is 1 - (c2 - a2) y / c2 after Euler's transformation, exactly zero
        # at n = l_f + 1; summed in doubles it is rounding noise that would
        # be re-summed in mpmath.  Keep the m = 1 term alone.
        f2 = -u / c1 * x * _gauss_2f1(u + 1, a2, c2, y)
    else:
        f2 = appell_f2(AppellF2Params(u, l_b + 1 - n, a2, c1, c2, x, y))
    core = (n / 2.0) ** u * math.factorial(u - 1) * s ** (-u) * f2
    # log-space Coulomb normalization: C_l blows up at threshold otherwise
    log_cl = (
        l_f * math.log(2.0)
        - math.pi * eta / 2.0
        + log_abs_gamma(l_f, eta)
        - math.lgamma(2 * l_f + 2)
    )
    pref = (
        math.sqrt(2.0 / (math.pi * k))
        * math.exp(log_cl)
        * k ** (l_f + 1)
        * _radial_norm(n, l_b)
    )
    value = pref * core
    return value.real if isinstance(value, complex) else float(value)


@lru_cache(maxsize=2)
def _bound_free_channels(n0: int, parity):
    """The bound states each continuum channel (mu_f, l_f) couples to.

    Maps (mu_f, l_f) to arrays over the states with |l_f - l_b| = 1 and
    |mu_f - mu_b| = 1, in basis order: their rows in a decomposition of the
    parity class `parity` (None: the whole basis), n_b, l_b, the signed
    angular factor of x_fb (negative for l_f = l_b + 1, where the i^l
    phases give -1) and E_b.
    """
    channels = {}
    rows = (
        s for s in enumerate_basis(n0).states
        if parity is None or (s.l + s.mu) % 2 == parity
    )
    for row, b in enumerate(rows):
        for l_f in (b.l - 1, b.l + 1):
            for mu_f in (b.mu - 1, b.mu + 1):
                if l_f < abs(mu_f):
                    continue
                angular = angular_x(l_f, mu_f, b.l, b.mu)
                factor = -angular if l_f == b.l + 1 else angular
                channels.setdefault((mu_f, l_f), []).append(
                    (row, b.n, b.l, factor, bound_energy(b.n))
                )
    return {
        key: tuple(np.array(column) for column in zip(*entries))
        for key, entries in channels.items()
    }


def bound_free_element(
    decomp: EigenDecomposition,
    dressed_index: int,
    final: ContinuumState,
    laser: LaserField,
) -> float:
    """<psi_f0| A p_x + A^2/2 |phi_i> with the i^l real phase convention.

    The A^2/2 constant contributes exactly zero: bound and continuum
    eigenstates of the Coulomb Hamiltonian are orthogonal.  Components
    below _COEFF_CUTOFF are skipped, and the terms are summed in basis
    order.
    """
    coeffs = decomp.column(dressed_index)
    if laser.amplitude_A == 0.0:
        return 0.0
    channel = _bound_free_channels(decomp.basis.n0, decomp.parity).get(
        (final.mu, final.l)
    )
    if channel is None:
        return 0.0
    rows, n, l_b, factor, energy = channel
    c = coeffs[rows]
    keep = np.abs(c) >= _COEFF_CUTOFF
    k = math.sqrt(2.0 * final.energy_Ef0)
    radial = np.array([
        _bound_free_radial(n_b, l, final.l, k)
        for n_b, l in zip(n[keep].tolist(), l_b[keep].tolist())
    ])
    # p_x(f, b) = (E_b - E_f0) * x_fb, the commutator relation of the basis
    terms = c[keep] * ((energy[keep] - final.energy_Ef0) * (factor[keep] * radial))
    return laser.amplitude_A * sum(terms.tolist(), 0.0)


def ionization_records(
    decomp: EigenDecomposition, dressed_index: int, laser: LaserField
):
    """IonizationRecord per open mu branch; empty if no channel is open.

    Each branch sums the continuum partial waves l_f = |mu| .. n0: the
    largest bound l, n0 - 1, plus one dipole step.
    """
    e_i = float(decomp.energies[dressed_index])
    n0 = decomp.basis.n0
    alpha = CONSTANTS.fine_structure_alpha
    records = []
    for mu in range(-n0, n0 + 1):
        e_f0 = photoelectron_energy(e_i, mu, laser.omega)
        if e_f0 <= 0:
            continue
        v = math.sqrt(2.0 * e_f0)
        betas = []
        rate = 0.0
        for l_f in range(abs(mu), n0 + 1):
            final = ContinuumState(energy_Ef0=e_f0, l=l_f, mu=mu)
            m_l = bound_free_element(decomp, dressed_index, final, laser)
            rate += 2.0 * math.pi * m_l**2
            if laser.amplitude_A > 0:
                betas.append(
                    math.sqrt(math.pi / (2.0 * v)) * m_l / laser.amplitude_A
                )
            else:
                betas.append(0.0)
        sigma = 16.0 * alpha * v / laser.omega * sum(b * b for b in betas)
        records.append(
            IonizationRecord(
                dressed_state_index=dressed_index,
                E_i=e_i,
                mu_branch=mu,
                E_f0=e_f0,
                eta=eta_index(e_i, laser.omega, mu),
                beta_l=tuple(betas),
                rate_P=rate,
                sigma=sigma,
            )
        )
    return records


def ionization_rate(
    decomp: EigenDecomposition, dressed_index: int, laser: LaserField
):
    """Total golden-rule rate and the per-branch records behind it."""
    records = ionization_records(decomp, dressed_index, laser)
    return sum(r.rate_P for r in records), records


def cross_section(
    decomp: EigenDecomposition, dressed_index: int, laser: LaserField
) -> float:
    """Total photoionization cross section in units of pi*a0^2."""
    records = ionization_records(decomp, dressed_index, laser)
    return sum(r.sigma for r in records)


@dataclass(frozen=True)
class IonizationScanPoint(ScanRecord):
    """The tracked initial dressed state at one field point and its
    IonizationRecords; a failed point has none."""

    amplitude_au: float
    dressed_index: int = -1    # position in the spectrum of the whole basis
    overlap: float = float("nan")
    ambiguous: bool = False
    records: tuple = ()

    @classmethod
    def observe(cls, decomp, initial, laser, axis_value) -> "IonizationScanPoint":
        tracked = track_state(decomp, initial)
        index = global_index(decomp, tracked.index, laser)
        records = tuple(ionization_records(decomp, tracked.index, laser))
        return cls(axis_value, laser.amplitude_A, index, tracked.overlap,
                   tracked.ambiguous, records)

    @classmethod
    def from_failure(cls, axis_value, laser, failure) -> "IonizationScanPoint":
        return cls(axis_value, laser.amplitude_A, failure=failure)


def ionization_intensity_scan(
    omega_au: float,
    amplitudes_au,
    n0: int,
    axis_values=None,
    initial: QuantumNumbers = QuantumNumbers(1, 0, 0),
):
    """Amplitude sweep of the tracked initial dressed state (Figs. 3/4 data)."""
    amplitudes_au = list(amplitudes_au)
    lasers = [LaserField(amp, omega_au) for amp in amplitudes_au]
    axis = amplitudes_au if axis_values is None else list(axis_values)
    return list(scan(enumerate_basis(n0), initial, axis, lasers, IonizationScanPoint))
