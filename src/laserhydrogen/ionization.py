"""Photoionization of a dressed hydrogen atom.

A dressed state with pseudo-energy E_i ejects electrons on magnetic-number
branches mu with kinetic energy E_f0 = E_i - mu*omega; the effective photon
number eta = (E_i + b)/omega - mu is in general not an integer.  Golden-rule
rates use energy-normalized Coulomb continuum states, which makes the final
density of states exactly one per unit energy.

The bound-free radial integrals are evaluated in closed form via the
Laplace transform of a product of two Kummer functions; the bound-state
series terminates, and each continuum Gauss function becomes a terminating
polynomial after Euler's transformation (`specfun._gauss_2f1`), so no
analytic continuation is needed.  Per partial wave,

    beta_l = sqrt(pi/(2 v)) * M_l / A,

with M_l the golden-rule matrix element, normalized so that the cross
section sigma = 16*alpha*v/omega * sum_l |beta_l|^2 (in units of pi*a0^2)
reproduces the textbook one-photon cross section in the weak-field limit.
"""

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.special as sp

from .basis import (
    QuantumNumbers,
    _radial_norm,
    angular_x,
    bound_energy,
    enumerate_basis,
)
from .eigensolver import EigenDecomposition, track_state
from .errors import ConfigurationError, DomainError
from .hamiltonian import LaserField
from .specfun import AppellF2Params, appell_f2
from .transitions import scan
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


def eta_index(
    E_i: float, omega: float, mu_branch: int, binding: float = BINDING_ENERGY_AU
) -> float:
    """Effective photon number (E_i + b)/omega - mu."""
    if omega <= 0:
        raise ConfigurationError("omega must be positive")
    return (E_i + binding) / omega - mu_branch


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
    f2 = appell_f2(
        AppellF2Params(
            u=u,
            a1=l_b + 1 - n,
            a2=complex(l_f + 1, eta),
            c1=2 * l_b + 2,
            c2=2 * l_f + 2,
            x=1.0 / s,
            y=q / s,
        )
    )
    core = (n / 2.0) ** u * math.factorial(u - 1) * s ** (-u) * f2
    # log-space Coulomb normalization: C_l blows up at threshold otherwise
    log_cl = (
        l_f * math.log(2.0)
        - math.pi * eta / 2.0
        + sp.loggamma(complex(l_f + 1, eta)).real
        - sp.gammaln(2 * l_f + 2)
    )
    pref = (
        math.sqrt(2.0 / (math.pi * k))
        * math.exp(log_cl)
        * k ** (l_f + 1)
        * _radial_norm(n, l_b)
    )
    value = pref * core
    return value.real if isinstance(value, complex) else float(value)


def _px_bound_free(final: ContinuumState, b: QuantumNumbers, k: float) -> float:
    """Real p_x matrix element between continuum bra and bound ket."""
    if abs(final.l - b.l) != 1 or abs(final.mu - b.mu) != 1:
        return 0.0
    radial = _bound_free_radial(b.n, b.l, final.l, k)
    x_fb = angular_x(final.l, final.mu, b.l, b.mu) * radial
    if final.l == b.l + 1:
        x_fb = -x_fb
    return (bound_energy(b.n) - final.energy_Ef0) * x_fb


def bound_free_element(
    decomp: EigenDecomposition,
    dressed_index: int,
    final: ContinuumState,
    laser: LaserField,
) -> float:
    """<psi_f0| A p_x + A^2/2 |phi_i> with the i^l real phase convention.

    The A^2/2 constant contributes exactly zero: bound and continuum
    eigenstates of the Coulomb Hamiltonian are orthogonal.
    """
    coeffs = decomp.column(dressed_index)
    if laser.amplitude_A == 0.0:
        return 0.0
    k = math.sqrt(2.0 * final.energy_Ef0)
    total = 0.0
    for j, b in enumerate(decomp.basis.states):
        c = coeffs[j]
        if abs(c) < _COEFF_CUTOFF:
            continue
        if abs(final.l - b.l) != 1 or abs(final.mu - b.mu) != 1:
            continue
        total += c * _px_bound_free(final, b, k)
    return laser.amplitude_A * total


def ionization_records(
    decomp: EigenDecomposition,
    dressed_index: int,
    laser: LaserField,
    binding: float = BINDING_ENERGY_AU,
    l_max: int = None,
):
    """IonizationRecord per open mu branch; empty if no channel is open."""
    e_i = float(decomp.energies[dressed_index])
    n0 = decomp.basis.n0
    if l_max is None:
        l_max = n0  # largest bound l plus one dipole step
    alpha = CONSTANTS.fine_structure_alpha
    records = []
    for mu in range(-n0, n0 + 1):
        e_f0 = photoelectron_energy(e_i, mu, laser.omega)
        if e_f0 <= 0:
            continue
        v = math.sqrt(2.0 * e_f0)
        betas = []
        rate = 0.0
        for l_f in range(abs(mu), l_max + 1):
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
                eta=eta_index(e_i, laser.omega, mu, binding),
                beta_l=tuple(betas),
                rate_P=rate,
                sigma=sigma,
            )
        )
    return records


def ionization_rate(
    decomp: EigenDecomposition, dressed_index: int, laser: LaserField, **kwargs
):
    """Total golden-rule rate and the per-branch records behind it."""
    records = ionization_records(decomp, dressed_index, laser, **kwargs)
    return sum(r.rate_P for r in records), records


def cross_section(
    decomp: EigenDecomposition, dressed_index: int, laser: LaserField, **kwargs
) -> float:
    """Total photoionization cross section in units of pi*a0^2."""
    records = ionization_records(decomp, dressed_index, laser, **kwargs)
    return sum(r.sigma for r in records)


@dataclass(frozen=True)
class IonizationScanPoint:
    axis_value: float          # amplitude in I/O units
    amplitude_au: float
    dressed_index: int = -1
    overlap: float = float("nan")
    ambiguous: bool = False
    records: tuple = ()
    failed: bool = False
    error: str = ""


def ionization_observation(
    decomp: EigenDecomposition,
    initial: QuantumNumbers,
    laser: LaserField,
    binding: float = BINDING_ENERGY_AU,
):
    """(tracked initial dressed state, its IonizationRecords) of one point."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a mixed state is reported by overlap
        tracked = track_state(decomp, initial)
    return tracked, ionization_records(decomp, tracked.index, laser, binding=binding)


def ionization_intensity_scan(
    omega_au: float,
    amplitudes_au,
    n0: int,
    axis_values=None,
    initial: QuantumNumbers = QuantumNumbers(1, 0, 0),
    binding: float = BINDING_ENERGY_AU,
    include_a2: bool = True,
):
    """Amplitude sweep of the tracked initial dressed state (Figs. 3/4 data)."""
    amplitudes_au = list(amplitudes_au)
    if axis_values is None:
        axis_values = amplitudes_au
    lasers = [LaserField(amp, omega_au) for amp in amplitudes_au]
    observe = partial(ionization_observation, binding=binding)
    results = scan(
        enumerate_basis(n0), initial, lasers, observe, include_a2=include_a2
    )
    points = []
    for axis_value, amp, result in zip(axis_values, amplitudes_au, results):
        if isinstance(result, Exception):
            points.append(
                IonizationScanPoint(axis_value, amp, failed=True, error=str(result))
            )
            continue
        tracked, records = result
        points.append(
            IonizationScanPoint(
                axis_value=axis_value,
                amplitude_au=amp,
                dressed_index=tracked.index,
                overlap=tracked.overlap,
                ambiguous=tracked.ambiguous,
                records=tuple(records),
            )
        )
    return points
