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

    beta_l = sqrt(pi/(2 v)) * p_l,

with p_l = <psi_f0|p_x|phi_i> the golden-rule matrix element per unit A,
normalized so that the cross section sigma = 16*alpha*v/omega *
sum_l |beta_l|^2 (in units of pi*a0^2) reproduces the textbook one-photon
cross section in the weak-field limit, which it equals at A = 0.

A scan point (`IonizationScanPoint`) reads one dressed state, the one
tracked from the initial bare state, and `eigensolver.solve_tracked`
solves for it alone on half of its parity class.  Where that result
cannot be certified, the point diagonalizes the whole class instead and
records that it did (`full_solve`): the small components of such a
vector, and so sigma of strongly suppressed branches, carry the full
solve's rounding of about eps*|H|, while the folded solve's components
are good to about 1e-13 relative.  Its observe is the one function that
takes `include_a2` (the command line's --drop-a2): without it the records
read E_i less A^2/2, a shift of every level alike that moves no state.
A point that raises is a `transitions.PointFailure` in the list `scan` returns.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .basis import QuantumNumbers, _radial_norm, angular_x, enumerate_basis
from .eigensolver import (
    EigenDecomposition, diagonalize, global_index, solve_tracked, track_state,
)
from .errors import ConfigurationError, DomainError
from .hamiltonian import LaserField, assemble
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
    k = 0.014, and such sums are redone exactly.  Against a
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
        # is 1 - (c2 - a2) y / c2 after Euler's transformation, zero at
        # n = l_f + 1.  Its rounded arguments leave a residue even when it
        # is summed exactly, which would move sigma by up to 1e-14 relative.
        # Keep the m = 1 term alone.
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
def _bound_free_channels(basis, parity):
    """The bound states each continuum channel (mu_f, l_f) couples to.

    Maps (mu_f, l_f) to arrays over the states with |l_f - l_b| = 1 and
    |mu_f - mu_b| = 1, in basis order: their rows in a decomposition of the
    parity class `parity`, n_b, l_b, the signed
    angular factor of x_fb (negative for l_f = l_b + 1, where the i^l
    phases give -1) and E_b.
    """
    channels = {}
    for row, position in enumerate(basis.class_positions(parity).tolist()):
        b = basis.states[position]
        for l_f in (b.l - 1, b.l + 1):
            for mu_f in (b.mu - 1, b.mu + 1):
                if l_f < abs(mu_f):
                    continue
                angular = angular_x(l_f, mu_f, b.l, b.mu)
                factor = -angular if l_f == b.l + 1 else angular
                channels.setdefault((mu_f, l_f), []).append(
                    (row, b.n, b.l, factor, basis.energy[position])
                )
    return {
        key: tuple(np.array(column) for column in zip(*entries))
        for key, entries in channels.items()
    }


def bound_free_element(
    decomp: EigenDecomposition, dressed_index: int, final: ContinuumState
) -> float:
    """<psi_f0|p_x|phi_i> with the i^l real phase convention.

    The golden-rule element of A p_x + A^2/2 is A times this: the A^2/2
    constant contributes exactly zero, because bound and continuum
    eigenstates of the Coulomb Hamiltonian are orthogonal.  Components
    below _COEFF_CUTOFF are skipped, and the terms are summed in basis
    order.
    """
    coeffs = decomp.column(dressed_index)
    channel = _bound_free_channels(decomp.basis, decomp.parity).get(
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
    return sum(terms.tolist(), 0.0)


def ionization_records(
    decomp: EigenDecomposition, dressed_index: int, laser: LaserField
):
    """IonizationRecord per open mu branch; empty if no channel is open.

    Each branch sums the continuum partial waves l_f = |mu| .. n0: the
    largest bound l, n0 - 1, plus one dipole step.
    """
    e_i = decomp.energy(dressed_index)
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
            p_l = bound_free_element(decomp, dressed_index, final)
            rate += 2.0 * math.pi * (laser.amplitude_A * p_l) ** 2
            betas.append(math.sqrt(math.pi / (2.0 * v)) * p_l)
        sigma = 16.0 * alpha * v / laser.omega * sum(b * b for b in betas)
        records.append(
            IonizationRecord(
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


@dataclass(frozen=True)
class IonizationScanPoint(ScanRecord):
    """The tracked initial dressed state at one field point and its
    IonizationRecords.  full_solve marks a point whose tracked state came
    from the solve of its whole class."""

    dressed_index: int  # position in the spectrum of the whole basis
    overlap: float
    records: tuple
    full_solve: bool

    @property
    def ambiguous(self) -> bool:
        """The initial bare state is strongly mixed: overlap below 1/2."""
        return self.overlap < 0.5

    @classmethod
    def observe(cls, basis, initial, laser, axis_value, *, include_a2=True):
        """The state tracked from `initial` and its records at one field.

        `solve_tracked` finds it on half of its class; where that result
        cannot be certified, the class is assembled and diagonalized and
        `track_state` and `global_index` pick and place the state.  Without
        include_a2 the records read E_i less A^2/2: the constant shifts
        every level alike, so the state, its overlap and its place stay.
        """
        solved = solve_tracked(basis, laser, initial)
        if solved is None:
            decomp = diagonalize(assemble(basis, laser, parity=initial.parity))
            tracked = track_state(decomp, initial)
            index = global_index(decomp, tracked.index, laser)
        else:
            decomp, tracked, index = solved
        if not include_a2:
            shift = 0.5 * laser.amplitude_A**2
            decomp = replace(decomp, energies=decomp.energies - shift)
        records = tuple(ionization_records(decomp, tracked.index, laser))
        return cls(axis_value, index, tracked.overlap, records,
                   full_solve=solved is None)


def ionization_intensity_scan(
    omega_au: float,
    amplitudes_au,
    n0: int,
    axis_values=None,
    initial: QuantumNumbers = QuantumNumbers(1, 0, 0),
):
    """Amplitude sweep of the tracked initial dressed state (Figs. 3/4 data):
    one IonizationScanPoint per amplitude, failed points included."""
    amplitudes_au = list(amplitudes_au)
    lasers = [LaserField(amp, omega_au) for amp in amplitudes_au]
    axis = amplitudes_au if axis_values is None else list(axis_values)
    return scan(axis, lasers,
                partial(IonizationScanPoint.observe, enumerate_basis(n0), initial))
