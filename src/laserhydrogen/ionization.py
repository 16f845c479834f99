"""Photoionization of a dressed hydrogen atom.

A dressed state with pseudo-energy E_i ejects electrons on magnetic-number
branches mu with kinetic energy E_f0 = E_i - mu*omega; the effective photon
number eta = (E_i + b)/omega - mu is in general not an integer.  Golden-rule
rates use energy-normalized Coulomb continuum states, which makes the final
density of states exactly one per unit energy.

The bound-free radial integrals of one open branch come from two
three-term recurrences downward in l (`_bound_free_ladders`), started at
the top l = n - 1 from a Gamma-free closed form (`_top_integral`), and are
read once per branch: the states a branch mu reaches are laid out once
per basis and class (`_bound_free_channels`), and `bound_free_element`
gathers the dressed state's components on them once, however small, and
gives every partial wave of the branch.  Per partial wave l_f,
p_l = <psi_f0|p_x|phi_i> is the golden-rule matrix element per unit A,
normalized so that the cross section

    sigma = 8 pi alpha / omega * sum_l p_l^2   (in units of pi*a0^2)

reproduces the textbook one-photon cross section in the weak-field limit,
which it equals at A = 0; it does not divide by A.

A scan point (`IonizationScanPoint`) reads one dressed state, the one
tracked from the initial bare state, and `eigensolver.track_state`
solves for it on half of its parity class; its components are good to
about 1e-13 relative, however small.  Its observe is the one function that
takes `include_a2` (the command line's --drop-a2): without it the records
read E_i less A^2/2, a shift of every level alike that moves no state.
A library caller gets the point's records as `ionization_records(state,
0, laser.omega)` of the state that `track_state` returns.
A point that raises is a `transitions.PointFailure` in the list `scan` returns.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .basis import _radial_norm, angular_x
from .eigensolver import EigenDecomposition, track_state
from .errors import ConfigurationError, DomainError
from .transitions import ScanRecord
from .units import BINDING_ENERGY_AU, CONSTANTS


@dataclass(frozen=True)
class IonizationRecord:
    """Per-branch photoionization observables for one dressed state; E_f0
    and eta derive from E_i, the branch and omega."""

    E_i: float           # pseudo-energy, hartree
    mu_branch: int
    omega: float         # photon energy of sigma, E_f0 and eta, hartree
    sigma: float         # cross section in units of pi*a0^2

    @property
    def E_f0(self) -> float:
        """Photoelectron energy E_i - mu*omega, hartree."""
        return photoelectron_energy(self.E_i, self.mu_branch, self.omega)

    @property
    def eta(self) -> float:
        """Effective (generally non-integer) photon number."""
        return eta_index(self.E_i, self.omega, self.mu_branch)


def photoelectron_energy(E_i: float, mu_branch: int, omega: float) -> float:
    """E_f0 = E_i - mu*omega; non-positive values mark closed channels."""
    if not 0 < omega < math.inf:  # NaN fails it too
        raise ConfigurationError(f"omega must be finite and positive, got {omega!r}")
    return E_i - mu_branch * omega


def eta_index(E_i: float, omega: float, mu_branch: int) -> float:
    """Effective photon number (E_i + b)/omega - mu, b = BINDING_ENERGY_AU."""
    if not 0 < omega < math.inf:  # NaN fails it too
        raise ConfigurationError(f"omega must be finite and positive, got {omega!r}")
    return (E_i + BINDING_ENERGY_AU) / omega - mu_branch


def _top_integral(n: int, k: float) -> float:
    """I(n, n-1; n), the bound-free radial integral at the top of both ladders.

    In the closed form of the integral (the Laplace transform of a product
    of two Kummer functions) the Appell F2 sum over the bound index is one
    term here, and Euler's transformation leaves the continuum Gauss function
    a polynomial of degree 1.  Its Coulomb normalization carries exp(pi/(2k))
    and |Gamma(n+1+i eta)|, eta = -1/k.  With |Gamma(n+1+i eta)|^2 =
    pi |eta| / sinh(pi |eta|) prod_{s<=n} (s^2 + eta^2) (DLMF 5.4.3) the
    exponentials and every power of k cancel, which leaves, with
    a = 1 + n^2 k^2 and N the bound normalization,

        I = 2^(n+2) n^(2n+3) a^-(n+2) prod_{s<=n} (1 + s^2 k^2)^(1/2)
            * exp(-2 atan(nk)/k) (1 - exp(-2 pi/k))^(-1/2) * N(n, n-1).

    The integer 2^(n+2) n^(2n+3) is rounded once and the rest summed in
    logs, none of which grows as k -> 0: 6e-14 relative at worst for
    n <= 30 and k = 1e-5 .. 30, against a 60-digit Gamma form.  For 1s it
    squares to the textbook df/dE = 256/(3 a^4) exp(-4 atan(k)/k) /
    (1 - exp(-2 pi/k)).
    """
    k2 = k * k
    logs = [
        -(n + 2) * math.log1p(n * n * k2),
        *(0.5 * math.log1p(s * s * k2) for s in range(1, n + 1)),
        -2.0 * math.atan(n * k) / k,
        -0.5 * math.log(-math.expm1(-2.0 * math.pi / k)),
    ]
    # the sum as head + tail: rounded to one double it would cost up to
    # eps/2 times its size (2n at threshold) relative in I
    head = math.fsum(logs)
    value = math.exp(head)
    scale = float(2 ** (n + 2) * n ** (2 * n + 3)) * _radial_norm(n, n - 1)
    return (value + value * math.fsum([*logs, -head])) * scale


def _bound_free_ladders(n0: int, l_min: int, k: float):
    """The bound-free radial integrals of the basis at momentum k, l >= l_min.

    I(n, l; l_f) = int_0^inf u_{E l_f}(r) r R_{n l}(r) r dr, u the
    energy-normalized reduced Coulomb wave.  Returns read-only arrays (up,
    down) with up[n, l] = I(n, l; l + 1) and down[n, l] = I(n, l; l - 1) for
    l_min <= l < n <= n0, NaN elsewhere.

    Burgess's G(n, l; l_f) (Mem. R. Astron. Soc. 69, 1 (1965); Storey and
    Hummer, Comput. Phys. Commun. 66, 129 (1991)) obey two three-term
    recurrences downward in l, and I = C(n, k) G (2n)^l
    sqrt((n+l)!/(n-l-1)!) sqrt(prod_{s<=l_f} (1 + s^2 k^2)).  Each ladder
    runs on I itself, the normalization carried as ratios, because G
    overflows (n = 30, k = 3):

        w(l) I(l - 1) = A(l) / (2n) I(l) - w(l + 1) I(l + 1),
        w(l) = sqrt((n^2 - l^2) (1 + l_f^2 k^2)),
        A(l) = 4n^2 - 4L^2 + L (2l + 1) a,  L = max(l, l_f),  a = 1 + n^2 k^2,

    with l_f = l +- 1 on the up and down ladder.  Both start at l = n - 1
    from `_top_integral`, the down one as
    I(n, n-1; n-2) = sqrt(a / (1 + (n-1)^2 k^2)) / (2n) I(n, n-1; n), and
    stop at l_min: a branch mu reaches no bound l below |mu| - 1, and
    stopping there leaves every value above it as it is.  Against a
    60-digit evaluation of the closed form they agree to 5e-14 relative on
    the grid of tests/test_bound_free_oracle.py.
    """
    k2 = k * k
    up = np.full((n0 + 1, n0), np.nan)
    down = np.full((n0 + 1, n0), np.nan)
    for n in range(l_min + 1, n0 + 1):
        a = 1.0 + n * n * k2
        top = _top_integral(n, k)
        start_down = math.sqrt(a / (1.0 + (n - 1) ** 2 * k2)) / (2 * n) * top
        for ladder, step, value in ((up, 1, top), (down, -1, start_down)):
            above = w_above = 0.0
            # l_f = l + step >= 0
            for l in range(n - 1, max(l_min, -step) - 1, -1):
                ladder[n, l] = value
                big = max(l, l + step)
                w = math.sqrt((n * n - l * l) * (1.0 + (l + step) ** 2 * k2))
                a_l = 4 * n * n - 4 * big * big + big * (2 * l + 1) * a
                value, above, w_above = (
                    (a_l / (2 * n) * value - w_above * above) / w, value, w
                )
    up.flags.writeable = down.flags.writeable = False
    return up, down


@lru_cache(maxsize=2)
def _bound_free_channels(basis, parity):
    """The bound states each continuum branch mu_f couples to.

    Maps mu_f to arrays over the pairs of a partial wave l_f and a state b
    with |l_f - l_b| = 1 and |mu_f - mu_b| = 1, ordered by l_f and then in
    basis order: their l_f, the rows of b in a decomposition of the parity
    class `parity`, n_b, l_b, the signed angular factor of x_fb (negative
    for l_f = l_b + 1, where the i^l phases give -1) and E_b.
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
                channels.setdefault(mu_f, []).append(
                    (l_f, row, b.n, b.l, factor, basis.energy[position])
                )
    return {  # sorted is stable: within one l_f the states stay in basis order
        mu_f: tuple(np.array(column)
                    for column in zip(*sorted(entries, key=itemgetter(0))))
        for mu_f, entries in channels.items()
    }


def bound_free_element(
    decomp: EigenDecomposition, index: int, mu: int, e_f0: float
) -> np.ndarray:
    """<psi_f0|p_x|phi_i>, phi_i the dressed state of column `index` of
    `decomp`, with the i^l real phase convention, of each partial wave
    l_f = |mu| .. n0 of the branch mu at photoelectron energy e_f0 > 0
    (DomainError otherwise); empty for |mu| > n0.

    The golden-rule element of A p_x + A^2/2 is A times this: the A^2/2
    constant contributes exactly zero, because bound and continuum
    eigenstates of the Coulomb Hamiltonian are orthogonal.  Every
    component of the dressed column on the states the branch reaches
    counts, however small, and each partial wave sums its terms one after
    another in basis order (`np.bincount` adds its weights in input order).
    """
    if not e_f0 > 0:
        raise DomainError(f"continuum energy must be positive, got {e_f0!r}")
    n0 = decomp.basis.n0
    # no partial wave l_f <= n0 has |mu| > l_f
    waves = max(n0 + 1 - abs(mu), 0)
    channel = _bound_free_channels(decomp.basis, decomp.parity).get(mu)
    if channel is None:
        return np.zeros(waves)
    l_f, rows, n, l_b, factor, energy = channel
    up, down = _bound_free_ladders(n0, max(abs(mu) - 1, 0), math.sqrt(2.0 * e_f0))
    radial = np.where(l_b < l_f, up[n, l_b], down[n, l_b])
    # p_x(f, b) = (E_b - E_f0) * x_fb, the commutator relation of the basis
    terms = decomp.column(index)[rows] * ((energy - e_f0) * (factor * radial))
    return np.bincount(l_f - abs(mu), weights=terms, minlength=waves)


def ionization_records(decomp: EigenDecomposition, index: int, omega: float):
    """IonizationRecord per open mu branch of the dressed state of column
    `index` of `decomp` at photon energy omega (hartree); empty if no
    channel is open.

    Each branch sums the continuum partial waves l_f = |mu| .. n0: the
    largest bound l, n0 - 1, plus one dipole step.
    """
    e_i = decomp.energy(index)
    n0 = decomp.basis.n0
    alpha = CONSTANTS.fine_structure_alpha
    records = []
    for mu in range(-n0, n0 + 1):
        e_f0 = photoelectron_energy(e_i, mu, omega)
        if e_f0 <= 0:
            continue
        p = bound_free_element(decomp, index, mu, e_f0)
        p_squared = sum(p_l ** 2 for p_l in p.tolist())
        sigma = 8.0 * math.pi * alpha / omega * p_squared
        records.append(IonizationRecord(e_i, mu, omega, sigma))
    return records


@dataclass(frozen=True)
class IonizationScanPoint(ScanRecord):
    """The tracked initial dressed state at one field point and its
    IonizationRecords."""

    dressed_index: int  # position in the spectrum of the whole basis
    overlap: float
    records: tuple

    @property
    def ambiguous(self) -> bool:
        """The initial bare state is strongly mixed: overlap below 1/2."""
        return self.overlap < 0.5

    @classmethod
    def observe(cls, basis, initial, laser, axis_value, *, include_a2=True):
        """The state tracked from `initial` and its records at one field.

        `track_state` finds it on half of its class, and its records are
        `ionization_records` of that one state.  Without include_a2
        the records read E_i less A^2/2: the constant shifts every level
        alike, so the state, its overlap and its place stay.
        """
        decomp, overlap, index = track_state(basis, laser, initial)
        if not include_a2:
            shift = 0.5 * laser.amplitude_A**2
            decomp = replace(decomp, energies=decomp.energies - shift)
        records = tuple(ionization_records(decomp, 0, laser.omega))
        return cls(axis_value, index, overlap, records)
