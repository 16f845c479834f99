"""Validation oracles that no program path calls.

The program evaluates every radial integral in closed form; the tests check
those closed forms against independent routes built from the functions
here: normalized hydrogen radial functions integrated on Gauss-Laguerre
grids, the Kummer function F(a, c, z) summed as a Taylor series, and the
energy-normalized Coulomb wave.  `px_matrix_element` and `x_matrix_element`
give one element of p_x and of x for one pair of states, which the tests
hold `class_layout`, the program's one builder of them, to.  The program
builds and solves one parity class at a time; `whole_hamiltonian` is H over
the whole basis, which the tests hold the class blocks and class spectra
to, and `whole_eigh` its solve in the fig1 field, made once per n0.
`merged_columns` is the stable merge of both classes' spectra, which the
tests hold the level counts to, and `refined_eigenpair` refines one
eigenpair of a class in extended precision, which the tests hold the
tracked dressed state and its sigma to.  `averaged_probability` is one W(a, b) summed from two rows of a
decomposition, which the tests hold `transition_table` to, and
`tracked_index` picks the tracked column of a whole class, which the tests
hold `track_state` to; `fold_only` is `track_state` with its class solve
refused.
`bound_free_radial` reads one bound-free radial integral from the
program's ladders, and `partial_wave_elements` gives the p_l whose squares
a record's sigma sums, from which the tests take the golden-rule rate and
the partial amplitudes that no output reads; `bound_free_loop` sums one
p_l term by term over the basis, and `stobbe_sigma_pi_a0sq` is the
textbook sigma of 1s.  `FIG3_SIGMA` holds sigma of the refined eigenpair at
two points of fig3.  `WITHOUT_ORACLES` is a prefix for a fresh interpreter's
code that makes mpmath and scipy look uninstalled.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from unittest import mock

import mpmath
import numpy as np
import scipy.linalg

import laserhydrogen.eigensolver as eigensolver
from laserhydrogen.basis import (
    QuantumNumbers,
    _radial_norm,
    angular_x,
    bound_energy,
    class_layout,
    enumerate_basis,
    radial_length_integral,
)
from laserhydrogen.errors import ConvergenceError, DomainError
from laserhydrogen.hamiltonian import LaserField
from laserhydrogen.ionization import _bound_free_ladders, bound_free_element
from laserhydrogen.specfun import KummerParams, _as_nonpositive_int
from laserhydrogen.units import CONSTANTS, UnitSystem

_SERIES_CAP = 2000
_SERIES_RTOL = 1e-16


# --- the time-averaged transition probability ----------------------------

def averaged_probability(decomp, from_state, to_state) -> float:
    """W(a, b) = sum_i C_a(i)^2 C_b(i)^2 over the dressed states of the
    decomposition's class; a state of another class raises."""
    c_from, c_to = decomp.row(from_state), decomp.row(to_state)
    return float(np.dot(c_from**2, c_to**2))


# --- the tracked state, picked from a whole class -------------------------

def tracked_index(decomp, target) -> int:
    """Column of a whole-class decomposition tracked from bare state
    `target`: the largest overlap on it, the first (lowest-energy) of equal
    overlaps, picked from the class solve alone and not from the fold."""
    return int(np.argmax(decomp.row(target) ** 2))


class _ClassSolve(Exception):
    """Raised by `fold_only` in place of the class solve."""


def fold_only(basis, laser, target):
    """The fold's own attempt at the tracked state of `target`:
    `track_state`'s result where the fold certifies it, None where it
    would solve the class."""
    with mock.patch.object(eigensolver, "diagonalize", side_effect=_ClassSolve):
        try:
            return eigensolver.track_state(basis, laser, target)
        except _ClassSolve:
            return None


# --- the program's bound-free values, one at a time ----------------------

def bound_free_radial(n: int, l_b: int, l_f: int, k: float) -> float:
    """I(n, l_b; l_f) at momentum k, read from the ladders of an n0 = n basis."""
    up, down = _bound_free_ladders(n, 0, k)
    return float((up if l_f > l_b else down)[n, l_b])


def partial_wave_elements(decomp, index, record):
    """[p_l for l_f = |mu| .. n0] on the record's branch: bound_free_element,
    the golden-rule element per unit A, of each partial wave that sigma sums,
    for the dressed state of column `index` of `decomp`."""
    return bound_free_element(decomp, index, record.mu_branch, record.E_f0).tolist()


def bound_free_loop(decomp, index, mu, l_f, e_f0):
    """p_l of the partial wave l_f of the branch mu as a loop over every
    state the decomposition holds, the reference for the per-branch arrays
    of bound_free_element."""
    k = math.sqrt(2.0 * e_f0)
    total = 0.0
    for c, j in zip(decomp.column(index), decomp.rows):
        b = decomp.basis.states[j]
        if abs(l_f - b.l) != 1 or abs(mu - b.mu) != 1:
            continue
        x_fb = angular_x(l_f, mu, b.l, b.mu) * bound_free_radial(b.n, b.l, l_f, k)
        if l_f == b.l + 1:
            x_fb = -x_fb
        total += c * ((bound_energy(b.n) - e_f0) * x_fb)
    return total


def stobbe_sigma_pi_a0sq(omega):
    """Textbook nonrelativistic 1s photoionization cross section / (pi a0^2)."""
    b = 0.5
    k = math.sqrt(2.0 * (omega - b))
    zeta = 1.0 / k
    alpha = CONSTANTS.fine_structure_alpha
    return (
        (2**9 * math.pi / 3) * alpha * (b / omega) ** 4
        * math.exp(-4 * zeta * math.atan(1.0 / zeta))
        / (1.0 - math.exp(-2 * math.pi * zeta))
    )


# dressed_index and sigma (pi a0^2, mu = -10 .. -6) of the fig3 preset's
# first and last point: sigma of the tracked eigenpair refined in extended
# precision (refined_eigenpair, held to these values by
# test_tracked_solve).  The small components of a full-class eigh column
# carry its rounding, which moved the first point's sigma by 8.1e-10.
FIG3_SIGMA = {
    "5e-07": ("20", (1.0718434841306858e-46, 5.123962545622508e-38,
                     2.4824434703913124e-30, 1.8233497785246728e-23,
                     1.9086490766546738e-17)),
    "5e-06": ("10", (4.706698302443968e-28, 1.2497905264915193e-21,
                     2.6953797490222006e-16, 4.778878272001851e-12,
                     3.736337484452822e-09)),
}


def ionization_rate(decomp, index, record, amplitude) -> float:
    """Golden-rule transitions per unit time on the record's branch,
    sum_l 2 pi (A p_l)^2 in atomic units."""
    return sum(
        2.0 * math.pi * (amplitude * p) ** 2
        for p in partial_wave_elements(decomp, index, record)
    )


# --- one-electron matrix elements, one pair of states at a time ---------

def x_matrix_element(a: QuantumNumbers, b: QuantumNumbers) -> float:
    """Real representative X of <a|x|b> in the i^l convention.

    The phased matrix element is i*X; X is antisymmetric under a <-> b
    (the operator itself stays Hermitian).
    """
    if abs(a.l - b.l) != 1 or abs(a.mu - b.mu) != 1:
        return 0.0
    radial = radial_length_integral(a.n, a.l, b.n, b.l)
    u = angular_x(a.l, a.mu, b.l, b.mu) * radial
    return -u if a.l == b.l + 1 else u


def px_matrix_element(a: QuantumNumbers, b: QuantumNumbers) -> float:
    """Real matrix element <a|p_x|b> in the i^l convention (symmetric).

    Evaluated through the exact commutator route p_x = i[H0, x] between
    bound Coulomb eigenstates; vanishes identically for degenerate pairs.
    """
    if abs(a.l - b.l) != 1 or abs(a.mu - b.mu) != 1:
        return 0.0
    if a.n == b.n:
        return 0.0
    return (bound_energy(b.n) - bound_energy(a.n)) * x_matrix_element(a, b)


# --- the pseudo-Hamiltonian over the whole basis ------------------------

def whole_hamiltonian(basis, laser) -> np.ndarray:
    """H_ps = H_0 + omega*L_z + A*p_x + A^2/2 over every state of the
    basis, in basis order, with both classes' couplings scattered from
    `class_layout` through `class_positions`."""
    dim = len(basis)
    h = np.zeros((dim, dim), order="F")
    np.fill_diagonal(
        h, basis.energy + basis.mu * laser.omega + 0.5 * laser.amplitude_A**2
    )
    if laser.amplitude_A != 0.0:
        for parity in (0, 1):
            positions = basis.class_positions(parity)
            even, odd, r, c, values = class_layout(basis, parity)
            rows, cols = positions[even[r]], positions[odd[c]]
            h[rows, cols] = h[cols, rows] = laser.amplitude_A * values
    return h


# the fig1 preset's field: A = 5e-6 V*s/m at 0.5 eV
_UNITS = UnitSystem()
FIG1_LASER = LaserField(
    _UNITS.vector_potential_to_internal(5e-6), _UNITS.ev_to_internal(0.5)
)


@lru_cache(maxsize=None)
def whole_eigh(n0):
    """(energies, vectors) of `scipy.linalg.eigh`, its default LAPACK
    routine, of the whole-basis H of an n0 basis in `FIG1_LASER`,
    read-only: each n0 is solved once however many tests read it."""
    energies, vectors = scipy.linalg.eigh(
        whole_hamiltonian(enumerate_basis(n0), FIG1_LASER))
    energies.flags.writeable = vectors.flags.writeable = False
    return energies, vectors


def merged_columns(basis, laser):
    """Column of each level of class 0 and of class 1 in the stable merge
    of both classes' eigenvalues of the whole-basis H, class 0 first in a
    tie; and the merged energies."""
    whole = whole_hamiltonian(basis, laser)
    levels = [
        np.linalg.eigvalsh(whole[np.ix_(rows, rows)])
        for rows in (basis.class_positions(p) for p in (0, 1))
    ]
    energies = np.concatenate(levels)
    order = np.argsort(energies, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    return (column[:len(levels[0])], column[len(levels[0]):]), energies[order]


_REFINE_STEPS = 3
_REFINE_DPS = 50


def refined_eigenpair(entries, vector, energy):
    """(vector, energy) of symmetric `entries` refined by mixed-precision
    inverse iteration, both rounded to floats once at the end.

    The float entries are taken as exact.  Each step takes the residual
    r = H v - E v in mpmath (`_REFINE_DPS` digits) over the nonzero entries
    of each row, solves the bordered system [[H - E, -v], [-v^T, 0]] for a
    correction orthogonal to v and a shift of E with `numpy.linalg.solve`
    on the dense class, and adds both in mpmath; three steps reach every
    component a float can hold.
    """
    h = np.asarray(entries, dtype=float)
    dim = len(h)
    with mpmath.workdps(_REFINE_DPS):
        rows = [
            [(j, mpmath.mpf(float(h[i, j]))) for j in np.flatnonzero(h[i]).tolist()]
            for i in range(dim)
        ]
        v = [mpmath.mpf(float(x)) for x in vector]
        e = mpmath.mpf(float(energy))
        bordered = np.zeros((dim + 1, dim + 1))
        for _ in range(_REFINE_STEPS):
            residual = [
                mpmath.fsum(a * v[j] for j, a in row) - e * v[i]
                for i, row in enumerate(rows)
            ]
            v_float = np.array([float(x) for x in v])
            bordered[:dim, :dim] = h - float(e) * np.eye(dim)
            bordered[:dim, dim] = bordered[dim, :dim] = -v_float
            step = np.linalg.solve(
                bordered, np.append([-float(r) for r in residual], 0.0)
            )
            v = [x + mpmath.mpf(float(d)) for x, d in zip(v, step[:dim])]
            e += mpmath.mpf(float(step[dim]))
            norm = mpmath.sqrt(mpmath.fsum(x * x for x in v))
            v = [x / norm for x in v]
        return np.array([float(x) for x in v]), float(e)


# --- hydrogen radial functions and quadrature ---------------------------

@lru_cache(maxsize=1024)
def _radial_poly_coeffs(n: int, l: int):
    """Coefficients of the terminating Kummer F(l+1-n, 2l+2, t) in t."""
    a, c = l + 1 - n, 2 * l + 2
    coeffs = [1.0]
    for j in range(n - l - 1):
        coeffs.append(coeffs[-1] * (a + j) / ((c + j) * (j + 1)))
    return tuple(coeffs)


def radial_wavefunction(n: int, l: int, r):
    """Normalized radial function R_nl(r), int R^2 r^2 dr = 1."""
    r = np.asarray(r, dtype=float)
    t = 2.0 * r / n
    poly = np.zeros_like(t)
    for c in reversed(_radial_poly_coeffs(n, l)):
        poly = poly * t + c
    out = _radial_norm(n, l) * r ** l * np.exp(-r / n) * poly
    return out if out.shape else float(out)


@dataclass(frozen=True)
class RadialGrid:
    """Gauss-Laguerre nodes/weights for integrals over [0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))


def make_radial_grid(order: int, scale: float = 1.0) -> RadialGrid:
    """Grid exact for e^{-scale*r} times polynomials of degree <= 2*order-1."""
    x, w = np.polynomial.laguerre.laggauss(order)
    return RadialGrid(nodes=x / scale, weights=w * np.exp(x) / scale)


def _pair_grid(n1: int, n2: int) -> RadialGrid:
    return make_radial_grid(4 * max(n1, n2) + 20, scale=1.0 / n1 + 1.0 / n2)


def overlap(a: QuantumNumbers, b: QuantumNumbers) -> float:
    """Quadrature overlap <a|b>; angular part handled exactly."""
    if (a.l, a.mu) != (b.l, b.mu):
        return 0.0
    grid = _pair_grid(a.n, b.n)
    r = grid.nodes
    vals = radial_wavefunction(a.n, a.l, r) * radial_wavefunction(b.n, b.l, r) * r**2
    return grid.integrate(vals)


# --- Kummer confluent hypergeometric F(a, c, z) -------------------------

def _kummer_series(a, c, z, n_terms=None):
    # z*0 + 1 keeps the accumulator in z's arithmetic (Fraction stays exact)
    total = z * 0 + 1
    term = total
    cap = n_terms if n_terms is not None else _SERIES_CAP
    for j in range(cap):
        term = term * (a + j) / (c + j) * z / (j + 1)
        total += term
        if n_terms is None and abs(term) <= _SERIES_RTOL * abs(total):
            return total
    if n_terms is not None:
        return total
    raise ConvergenceError(
        f"Kummer series F({a},{c},{z}) did not converge in {_SERIES_CAP} terms "
        f"(last term {term})"
    )


def kummer_1f1(p: KummerParams, z):
    """Confluent hypergeometric F(a, c, z).

    Terminating series are summed as exact finite sums.  Otherwise a direct
    Taylor sum is used, with the Kummer transformation
    F(a,c,z) = e^z F(c-a, c, -z) applied for arguments with negative real
    part to avoid alternating-series cancellation.
    """
    n = _as_nonpositive_int(p.a)
    if n is not None:
        return _kummer_series(p.a, p.c, z, n_terms=n)
    re_z = z.real if isinstance(z, complex) else z
    if re_z < 0:
        ez = cmath.exp(z) if isinstance(z, complex) else math.exp(z)
        return ez * _kummer_series(p.c - p.a, p.c, -z)
    return _kummer_series(p.a, p.c, z)


# --- Coulomb continuum radial wave -------------------------------------

_COULOMB_SERIES_RHO_MAX = 6.0


@lru_cache(maxsize=4096)
def _coulomb_norm(l: int, eta: float) -> float:
    """C_l(eta) = 2^l e^{-pi eta/2} |Gamma(l+1+i eta)| / (2l+1)!."""
    g = abs(complex(mpmath.gamma(complex(l + 1, eta))))
    return 2.0 ** l * math.exp(-math.pi * eta / 2.0) * g / math.factorial(2 * l + 1)


def coulomb_radial(energy: float, l: int, r: float, charge: float = 1.0) -> float:
    """Energy-normalized regular Coulomb radial wave u_{El}(r).

    Returns the reduced radial function (r times the full radial factor) of
    an electron with kinetic energy `energy` (hartree) in the attractive
    field of the given nuclear charge, normalized so <E|E'> = delta(E-E').
    u behaves like r^{l+1} at the origin; charge=0 reduces to the free
    spherical wave k r j_l(k r).
    """
    if energy <= 0:
        raise DomainError("continuum energy must be positive")
    if r <= 0:
        raise DomainError("radius must be positive")
    k = math.sqrt(2.0 * energy)
    eta = -charge / k
    rho = k * r
    norm = math.sqrt(2.0 / (math.pi * k))
    if rho <= _COULOMB_SERIES_RHO_MAX:
        m = _kummer_series(
            complex(l + 1, eta), float(2 * l + 2), complex(0.0, -2.0 * rho)
        )
        f = _coulomb_norm(l, eta) * rho ** (l + 1) * (cmath.exp(1j * rho) * m).real
    else:
        f = float(mpmath.coulombf(l, eta, rho))
    return norm * f


# --- a fresh interpreter without the oracles -----------------------------

# Prefixed to the code of a fresh interpreter, makes mpmath and scipy look
# uninstalled: find_spec finds neither, and an import of either raises
# ModuleNotFoundError.
WITHOUT_ORACLES = (
    "import importlib.abc, importlib.util, sys\n"
    "ORACLES = ('mpmath', 'scipy')\n"
    "find_spec = importlib.util.find_spec\n"
    "importlib.util.find_spec = lambda name, package=None: (\n"
    "    None if name.split('.')[0] in ORACLES else find_spec(name, package))\n"
    "class Refuse(importlib.abc.MetaPathFinder):\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] in ORACLES:\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, Refuse())\n"
)
