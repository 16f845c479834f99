"""Truncated hydrogen bound-state basis and one-electron matrix elements.

States are labelled by (n, l, mu) and carry the i^l phase convention
(Condon-Shortley spherical harmonics), which makes every matrix element of
the rotating-frame Hamiltonian real.  In that convention the momentum
operator p_x has a real symmetric representation while x has the form
i * X with X real and antisymmetric, X(a, b) = +-angular_x * radial, so the
exact commutator relation

    <a|p_x|b> == (E_b - E_a) * X(a, b)

holds in atomic units.  The dipole radial integrals (l and l - 1) are
evaluated with Gordon's closed form, two terminating Gauss series summed in
exact integer arithmetic.  `class_layout` is the one builder of the p_x
elements: it lays out every nonzero one of a parity class between the
class's two mu halves, and keeps them.  This module alone knows the state
order, the parity rule and the two mu halves of a class; other modules read
them from `BasisSet` and `class_layout`.
"""

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError

N0_CAP = 30


@dataclass(frozen=True, order=True)
class QuantumNumbers:
    """Bound-state label (n, l, mu), three integers (int or numpy)."""

    n: int
    l: int
    mu: int

    def __post_init__(self):
        for name in ("n", "l", "mu"):
            value = getattr(self, name)
            # a bool is a numbers.Integral too; a plain int takes the fast test
            if type(value) is not int and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise ConfigurationError(f"l={self.l} outside [0, {self.n - 1}]")
        if abs(self.mu) > self.l:
            raise ConfigurationError(f"|mu|={abs(self.mu)} exceeds l={self.l}")

    @property
    def parity(self) -> int:
        """z-reflection parity (l + mu) mod 2.  A field in the xy-plane
        conserves it, so H couples no two states of different parity."""
        return (self.l + self.mu) % 2


def _position(n, l, mu):
    """Index of (n, l, mu) in the enumerate_basis order; broadcasts over
    numpy arrays."""
    return (n - 1) * n * (2 * n - 1) // 6 + l * l + l + mu


@dataclass(frozen=True)
class BasisSet:
    """All (n, l, mu) with n <= n0, in ascending (n, l, mu) order; n0 alone
    decides equality and the hash.  parity, energy (E_n) and mu are read-only
    arrays of each state's value in basis order."""

    n0: int
    states: tuple = field(repr=False, compare=False)

    def __len__(self):
        return len(self.states)

    def __contains__(self, state):
        return isinstance(state, QuantumNumbers) and state.n <= self.n0

    def position(self, state: QuantumNumbers) -> int:
        if state not in self:
            raise ConfigurationError(f"{state} not in basis (n0={self.n0})")
        return _position(state.n, state.l, state.mu)

    @cached_property
    def parity(self) -> np.ndarray:
        return _read_only([s.parity for s in self.states])

    @cached_property
    def energy(self) -> np.ndarray:
        return _read_only([bound_energy(s.n) for s in self.states])

    @cached_property
    def mu(self) -> np.ndarray:
        return _read_only([s.mu for s in self.states])

    def class_positions(self, parity: int) -> np.ndarray:
        """Basis positions of the states of parity 0 or 1, ascending."""
        return np.flatnonzero(self.parity == parity)


def _read_only(values) -> np.ndarray:
    """values as an array that cannot be written to (an array is not copied)."""
    arr = np.asarray(values)
    arr.flags.writeable = False
    return arr


def enumerate_basis(n0: int) -> BasisSet:
    if isinstance(n0, bool) or not isinstance(n0, numbers.Integral):
        raise ConfigurationError(f"n0 must be an integer, got {n0!r}")
    if not 1 <= n0 <= N0_CAP:
        raise ConfigurationError(f"n0 must be in [1, {N0_CAP}], got {n0}")
    states = tuple(
        QuantumNumbers(n, l, mu)
        for n in range(1, n0 + 1)
        for l in range(n)
        for mu in range(-l, l + 1)
    )
    return BasisSet(n0=n0, states=states)


def bound_energy(n: int) -> float:
    """Hydrogen bound-state energy -1/(2 n^2) in internal hartree.

    With the reduced mass the value is the same in mass-scaled units;
    UnitSystem applies the mass factor at I/O.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return -1.0 / (2.0 * n * n)


# --- radial normalization ---------------------------------------------

@lru_cache(maxsize=1024)
def _radial_norm(n: int, l: int) -> float:
    norm_sq = (
        Fraction(2, n) ** (2 * l + 3)
        * Fraction(math.factorial(n + l), 2 * n * math.factorial(n - l - 1))
        / math.factorial(2 * l + 1) ** 2
    )
    return math.sqrt(norm_sq)


# --- angular factors of x ------------------------------------------------

def _raise_up(l, mu):
    # coefficient of Y_{l+1,mu+1} in sin(theta) e^{i phi} Y_{l,mu}
    return -math.sqrt((l + mu + 1) * (l + mu + 2) / ((2 * l + 1) * (2 * l + 3)))


def _raise_down(l, mu):
    # coefficient of Y_{l-1,mu+1} in sin(theta) e^{i phi} Y_{l,mu}
    return math.sqrt((l - mu) * (l - mu - 1) / ((2 * l - 1) * (2 * l + 1)))


def angular_x(l_bra: int, mu_bra: int, l_ket: int, mu_ket: int) -> float:
    """<Y_{l' mu'}| sin(theta) cos(phi) |Y_{l mu}> (Condon-Shortley)."""
    dl, dmu = l_bra - l_ket, mu_bra - mu_ket
    if abs(dl) != 1 or abs(dmu) != 1:
        return 0.0
    l, mu = l_ket, mu_ket
    if dmu == 1:
        return 0.5 * (_raise_up(l, mu) if dl == 1 else _raise_down(l, mu))
    # sin(theta) e^{-i phi} coefficients follow by mu -> -mu symmetry
    return 0.5 * (-_raise_up(l, -mu) if dl == 1 else -_raise_down(l, -mu))


# --- radial integrals, closed form ---------------------------------------

def _gauss_polynomial(a: int, b: int, c: int, x: int, y: int):
    """F(-a, -b; c; x/y) as (num, den, J) with F = num / (den * y**J).

    J = min(a, b) is the degree; num and den are integers, den = (c)_J J!.
    """
    degree = min(a, b)
    den = 1
    for j in range(degree):
        den *= (c + j) * (j + 1)
    # coeffs[j] = den * (-a)_j (-b)_j / ((c)_j j!), an integer
    coeffs = [den]
    for j in range(degree):
        coeffs.append(coeffs[-1] * (j - a) * (j - b) // ((c + j) * (j + 1)))
    num, y_pow = coeffs[degree], y
    for j in range(degree - 1, -1, -1):
        num = num * x + coeffs[j] * y_pow
        y_pow *= y
    return num, den, degree


@lru_cache(maxsize=None)
def radial_length_integral(n1: int, l1: int, n2: int, l2: int) -> float:
    """int_0^inf R_{n1 l1}(r) r R_{n2 l2}(r) r^2 dr for |l1 - l2| = 1.

    Symmetric in its two states.  With (n, l) the state of larger l and
    (n', l - 1) the other, Gordon's closed form (Ann. Phys. 2, 1031, 1929)
    reads, for n != n',

        (-1)^(n'-l) / (4 (2l-1)!) sqrt[(n+l)! (n'+l-1)! / ((n-l-1)! (n'-l)!)]
        * (4nn')^(l+1) (n-n')^(n+n'-2l-2) / (n+n')^(n+n')
        * [F(-n_r, -n'_r; 2l; z) - ((n-n')/(n+n'))^2 F(-n_r-2, -n'_r; 2l; z)]

    with n_r = n-l-1, n'_r = n'-l and z = -4nn'/(n-n')^2; within a shell it
    is -(3/2) n sqrt(n^2 - l^2).  Both Gauss series terminate; they and the
    rational prefactor are summed exactly in integers over one common
    denominator, which avoids the cancellation of large-n hydrogen integrals
    in floating point, and the result is rounded to float once.  Other l
    raise ConfigurationError.
    """
    if abs(l1 - l2) != 1:
        raise ConfigurationError(
            f"radial_length_integral needs |l1 - l2| = 1, got l1={l1}, l2={l2}"
        )
    if l2 > l1:
        n1, l1, n2, l2 = n2, l2, n1, l1
    n, l, m = n1, l1, n2
    if n == m:
        return -1.5 * n * math.sqrt(n * n - l * l)
    d, s, p = n - m, n + m, 4 * n * m
    e = n + m - 2 * l - 2
    # bracket = d^(e+1) [F1 - (d/s)^2 F2] den1 den2 s^2, all powers of d >= 0
    num1, den1, deg1 = _gauss_polynomial(n - l - 1, m - l, 2 * l, -p, d * d)
    num2, den2, deg2 = _gauss_polynomial(n - l + 1, m - l, 2 * l, -p, d * d)
    bracket = (num1 * d ** (e + 1 - 2 * deg1) * den2 * s * s
               - num2 * d ** (e + 3 - 2 * deg2) * den1)
    num = (-1) ** (m - l) * p ** (l + 1) * bracket
    den = 4 * math.factorial(2 * l - 1) * s ** (s + 2) * den1 * den2 * d
    root_sq = (math.factorial(n + l) // math.factorial(n - l - 1)
               * (math.factorial(m + l - 1) // math.factorial(m - l)))
    # value = num / den * sqrt(root_sq), rounded once through its square
    magnitude = math.sqrt(num * num * root_sq / (den * den))
    return magnitude if (num > 0) == (den > 0) else -magnitude


@lru_cache(maxsize=2)
def class_layout(basis: BasisSet, parity: int):
    """The nonzero <a|p_x|b> of the class `parity` (0 or 1) in the
    coordinates of its two mu halves.

    Returns read-only (even, odd, r, c, p_x): the rows of the class (indices
    into its class_positions) whose mu is even and those whose mu is odd,
    each ascending, and each coupling once, p_x joining row even[r] to row
    odd[c], bit for bit the element-wise reference `px_matrix_element` of
    tests/oracles.py.  p_x changes mu by one, so every coupling joins one
    half to the other.  A scan stays on one basis and reads at most both
    of its classes: both are kept.
    """
    positions = basis.class_positions(parity)
    odd_mu = basis.mu[positions] % 2 == 1
    even, odd = np.flatnonzero(~odd_mu), np.flatnonzero(odd_mu)
    in_half = np.empty(len(basis), dtype=np.intp)  # a state's row in its half
    in_half[positions[even]] = np.arange(len(even))
    in_half[positions[odd]] = np.arange(len(odd))
    r, c, values = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    # (n1, l1, mu1) -> (n2, l1 + 1, mu1 +- 1) with the lower state in the
    # class; class 1 has no l = 0 state
    for l1 in range(parity, basis.n0 - 1):
        l2 = l1 + 1
        mu1 = np.repeat(np.arange(-l1 + parity, l1 + 1, 2), 2)
        mu2 = mu1 + np.tile([-1, 1], len(mu1) // 2)
        angular = np.array([
            angular_x(l1, m1, l2, m2)
            for m1, m2 in zip(mu1.tolist(), mu2.tolist())
        ])
        pairs = [
            (n1, n2)
            for n1 in range(l1 + 1, basis.n0 + 1)
            for n2 in range(l2 + 1, basis.n0 + 1)
            if n1 != n2
        ]
        radial = np.array([radial_length_integral(a, l1, b, l2) for a, b in pairs])
        de = np.array([bound_energy(b) - bound_energy(a) for a, b in pairs])
        n1, n2 = np.array(pairs).T
        lower = in_half[_position(n1[:, None], l1, mu1)].ravel()
        upper = in_half[_position(n2[:, None], l2, mu2)].ravel()
        # every mu1 of the class at l1 has the parity of l1 + parity
        r.append(upper if (l1 + parity) % 2 else lower)
        c.append(lower if (l1 + parity) % 2 else upper)
        # px(a, b) = (E_b - E_a) * X(a, b) with X = angular * radial
        values.append((de[:, None] * (angular * radial[:, None])).ravel())
    return tuple(_read_only(a) for a in (
        even, odd, np.concatenate(r), np.concatenate(c), np.concatenate(values)
    ))
