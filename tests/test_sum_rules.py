"""The Thomas-Reiche-Kuhn sum over the bound and continuum spectrum.

S(0) = sum_f f(i -> f) + int df/dE dE = 1 ties the bound-free ladders of
`ionization._bound_free_ladders` (Burgess's recurrences in l, started from
a closed form) to the bound-bound integrals of `basis.radial_length_integral`
(Gordon's closed form, summed in exact integers); the two share no code.
sigma reads every bound-free integral of a branch, and the sum checks their
normalization across energies, which one-energy checks do not.  Summed over
the final m and averaged over the initial, for l' = l +- 1,

    f = 2/3 (E' - E) max(l, l') / (2l + 1) R^2,

R the radial integral of r; in the continuum df/dE is the same with the
energy-normalized integral I(n, l; l').  Bethe and Salpeter, Quantum
Mechanics of One- and Two-Electron Atoms (1957), sections 61-63.
"""

import math

import mpmath
import numpy as np
import pytest

from laserhydrogen.basis import bound_energy, radial_length_integral
from laserhydrogen.ionization import _bound_free_ladders

# the last bound shell summed term by term, and the Gauss-Legendre nodes
# of the continuum integral
N_BOUND = 400
NODES = 400


def _strength(n, l, l_f, energy, radial):
    """f, or df/dE, from (n, l) to energy `energy` and partial wave l_f."""
    return (2.0 / 3.0 * (energy - bound_energy(n)) * max(l, l_f) / (2 * l + 1)
            * radial * radial)


def _bound_part(n, l):
    """sum of f over the bound states n' <= N_BOUND, and a closed-form tail.

    n'^3 f(n') is df/dE at E = -1/(2 n'^2) (Seaton), analytic in E, so it
    is C + D/n'^2 + F/n'^4 + ...  C and D are fitted at N_BOUND - 1 and
    N_BOUND, and the tail is C zeta(3, N + 1) + D zeta(5, N + 1) (Hurwitz);
    the F term it leaves out is -F/(6 N^6).
    """
    total = []
    for l_f in (l - 1, l + 1):
        if l_f < 0:
            continue
        f = [_strength(n, l, l_f, bound_energy(m), radial_length_integral(n, l, m, l_f))
             for m in range(l_f + 1, N_BOUND + 1)]
        g_n, g_m = N_BOUND**3 * f[-1], (N_BOUND - 1) ** 3 * f[-2]
        c = (N_BOUND**2 * g_n - (N_BOUND - 1) ** 2 * g_m) / (2 * N_BOUND - 1)
        d = (g_n - c) * N_BOUND**2
        total += f + [c * float(mpmath.zeta(3, N_BOUND + 1)),
                      d * float(mpmath.zeta(5, N_BOUND + 1))]
    return math.fsum(total)


def _continuum_part(n, l):
    """int df/dE dE over E = (u/(1 - u))^2, u in (0, 1).

    sqrt(E) is rational in u, so the integrand is analytic at u = 1 (it
    falls as (1 - u)^(2l + 4)), and at threshold, u = 0, it is smooth.
    """
    x, w = np.polynomial.legendre.leggauss(NODES)
    terms = []
    for u, weight in zip((0.5 * (x + 1.0)).tolist(), (0.5 * w).tolist()):
        k = math.sqrt(2.0) * u / (1.0 - u)
        up, down = _bound_free_ladders(n, 0, k)
        waves = [(l + 1, up[n, l])] + ([(l - 1, down[n, l])] if l > 0 else [])
        jacobian = 2.0 * u / (1.0 - u) ** 3
        terms += [weight * jacobian * _strength(n, l, l_f, 0.5 * k * k, radial)
                  for l_f, radial in waves]
    return math.fsum(terms)


# Error budget of each sum, absolute:
# - tail: F/(6 N^6), measured as 1/64 of its value at N = 200 (the sums to
#   200 and to 400 differ by 1.9e-14, 4.6e-13 and 5.4e-12 for 1s, 2s, 3p);
# - quadrature: 200 and 400 nodes agree to 1e-14;
# - the ladders: 5e-14 relative in I (tests/test_bound_free_oracle.py),
#   1e-13 in the continuum part, which holds 0.43, 0.35 and 0.21 of S.
# Each tolerance is about twice the sum of the three.
@pytest.mark.parametrize("n, l, tol", [
    (1, 0, 1e-13),  # l = n - 1: each ladder is its closed-form top value
    (2, 0, 1e-13),  # the up ladder's recurrence runs
    (3, 1, 3e-13),  # both ladders, f(3p -> 1s, 2s) < 0
], ids=["1s", "2s", "3p"])
def test_thomas_reiche_kuhn_sum(n, l, tol):
    bound, continuum = _bound_part(n, l), _continuum_part(n, l)
    assert 0.0 < continuum < 1.0
    assert abs(bound + continuum - 1.0) <= tol
