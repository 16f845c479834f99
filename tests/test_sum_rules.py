"""Sum rules and threshold continuity over the bound and continuum spectrum.

They tie the bound-free ladders of `ionization._bound_free_ladders`
(Burgess's recurrences in l, started from a closed form) to the
bound-bound integrals of `basis.radial_length_integral` (Gordon's closed
form, summed in exact integers); the two share no code.  sigma reads every
bound-free integral of a branch, and these check what one-energy checks do
not: the normalization across energies (the Thomas-Reiche-Kuhn sum S(0) =
sum_f f(i -> f) + int df/dE dE = 1, and for 1s S(-1) and S(-2), weighted
by (E' - E)^-1 and ^-2), the relative signs across n on both ladders
(closure with cross terms, sum_n R(a -> n l') R(n l' -> b) +
int I(a; E) I(b; E) dE = <a|r^2|b>), and the continuum at its threshold,
where n'^3 f(n l -> n' l') of the bound states meets df/dE (Seaton).
Summed over the final m and averaged over the initial, for l' = l +- 1,

    f = 2/3 (E' - E) max(l, l') / (2l + 1) R^2,

R the radial integral of r; in the continuum df/dE is the same with the
energy-normalized integral I(n, l; l').  Bethe and Salpeter, Quantum
Mechanics of One- and Two-Electron Atoms (1957), sections 61-63; Fano and
Cooper, Rev. Mod. Phys. 40, 441 (1968).
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


def _strength(n, l, l_f, energy, radial, power=0):
    """f, or df/dE, from (n, l) to energy `energy` and partial wave l_f,
    times (energy - E_n)^power."""
    return (2.0 / 3.0 * (energy - bound_energy(n)) * max(l, l_f) / (2 * l + 1)
            * radial * radial * (energy - bound_energy(n)) ** power)


def _with_tail(terms):
    """terms, the values of a sum at n' up to N_BOUND, and two closed-form
    terms for the rest of it.

    n'^3 times a term is a function analytic in E = -1/(2 n'^2) (Seaton), so
    it is C + D/n'^2 + F/n'^4 + ...  C and D are fitted at N_BOUND - 1 and
    N_BOUND, and the tail is C zeta(3, N + 1) + D zeta(5, N + 1) (Hurwitz);
    the F term it leaves out is -F/(6 N^6).
    """
    g_n, g_m = N_BOUND**3 * terms[-1], (N_BOUND - 1) ** 3 * terms[-2]
    c = (N_BOUND**2 * g_n - (N_BOUND - 1) ** 2 * g_m) / (2 * N_BOUND - 1)
    d = (g_n - c) * N_BOUND**2
    return terms + [c * float(mpmath.zeta(3, N_BOUND + 1)),
                    d * float(mpmath.zeta(5, N_BOUND + 1))]


def _bound_part(n, l, power=0):
    """sum of f (E' - E_n)^power over the bound states n' <= N_BOUND, and
    its tail."""
    total = []
    for l_f in (l - 1, l + 1):
        if l_f < 0:
            continue
        total += _with_tail(
            [_strength(n, l, l_f, bound_energy(m), radial_length_integral(n, l, m, l_f),
                       power)
             for m in range(l_f + 1, N_BOUND + 1)]
        )
    return math.fsum(total)


def _nodes():
    """Gauss-Legendre nodes and weights of u in (0, 1), with k and dE/du at
    each node of E = k^2/2 = (u/(1 - u))^2."""
    x, w = np.polynomial.legendre.leggauss(NODES)
    for u, weight in zip((0.5 * (x + 1.0)).tolist(), (0.5 * w).tolist()):
        yield weight, math.sqrt(2.0) * u / (1.0 - u), 2.0 * u / (1.0 - u) ** 3


def _continuum_part(n, l, power=0):
    """int df/dE (E - E_n)^power dE over E = (u/(1 - u))^2, u in (0, 1).

    sqrt(E) is rational in u, so the integrand is analytic at u = 1 (it
    falls as (1 - u)^(2l + 4)), and at threshold, u = 0, it is smooth.
    """
    terms = []
    for weight, k, jacobian in _nodes():
        up, down = _bound_free_ladders(n, 0, k)
        waves = [(l + 1, up[n, l])] + ([(l - 1, down[n, l])] if l > 0 else [])
        terms += [weight * jacobian * _strength(n, l, l_f, 0.5 * k * k, radial, power)
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


# The inverse moments S(p) = sum_f f (E' - E)^p + int df/dE (E - E_1s)^p dE
# of 1s: S(-1) = 2 <r^2>/3 = 2 and S(-2), the static polarizability, = 9/2
# (Bethe and Salpeter, section 63).  (E' - E)^p is analytic in E' at the
# threshold, so n'^3 times a term keeps the series `_with_tail` fits.
# Error budget of each, relative to the sum, by the three terms above:
# - tail: the sums to 200 and to 400 differ by 3.4e-14 and 4.7e-14, so
#   1/64 of that, under 1e-15, is left at N = 400;
# - quadrature: 200 and 400 nodes agree to 6.0e-15 and 3.9e-15;
# - the ladders: 1e-13 relative in df/dE times the continuum's share of
#   the sum, 0.28 and 0.19: 2.8e-14 and 1.9e-14.
# The tolerance is about twice the sum: 7e-14 and 5e-14.  For 1s each
# ladder is its closed-form top value, so these read `_top_integral` alone,
# weighted toward the threshold more than the TRK sum is.
@pytest.mark.parametrize("power, exact, tol", [
    (-1, 2.0, 7e-14),
    (-2, 4.5, 5e-14),
], ids=["S(-1)", "S(-2)"])
def test_inverse_moment_sums_of_1s(power, exact, tol):
    bound, continuum = _bound_part(1, 0, power), _continuum_part(1, 0, power)
    assert 0.0 < continuum < exact
    assert abs(bound + continuum - exact) <= tol * exact


def _closure(n_a, n_b, l, l_f):
    """sum_n R(a -> n l_f) R(n l_f -> b) + int I(a; E) I(b; E) dE over the
    partial wave l_f, for the states a = (n_a, l) and b = (n_b, l)."""
    bound = _with_tail([
        radial_length_integral(n_a, l, m, l_f) * radial_length_integral(n_b, l, m, l_f)
        for m in range(l_f + 1, N_BOUND + 1)
    ])
    continuum = []
    for weight, k, jacobian in _nodes():
        up, down = _bound_free_ladders(max(n_a, n_b), l, k)
        ladder = up if l_f > l else down
        continuum.append(weight * jacobian * ladder[n_a, l] * ladder[n_b, l])
    return math.fsum(bound + continuum)


def test_closure_ties_the_signs_across_n():
    # 1s and 2s through the p states: the sums of squares above do not see
    # the sign of any integral, this one reads the sign of I(2s; E) against
    # R(n p -> 2s) of every n.  <1s|r^2|2s> = -1536 sqrt(2)/729 exactly.
    # Error budget, relative: the tail leaves 5.5e-13 at N = 200 and 1/64 of
    # it, 9e-15, at N = 400; 200 and 400 nodes agree to 2.7e-14 absolute,
    # 9e-15 of the whole; the ladders are good to 5e-14 relative per
    # integral, and the continuum part is 1.32 of the -2.98, so 4.4e-14.
    # The tolerance is about twice the sum.
    exact = -1536.0 * math.sqrt(2.0) / 729.0
    assert abs(_closure(1, 2, 0, 1) - exact) <= 1.5e-13 * abs(exact)


# 2p and 3p through s, on the down ladder, and through d, on the up ladder:
# the 1s-2s closure reads the up ladder alone.  Through s it reads the sign
# of down[n, 1] across n, which no sum of squares sees.  Each intermediate l
# is a complete set of radial functions, so both sums give
# <2p|r^2|3p> = int R_21 R_31 r^4 dr = -1990656/78125 exactly.
# Error budget, relative, through s and through d:
# - tail: the sums to 200 and to 400 differ by 3.1e-13 and 4.4e-12, so
#   1/64 of that, 4.9e-15 and 6.9e-14, is left at N = 400;
# - quadrature: 200 and 400 nodes agree to 2.4e-16 and 2.5e-15;
# - the ladders: 1e-13 relative in a product of two integrals times the
#   continuum's share of the sum, 0.013 and 0.13: 1.3e-15 and 1.3e-14.
# The tolerance is about twice the sum: 1.5e-14 and 2e-13.
@pytest.mark.parametrize("l_f, tol", [(0, 1.5e-14), (2, 2e-13)],
                         ids=["through-s", "through-d"])
def test_closure_of_2p_and_3p_reads_both_ladders(l_f, tol):
    exact = -1990656.0 / 78125.0
    assert abs(_closure(2, 3, 1, l_f) - exact) <= tol * abs(exact)


def _at_threshold(energies, values):
    """The polynomial through the points (energy, value), at energy 0
    (Neville)."""
    for step in range(1, len(energies)):
        values = [(energies[j + step] * values[j] - energies[j] * values[j + 1])
                  / (energies[j + step] - energies[j])
                  for j in range(len(values) - 1)]
    return values[0]


# Every bound state with n <= 4, to both partial waves l_f = l +- 1.
_CHANNELS = [(n, l, l_f) for n in (1, 2, 3, 4) for l in range(n)
             for l_f in (l - 1, l + 1) if l_f >= 0]


# Error budget, relative.  Each side is a polynomial in E through its
# points, read at E = 0; the terms of the series in E grow about as
# (2 n^2)^j times a power of j, the nearest singularity being at
# E_n = -1/(2 n^2).
# - Below: the C that `_with_tail` fits at two shells is off by
#   F/(N^2 (N - 1)^2), up to 2.4e-8 of it (3d -> f), so a cubic through
#   n' = 100, 200, 300, 400 is read instead.  Its truncation, taken as what
#   a quartic through n' = 100 .. 500 moves it by, is at most 2.2e-14 for
#   n <= 3 and 3.0e-13 at n = 4 (4f -> g).  Its rounding is a few ulps of
#   each point times the weights of the read, whose magnitudes sum to 6.2:
#   under 1e-14.  For 1s it gives 256/(3 e^4) to 4e-16.
# - Above: a quadratic through k = 1, 2, 4 times 1e-4 leaves about
#   64 (2 n^2 E(1e-4))^3 = 3e-19 at n = 4.  Its rounding is that of the
#   ladders, 5e-14 relative in I (tests/test_bound_free_oracle.py, down to
#   k = 1e-5) and so 1e-13 in df/dE, times the weights, which sum to 1.9
#   in magnitude: 1.9e-13.
# The tolerance is about twice the sum: 5e-13 for n <= 3, where the
# rounding above dominates, and 1e-12 at n = 4.
@pytest.mark.parametrize("n, l, l_f", _CHANNELS,
                         ids=[f"{n}{'spdf'[l]}-{'spdfg'[l_f]}" for n, l, l_f in _CHANNELS])
def test_bound_strength_density_meets_the_continuum_at_threshold(n, l, l_f):
    shells = (100, 200, 300, 400)
    below = _at_threshold(
        [bound_energy(m) for m in shells],
        [m**3 * _strength(n, l, l_f, bound_energy(m),
                           radial_length_integral(n, l, m, l_f))
         for m in shells],
    )
    ks = (1e-4, 2e-4, 4e-4)
    above = []
    for k in ks:
        up, down = _bound_free_ladders(n, 0, k)
        above.append(_strength(n, l, l_f, 0.5 * k * k,
                               (up if l_f > l else down)[n, l]))
    tol = 5e-13 if n <= 3 else 1e-12
    assert abs(_at_threshold([0.5 * k * k for k in ks], above) - below) <= tol * below
    if (n, l) == (1, 0):
        assert abs(below - 256.0 / (3.0 * math.e**4)) <= 1e-14 * below
