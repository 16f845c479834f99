"""Bound-free radial integrals against a 60-digit evaluation of their closed form.

The program takes them from two recurrences downward in l
(`ionization._bound_free_ladders`).  `_mp_bound_free_radial` evaluates the
closed form they start from at every l, term by term in mpmath: the outer
Appell-F2 sum over the bound index, the untransformed continuum Gauss
functions 2F1(u+m, l_f+1+i eta; 2l_f+2; y), the Coulomb normalization
C_l(eta) and the bound normalization.  The Gauss functions come from
`mpmath.hyp2f1` at the two lowest u+m and from Gauss's contiguous relation
in a (DLMF 15.5.11) above them, checked against `mpmath.hyp2f1` at the
highest; near |y| = 1 each direct call costs a tenth of a second.  The grid
runs from k = 1e-5 (E_f0 = 5e-11 hartree, at threshold, where the Coulomb
normalization's exp(pi/(2k)) and |Gamma(l_f+1+i eta)| are far outside the
double range) to k = 3, and to the n0 cap at every third l.
"""

import math

import mpmath
import pytest

from laserhydrogen.basis import N0_CAP
from laserhydrogen.ionization import _bound_free_ladders
from oracles import bound_free_radial

_DPS = 60
_K_GRID = (1e-5, 1e-4, 1e-3, 0.014, 0.05, 0.2, 0.6, 1.5, 3.0)
_RTOL = 1e-12


def _mp_gauss_ladder(a0, count, b, c, z):
    """[2F1(a0 + m, b; c; z) for m < count] at the working precision."""
    f = [mpmath.hyp2f1(a0 + m, b, c, z) for m in range(min(count, 2))]
    for a in range(a0 + 1, a0 + count - 1):
        # (c-a) F(a-1) + (2a - c + (b-a) z) F(a) + a (z-1) F(a+1) = 0
        f.append(
            -((c - a) * f[-2] + (2 * a - c + (b - a) * z) * f[-1])
            / (a * (z - 1))
        )
    top = mpmath.hyp2f1(a0 + count - 1, b, c, z)
    assert abs(f[-1] - top) <= mpmath.mpf(10) ** (10 - mpmath.mp.dps) * abs(top)
    return f


def _mp_bound_free_radial(n, l_b, l_f, k):
    with mpmath.workdps(_DPS):
        k = mpmath.mpf(k)
        eta = -1 / k
        u = l_f + l_b + 4
        s = mpmath.mpc(1, -k * n) / 2
        x = 1 / s
        y = mpmath.mpc(0, -k * n) / s
        gauss = _mp_gauss_ladder(u, n - l_b, mpmath.mpc(l_f + 1, eta), 2 * l_f + 2, y)
        f2 = mpmath.mpc(0)
        outer = mpmath.mpc(1)  # (u)_m (l_b+1-n)_m / ((2 l_b+2)_m m!) x^m
        for m in range(n - l_b):
            f2 += outer * gauss[m]
            outer *= (
                mpmath.mpf(u + m) * (l_b + 1 - n + m)
                / ((2 * l_b + 2 + m) * (m + 1)) * x
            )
        core = (mpmath.mpf(n) / 2) ** u * mpmath.factorial(u - 1) * s ** (-u) * f2
        c_l = (
            2 ** l_f * mpmath.exp(-mpmath.pi * eta / 2)
            * abs(mpmath.gamma(mpmath.mpc(l_f + 1, eta)))
            / mpmath.factorial(2 * l_f + 1)
        )
        norm_b_sq = (
            (mpmath.mpf(2) / n) ** (2 * l_b + 3)
            * mpmath.factorial(n + l_b)
            / (2 * n * mpmath.factorial(n - l_b - 1))
            / mpmath.factorial(2 * l_b + 1) ** 2
        )
        pref = (
            mpmath.sqrt(2 / (mpmath.pi * k)) * c_l * k ** (l_f + 1)
            * mpmath.sqrt(norm_b_sq)
        )
        return float(mpmath.re(pref * core))


def _channels(n_values, l_b_choices):
    for n in n_values:
        for l_b in sorted({l for l in l_b_choices(n) if 0 <= l < n}):
            for l_f in (l_b - 1, l_b + 1):
                if l_f >= 0:
                    yield n, l_b, l_f


def _l_choices(n):
    # both ends and the middle of each shell; every third l at the n0 cap
    return {0, 1, n // 2, n - 1, *(range(0, n, 3) if n == N0_CAP else ())}


_GRID = list(_channels((1, 2, 5, 8, 12, 18, 24, N0_CAP), _l_choices))


@pytest.mark.parametrize("n,l_b,l_f", _GRID)
def test_bound_free_radial_matches_60_digit_formula(n, l_b, l_f):
    for k in _K_GRID:
        assert bound_free_radial(n, l_b, l_f, k) == pytest.approx(
            _mp_bound_free_radial(n, l_b, l_f, k), rel=_RTOL
        ), f"k={k}"


def test_bound_free_radial_former_hypsum_failure():
    # the analytic continuation of this Gauss function did not converge
    # in double precision; the 60-digit value is pinned here
    assert _mp_bound_free_radial(5, 3, 4, 0.2) == pytest.approx(
        7.928223869200193, rel=1e-14
    )
    assert bound_free_radial(5, 3, 4, 0.2) == pytest.approx(
        7.928223869200193, rel=_RTOL
    )


@pytest.mark.parametrize("n,l_b,l_f", list(_channels((30,), lambda n: (0, 1))))
def test_bound_free_radial_at_the_n0_cap_near_threshold(n, l_b, l_f):
    # the bottom of the longest ladders, nearest threshold: the closed form
    # summed Gauss polynomials of degree up to 32 here, whose double-precision
    # sums lost about fifteen digits
    for k in (0.014, 0.05):
        assert bound_free_radial(n, l_b, l_f, k) == pytest.approx(
            _mp_bound_free_radial(n, l_b, l_f, k), rel=_RTOL
        ), f"k={k}"


@pytest.mark.parametrize("k", _K_GRID)
def test_a_ladder_stopped_early_leaves_every_value_above(k):
    # each branch stops its ladders at its own lowest bound l; a value must
    # not depend on where the ladder below it stops
    full = [a.copy() for a in _bound_free_ladders(N0_CAP, 0, k)]
    for l_min in (1, 2, 7, N0_CAP - 1):
        for whole, stopped in zip(full, _bound_free_ladders(N0_CAP, l_min, k)):
            assert (stopped[:, l_min:].tobytes()
                    == whole[:, l_min:].tobytes()), l_min
            assert all(math.isnan(v) for v in stopped[:, :l_min].flat)
