"""Bound-bound dipole radial integrals against an exact rational oracle.

`radial_length_integral` uses Gordon's closed form.  The oracle here is an
independent route to the same integral: the Laplace transform of a product
of two terminating Kummer series (an Appell F2 double polynomial), summed
in exact Fraction arithmetic with the exact normalization, and rounded to
float once.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from laserhydrogen.basis import radial_length_integral
from laserhydrogen.errors import ConfigurationError
from laserhydrogen.specfun import KummerParams, laplace_1f1_product

RTOL = 1e-13


def _norm_sq(n, l):
    return (
        Fraction(2, n) ** (2 * l + 3)
        * Fraction(math.factorial(n + l), 2 * n * math.factorial(n - l - 1))
        / math.factorial(2 * l + 1) ** 2
    )


@lru_cache(maxsize=None)
def _laplace_radial(n1, l1, n2, l2):
    """int R_{n1 l1} r R_{n2 l2} r^2 dr through the exact Laplace/F2 identity."""
    u = l1 + l2 + 4
    s = Fraction(n1 + n2, 2 * n1)
    q = Fraction(n2, n1)
    k1 = KummerParams(l2 + 1 - n2, 2 * l2 + 2)
    k2 = KummerParams(l1 + 1 - n1, 2 * l1 + 2)
    core = Fraction(n2, 2) ** u * laplace_1f1_product(s, u, k1, k2, q)
    value_sq = core * core * _norm_sq(n1, l1) * _norm_sq(n2, l2)
    magnitude = math.sqrt(value_sq.numerator / value_sq.denominator)
    return magnitude if core > 0 else -magnitude


def _dipole_pairs(n1, n2_values):
    return [
        (n1, l1, n2, l2)
        for l1 in range(n1)
        for n2 in n2_values
        for l2 in (l1 - 1, l1 + 1)
        if 0 <= l2 < n2
    ]


def _assert_matches_oracle(pairs):
    assert pairs
    for n1, l1, n2, l2 in pairs:
        got = radial_length_integral(n1, l1, n2, l2)
        want = _laplace_radial(n1, l1, n2, l2)
        assert got == pytest.approx(want, rel=RTOL, abs=0), (n1, l1, n2, l2)


@pytest.mark.parametrize("n1", range(1, 13))
def test_every_dipole_pair_up_to_n12(n1):
    _assert_matches_oracle(_dipole_pairs(n1, range(1, 13)))


@pytest.mark.parametrize("n2", [1, 2, 15, 29, 30])
def test_n30_against_far_and_near_shells(n2):
    _assert_matches_oracle(_dipole_pairs(30, [n2]))


def test_argument_symmetry():
    for n1 in range(1, 13):
        for _, l1, n2, l2 in _dipole_pairs(n1, range(1, 13)):
            assert radial_length_integral(n1, l1, n2, l2) == (
                radial_length_integral(n2, l2, n1, l1)
            )


@pytest.mark.parametrize("n", [2, 3, 7, 18, 30])
def test_same_shell_closed_form(n):
    for l in range(1, n):
        value = radial_length_integral(n, l, n, l - 1)
        assert value == -1.5 * n * math.sqrt(n * n - l * l)
        assert value == pytest.approx(_laplace_radial(n, l, n, l - 1), rel=RTOL)


@pytest.mark.parametrize("l1,l2", [(0, 0), (1, 1), (0, 2), (3, 1), (1, 4)])
def test_non_dipole_l_rejected(l1, l2):
    with pytest.raises(ConfigurationError, match=r"\|l1 - l2\| = 1"):
        radial_length_integral(6, l1, 7, l2)
