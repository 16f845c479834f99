import math
from fractions import Fraction

import mpmath
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from laserhydrogen.errors import DomainError
from laserhydrogen.specfun import (
    AppellF2Params,
    KummerParams,
    appell_f2,
    gamma_fn,
    laplace_1f1_product,
)
from oracles import coulomb_radial, kummer_1f1


# --- Gamma ---------------------------------------------------------------

def test_gamma_basic_values():
    assert gamma_fn(5) == 24
    assert gamma_fn(1) == 1
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    with pytest.raises(TypeError):  # real arguments only: no mpmath in src/
        gamma_fn(complex(2.0, 1.0))


def test_gamma_poles():
    for z in (0, -1, -5, 0.0, -3.0, complex(-2, 0)):
        with pytest.raises(DomainError):
            gamma_fn(z)


@given(st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence(z):
    assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-12)


# --- Kummer 1F1 ----------------------------------------------------------

def test_kummer_terminating_polynomial():
    p = KummerParams(-2, 2.0)
    for z in (0.0, 0.7, -3.0, 12.0):
        assert kummer_1f1(p, z) == pytest.approx(1 - z + z * z / 6, rel=1e-14)


def test_kummer_exact_fractions():
    val = kummer_1f1(KummerParams(-2, 2), Fraction(1, 2))
    assert isinstance(val, Fraction)
    assert val == 1 - Fraction(1, 2) + Fraction(1, 24)


def test_kummer_c_pole():
    with pytest.raises(DomainError):
        KummerParams(0.5, 0)
    with pytest.raises(DomainError):
        KummerParams(0.5, -2)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.2, max_value=6.0),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_kummer_vs_mpmath(a, dc, z):
    c = a + dc  # keep c off the poles and > a
    ours = kummer_1f1(KummerParams(a, c), z)
    ref = float(mpmath.hyp1f1(a, c, z))
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-280)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_kummer_transformation(a, dc, z):
    # F(a, c, z) = e^z F(c-a, c, -z)
    c = a + dc
    lhs = kummer_1f1(KummerParams(a, c), z)
    rhs = math.exp(z) * kummer_1f1(KummerParams(c - a, c), -z)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-280)


def test_kummer_complex_argument():
    a, c = complex(2.0, 0.5), 4.0
    z = complex(1.0, -2.0)
    assert kummer_1f1(KummerParams(a, c), z) == pytest.approx(
        complex(mpmath.hyp1f1(a, c, z)), rel=1e-12
    )


# --- Appell F2 -----------------------------------------------------------

def test_appell_f2_collapses_to_gauss_when_a1_zero():
    # a1 = 0 kills the m-sum: F2 = 2F1(u, a2; c2; y)
    val = appell_f2(AppellF2Params(u=3.0, a1=0, a2=-4, c1=2.0, c2=3.0, x=0.7, y=0.4))
    ref = float(mpmath.hyp2f1(3.0, -4, 3.0, 0.4))
    assert val == pytest.approx(ref, rel=1e-13)


def test_appell_f2_exact_fractions():
    val = appell_f2(
        AppellF2Params(
            u=2, a1=-1, a2=-1, c1=2, c2=2,
            x=Fraction(1, 4), y=Fraction(1, 8),
        )
    )
    # direct finite double sum: 1 - u*x/c1 - u*y/c2 + u(u+1) x y /(c1 c2)
    expected = (
        1 - Fraction(2, 2) * Fraction(1, 4) - Fraction(2, 2) * Fraction(1, 8)
        + Fraction(2 * 3, 4) * Fraction(1, 32)
    )
    assert isinstance(val, Fraction)
    assert val == expected


@pytest.mark.parametrize(
    "params",
    [
        (1.5, 0.7, 1.1, 2.0, 3.0, 0.8, 0.5),
        (1.3, 0.7, 1.1, 2.2, 3.1, 0.35, 0.25),
        (4, complex(1.0, 0.5), -2, 4.0, 3.0, complex(1.2, 1.1), 0.3),
    ],
    ids=["neither-index", "neither-index-inside-domain", "second-index-only"],
)
def test_appell_f2_nonterminating_outside_domain(params):
    with pytest.raises(DomainError, match="a1=.* does not terminate"):
        appell_f2(AppellF2Params(*params))


def test_appell_f2_singly_terminating_raises():
    # a terminating first index alone no longer sums the second index as
    # Gauss functions: no program path asks for such an F2
    with pytest.raises(DomainError, match="a2=.* does not terminate"):
        appell_f2(AppellF2Params(4, -2, complex(1.0, 0.5), 3.0, 4.0, 0.3, 0.2))


# --- Laplace transform of a Kummer product -------------------------------

def _laplace_quad(s, u, k1, k2, q):
    def integrand(t):
        return (
            math.exp(-s * t) * t ** (u - 1)
            * kummer_1f1(k1, t) * kummer_1f1(k2, q * t)
        )

    val, _ = scipy.integrate.quad(integrand, 0.0, 400.0, limit=400)
    return val


def test_laplace_identity_vs_quadrature():
    k1 = KummerParams(-3, 4)
    k2 = KummerParams(-2, 2)
    s, u, q = 1.25, 5, 0.75
    analytic = laplace_1f1_product(s, u, k1, k2, q)
    assert analytic == pytest.approx(_laplace_quad(s, u, k1, k2, q), rel=1e-12)


def test_laplace_exact_fraction_path():
    # int_0^inf e^{-2t} t^2 F(-1,2,t) F(-1,3,t) dt, exact rational answer
    val = laplace_1f1_product(
        Fraction(2), 3, KummerParams(-1, 2), KummerParams(-1, 3), Fraction(1)
    )
    assert isinstance(val, Fraction)
    assert val == pytest.approx(
        _laplace_quad(2.0, 3, KummerParams(-1, 2), KummerParams(-1, 3), 1.0),
        rel=1e-13,
    )


def test_laplace_domain_checks():
    k = KummerParams(-1, 2)
    with pytest.raises(DomainError):
        laplace_1f1_product(-1.0, 3, k, k, 1.0)
    with pytest.raises(DomainError):
        laplace_1f1_product(1.0, 0, k, k, 1.0)


# --- Coulomb continuum wave ----------------------------------------------

def test_coulomb_radial_free_limit_is_bessel():
    # charge 0: u_El(r) = sqrt(2/(pi k)) k r j_l(k r)
    energy = 0.32
    k = math.sqrt(2 * energy)
    for l in (0, 1, 3):
        for r in (0.5, 2.0, 9.0):
            ours = coulomb_radial(energy, l, r, charge=0.0)
            ref = math.sqrt(2 / (math.pi * k)) * k * r * sp.spherical_jn(l, k * r)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_coulomb_radial_matches_mpmath():
    energy, l = 0.21, 2
    k = math.sqrt(2 * energy)
    eta = -1.0 / k
    norm = math.sqrt(2 / (math.pi * k))
    for r in (0.7, 4.0, 11.0, 40.0):
        ours = coulomb_radial(energy, l, r)
        ref = norm * float(mpmath.coulombf(l, eta, k * r))
        assert ours == pytest.approx(ref, rel=1e-10)


def test_coulomb_radial_continuous_at_series_boundary():
    # rho = 6 is where the evaluation strategy switches; no jump allowed
    energy, l = 0.5, 1
    k = math.sqrt(2 * energy)
    r0 = 6.0 / k
    below = coulomb_radial(energy, l, r0 * (1 - 1e-9))
    above = coulomb_radial(energy, l, r0 * (1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)


def test_coulomb_radial_origin_power_law():
    energy, l = 0.3, 2
    a = coulomb_radial(energy, l, 1e-4)
    b = coulomb_radial(energy, l, 2e-4)
    assert b / a == pytest.approx(2 ** (l + 1), rel=1e-3)


def test_coulomb_radial_domain():
    with pytest.raises(DomainError):
        coulomb_radial(-0.1, 0, 1.0)
    with pytest.raises(DomainError):
        coulomb_radial(0.1, 0, -1.0)
