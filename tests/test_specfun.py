import math
from fractions import Fraction

import mpmath
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from laserhydrogen.basis import N0_CAP
from laserhydrogen.errors import DomainError
from laserhydrogen.specfun import (
    _CANCELLATION_LIMIT,
    AppellF2Params,
    KummerParams,
    _as_nonpositive_int,
    _gauss_2f1,
    _polynomial_2f1,
    appell_f2,
    gamma_fn,
    laplace_1f1_product,
    log_abs_gamma,
)
from oracles import coulomb_radial, kummer_1f1


# --- Gamma ---------------------------------------------------------------

def test_gamma_basic_values():
    assert gamma_fn(5) == 24
    assert gamma_fn(1) == 1
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    z = complex(2.0, 1.0)
    assert gamma_fn(z) == pytest.approx(complex(sp.gamma(z)), rel=1e-14)


def test_gamma_poles():
    for z in (0, -1, -5, 0.0, -3.0, complex(-2, 0)):
        with pytest.raises(DomainError):
            gamma_fn(z)


@given(st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence(z):
    assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-12)


@given(l=st.integers(0, 30), k=st.floats(0.005, 5.0))
def test_closed_form_log_abs_gamma_matches_scipy(l, k):
    # the bound-free normalization's log|Gamma(l + 1 + i eta)| at eta = -1/k,
    # from threshold (k = 0.005, eta = -200) to k = 5
    eta = -1.0 / k
    ref = sp.loggamma(complex(l + 1, eta)).real
    assert abs(log_abs_gamma(l, eta) - ref) <= 1e-12


def test_log_abs_gamma_at_real_arguments():
    assert log_abs_gamma(0, 0.0) == 0.0
    for l in (1, 5, 30):
        assert log_abs_gamma(l, 0.0) == pytest.approx(math.lgamma(l + 1), abs=1e-12)


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


# --- Gauss 2F1 ------------------------------------------------------------

def _mp_2f1(a, b, c, z):
    with mpmath.workdps(40):
        return complex(mpmath.hyp2f1(a, b, c, z))


_Z_OUTSIDE = complex(1.2, 1.1)  # |z| > 1, off the cut [1, inf)


@pytest.mark.parametrize(
    "a,b,c",
    [
        (7.0, complex(1.3, 0.7), 3.0),   # c - a = -4
        (complex(1.3, 0.7), 5, 3),       # c - b = -2
        (3.0, complex(0.4, -2.5), 3.0),  # c - a = 0: (1 - z)^(-b)
    ],
)
def test_gauss_2f1_euler_branch(a, b, c):
    value = _gauss_2f1(a, b, c, _Z_OUTSIDE)
    assert value == pytest.approx(_mp_2f1(a, b, c, _Z_OUTSIDE), rel=1e-13)
    if a == c:
        assert value == pytest.approx((1 - _Z_OUTSIDE) ** (-b), rel=1e-14)


@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (1.3, complex(0.7, 0.2), 2.9, complex(0.5, -0.6)),
        (1.3, complex(0.4, 0.5), 2.9, _Z_OUTSIDE),
    ],
    ids=["inside-disk", "outside-disk"],
)
def test_gauss_2f1_nonterminating_outside_domain(a, b, c, z):
    # none of a, b, c - a and c - b is a non-positive integer
    with pytest.raises(DomainError, match=r"2F1\(1\.3, .* does not terminate"):
        _gauss_2f1(a, b, c, z)


def test_every_bound_free_gauss_function_terminates():
    # _bound_free_radial asks for 2F1(u + m, a2; c2; y) with u = l_f + l_b + 4,
    # c2 = 2 l_f + 2 and m = 0 .. n - l_b - 1.  Euler's transformation makes
    # it a polynomial of degree u + m - c2 = l_b - l_f + 2 + m, so no input
    # reaches the DomainError of a non-terminating Gauss function.
    for n in range(1, N0_CAP + 1):
        for l_b in range(n):
            for l_f in (l_b - 1, l_b + 1):
                if l_f < 0:
                    continue
                u, c2 = l_f + l_b + 4, 2 * l_f + 2
                for m in range(n - l_b):
                    assert _as_nonpositive_int(c2 - (u + m)) is not None, (
                        n, l_b, l_f, m,
                    )


def _round_once(x):
    """The double nearest to the mpf x (int/int true division rounds once)."""
    man, exp = x.man_exp  # man is |mantissa|
    man = -man if x < 0 else man
    return man * 2**exp if exp >= 0 else man / 2**-exp


def _mp_polynomial_2f1(n, b, c, z):
    """F(-n, b; c; z) summed term by term at 80 digits from the exact
    values of the double arguments."""
    with mpmath.workdps(80):
        b, c, z = mpmath.mpc(b), mpmath.mpf(c), mpmath.mpc(z)
        term = total = mpmath.mpc(1)
        for j in range(n):
            term = term * (j - n) * (b + j) / ((c + j) * (j + 1)) * z
            total += term
        return complex(_round_once(total.real), _round_once(total.imag))


def test_exact_sum_of_cancelling_polynomials_is_mpmath_rounded_once():
    # The Gauss polynomials of _bound_free_radial(30, l_b, l_f, 0.014) after
    # Euler's transformation: F(-N, c2 - a2; c2; y), N = u + m - c2.  Those
    # that cancel in double precision are summed exactly and must equal the
    # 80-digit sum rounded once, bit for bit.
    k, n = 0.014, 30
    s = complex(1.0, -k * n) / 2.0
    y = complex(0.0, -k * n) / s
    cancelling = 0
    for l_b in range(n):
        for l_f in (l_b - 1, l_b + 1):
            if l_f < 0:
                continue
            u, c2 = l_f + l_b + 4, 2 * l_f + 2
            b = c2 - complex(l_f + 1, -1.0 / k)
            for m in range(n - l_b):
                order = u + m - c2
                total, size = _polynomial_2f1(-order, b, c2, y, order)
                if size <= _CANCELLATION_LIMIT * abs(total):
                    continue
                cancelling += 1
                assert _gauss_2f1(-order, b, c2, y) == (
                    _mp_polynomial_2f1(order, b, c2, y)
                ), (l_b, l_f, m)
    assert cancelling > 100


def test_gauss_2f1_exact_zero_polynomial():
    # 1 - b z / c cancels to nothing in doubles; its exact sum is zero too
    assert _gauss_2f1(-1, 2, 4, 2.0) == 0.0


@pytest.mark.parametrize(
    "b,c,z",
    [
        (complex(2.0, math.nan), 4, complex(0.3, -0.7)),
        (complex(2.0, math.inf), 4, complex(0.3, -0.7)),
        (2.0, math.nan, 0.5),
        (2.0, 4, complex(math.inf, 0.0)),
        (-math.inf, 4, 0.5),
    ],
)
def test_gauss_2f1_non_finite_argument_raises_domain_error(b, c, z):
    with pytest.raises(DomainError, match="non-finite"):
        _gauss_2f1(-3, b, c, z)


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


def test_appell_f2_singly_terminating_continued():
    # terminating first index, |y| > 1: each per-term 2F1 terminates after
    # Euler's transformation (c2 - u - m = -m)
    y = complex(1.2, 1.1)
    val = appell_f2(AppellF2Params(4, -2, complex(1.0, 0.5), 3.0, 4.0, 0.3, y))
    brute = mpmath.mpf(0)
    total = mpmath.mpc(0)
    for m in range(3):
        total += (
            mpmath.rf(4, m) * mpmath.rf(-2, m)
            / (mpmath.rf(3.0, m) * mpmath.factorial(m))
            * 0.3**m
            * mpmath.hyp2f1(4 + m, mpmath.mpc(1.0, 0.5), 4.0, y)
        )
    assert val == pytest.approx(complex(total), rel=1e-10)


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
