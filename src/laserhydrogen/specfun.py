"""Special functions for the radial integrals and continuum amplitudes.

Covers the Gamma function, the closed-form log|Gamma(l + 1 + i eta)| of
the Coulomb normalization, the Gauss function 2F1 and the Appell F2 double
hypergeometric series of the bound-free radial integrals, and the
closed-form Laplace transform of a product of two Kummer functions,

    int_0^inf e^{-s t} t^{u-1} F(a1, c1, t) F(a2, c2, q t) dt
        = Gamma(u) s^{-u} F2(u, a1, a2, c1, c2, 1/s, q/s).

Only terminating series are summed: a Gauss function whose series is a
polynomial directly or after Euler's transformation, and an F2 whose first
index terminates.  Every bound-free radial integral is of that kind (see
`_gauss_2f1`); other arguments raise DomainError, and nothing is continued
analytically.  Sums in which both F2 indices terminate stay exact for
Fraction/int inputs.  A Gauss polynomial whose double-precision terms
cancel is summed again exactly, in Gaussian integers, and rounded once.

`laplace_1f1_product`, `gamma_fn`, `KummerParams` and that exact F2 branch
are the rational oracle of the bound-bound radial integrals
(tests/test_radial_oracle.py); no program path calls them.  They stay here
while the benchmark's span tracer still times `laplace_1f1_product` on the
package.  The other oracles (quadrature on hydrogen wavefunctions, the
series Kummer function and the Coulomb wave) live in tests/oracles.py.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import DomainError

# A double-precision polynomial sum whose terms' moduli add up to more than
# this multiple of the result has lost more than four of its sixteen digits;
# it is summed again exactly.
_CANCELLATION_LIMIT = 1e4


def _as_nonpositive_int(value):
    """Return n >= 0 with value == -n if value is a non-positive integer."""
    if isinstance(value, complex):
        if value.imag != 0:
            return None
        value = value.real
    if isinstance(value, (int, np.integer)):
        return -int(value) if value <= 0 else None
    if isinstance(value, Fraction):
        if value.denominator == 1 and value <= 0:
            return -int(value)
        return None
    if isinstance(value, float):
        if value <= 0 and value.is_integer():
            return -int(value)
        return None
    return None


def gamma_fn(z):
    """Gamma function for real or complex scalar z; poles raise DomainError."""
    if _as_nonpositive_int(z) is not None:
        raise DomainError(f"Gamma pole at z={z}")
    if isinstance(z, (int, np.integer)):
        return math.factorial(int(z) - 1)
    if isinstance(z, complex):
        return complex(mpmath.gamma(z))
    return math.gamma(z)


def log_abs_gamma(l: int, eta: float) -> float:
    """log|Gamma(l + 1 + i eta)| for an integer l >= 0 and real eta.

    Closed form from |Gamma(1 + i eta)|^2 = pi eta / sinh(pi eta) and the
    recurrence Gamma(z + 1) = z Gamma(z), so that
    |Gamma(l + 1 + i eta)|^2 = pi eta / sinh(pi eta) prod_{s=1..l} (s^2 + eta^2)
    (DLMF 5.4.3).  With x = pi |eta|, log(x / sinh x) is written as
    log(2x) - x - log(1 - e^{-2x}), which does not overflow as eta grows
    (the continuum threshold, k -> 0).
    """
    x = math.pi * abs(eta)
    log_ratio = 0.0 if x == 0.0 else (
        math.log(2.0 * x) - x - math.log(-math.expm1(-2.0 * x))
    )
    eta2 = eta * eta
    return 0.5 * (log_ratio + math.fsum(math.log(s * s + eta2) for s in range(1, l + 1)))


@dataclass(frozen=True)
class KummerParams:
    """Parameters (a, c) of the confluent hypergeometric F(a, c, z)."""

    a: complex
    c: float

    def __post_init__(self):
        if _as_nonpositive_int(self.c) is not None:
            raise DomainError(f"Kummer lower parameter c={self.c} is a pole")


def _polynomial_2f1(a, b, c, z, n):
    """Sum of the terminating 2F1 series with a = -n, and the sum of the
    moduli of its terms (the scale its rounding errors are relative to)."""
    total = 1.0 if not isinstance(z, complex) else complex(1.0)
    term = total
    size = 1.0
    for j in range(n):
        term = term * (a + j) * (b + j) / (c + j) * z / (j + 1)
        total += term
        size += abs(term)
    return total, size


def _exact_polynomial_2f1(n, b, c, z):
    """F(-n, b; c; z) summed exactly and rounded once, for real c.

    Floats are dyadic rationals: over the common denominator d of the real
    and imaginary parts, b = B/d, c = C/d and z = Z/d with B and Z Gaussian
    integers.  Horner's rule F = 1 + r_0 (1 + r_1 (1 + ...)) with
    r_j = (j - n)(B + j d) Z / ((C + j d)(j + 1) d) then keeps the partial
    sum as a Gaussian integer over an integer; int/int true division rounds
    each part correctly.
    """
    try:
        parts = [Fraction(v) for v in (b.real, b.imag, c, z.real, z.imag)]
    except (ValueError, OverflowError):
        raise DomainError(f"2F1(-{n}, {b}; {c}; {z}) has a non-finite argument") \
            from None
    d = math.lcm(*(f.denominator for f in parts))
    b_re, b_im, c_int, z_re, z_im = (f.numerator * (d // f.denominator) for f in parts)
    bz_re, bz_im = b_re * z_re - b_im * z_im, b_re * z_im + b_im * z_re
    p_re, p_im, q = 1, 0, 1
    for j in range(n - 1, -1, -1):
        r_re, r_im = (j - n) * (bz_re + j * d * z_re), (j - n) * (bz_im + j * d * z_im)
        m = (c_int + j * d) * (j + 1) * d
        p_re, p_im = m * q + r_re * p_re - r_im * p_im, r_re * p_im + r_im * p_re
        q *= m
    if isinstance(b, complex) or isinstance(z, complex):
        return complex(p_re / q, p_im / q)
    return p_re / q


def _gauss_2f1(a, b, c, z):
    """Gauss 2F1(a, b; c; z) for a series that terminates.

    A non-positive integer a or b makes the series a polynomial.  So does a
    non-positive integer c - a or c - b after Euler's transformation
    2F1(a, b; c; z) = (1-z)^{c-a-b} 2F1(c-a, c-b; c; z) (DLMF 15.8.1),
    valid for every z off the cut [1, inf).  Every bound-free radial
    integral lands there (c - a = l_f - l_b - 2 - m), on the circle
    |1-z| = 1 with |z| up to 2.  A polynomial whose alternating terms
    cancel, or that overflows, is summed again exactly, where a non-finite
    argument raises DomainError.  Arguments for which none of a, b, c - a
    and c - b is a non-positive integer raise DomainError: there is no
    analytic continuation.
    """
    n = _as_nonpositive_int(a)
    m = _as_nonpositive_int(b)
    if m is not None and (n is None or m < n):
        a, b, n = b, a, m
    if n is None and (
        _as_nonpositive_int(c - a) is not None
        or _as_nonpositive_int(c - b) is not None
    ):
        return (1 - z) ** (c - a - b) * _gauss_2f1(c - a, c - b, c, z)
    if n is None:
        raise DomainError(
            f"2F1({a}, {b}; {c}; z) does not terminate: none of a, b, c - a "
            "and c - b is a non-positive integer"
        )
    total, size = _polynomial_2f1(a, b, c, z, n)
    if size <= _CANCELLATION_LIMIT * abs(total) < math.inf:
        return total
    return _exact_polynomial_2f1(n, b, c, z)


@dataclass(frozen=True)
class AppellF2Params:
    """Parameters of the Appell F2 double series."""

    u: complex
    a1: complex
    a2: complex
    c1: float
    c2: float
    x: complex
    y: complex

    def __post_init__(self):
        for name in ("c1", "c2"):
            if _as_nonpositive_int(getattr(self, name)) is not None:
                raise DomainError(
                    f"Appell F2 lower parameter {name}={getattr(self, name)} "
                    "is a non-positive integer"
                )


def appell_f2(p: AppellF2Params):
    """Appell F2(u; a1, a2; c1, c2; x, y) with a terminating first index.

    F2 = sum_{m,p} (u)_{m+p} (a1)_m (a2)_p / ((c1)_m (c2)_p m! p!) x^m y^p.

    a1 must be a non-positive integer; otherwise DomainError.  If a2 is one
    too, the finite double sum is summed directly (staying in exact
    arithmetic for rational inputs).  Otherwise the second index is summed
    as one Gauss 2F1(u + m, a2; c2; y) per first-index term, which must
    terminate as `_gauss_2f1` requires; for the bound-free radial
    integrals each is a polynomial after Euler's transformation.
    """
    n1 = _as_nonpositive_int(p.a1)
    n2 = _as_nonpositive_int(p.a2)
    if n1 is None:
        raise DomainError(
            f"Appell F2 first index a1={p.a1} does not terminate: it must be "
            "a non-positive integer"
        )

    if n2 is not None:
        total = _zero_like(p.x, p.y)
        outer = _one_like(p.x, p.y)  # (u)_m (a1)_m / ((c1)_m m!) x^m
        for m in range(n1 + 1):
            inner = outer  # accumulates the p-sum weighted by outer term
            term = outer
            for q in range(n2):
                term = (
                    term * (p.u + m + q) * (p.a2 + q) / ((p.c2 + q) * (q + 1)) * p.y
                )
                inner += term
            total += inner
            outer = outer * (p.u + m) * (p.a1 + m) / ((p.c1 + m) * (m + 1)) * p.x
        return total

    total = complex(0.0)
    outer = complex(1.0)
    for m in range(n1 + 1):
        total += outer * _gauss_2f1(p.u + m, p.a2, p.c2, p.y)
        outer = outer * (p.u + m) * (p.a1 + m) / ((p.c1 + m) * (m + 1)) * p.x
    if all(not isinstance(v, complex) for v in (p.u, p.a2, p.x, p.y)):
        return total.real
    return total


def _zero_like(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return Fraction(0)
    if isinstance(x, complex) or isinstance(y, complex):
        return complex(0.0)
    return 0.0


def _one_like(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return Fraction(1)
    if isinstance(x, complex) or isinstance(y, complex):
        return complex(1.0)
    return 1.0


def laplace_1f1_product(s, u, k1: KummerParams, k2: KummerParams, q):
    """Closed form of int_0^inf e^{-st} t^{u-1} F(a1,c1,t) F(a2,c2,qt) dt."""
    re_s = s.real if isinstance(s, complex) else s
    re_u = u.real if isinstance(u, complex) else u
    if re_s <= 0:
        raise DomainError("Laplace transform requires Re(s) > 0")
    if re_u <= 0:
        raise DomainError("Laplace transform requires Re(u) > 0")
    if isinstance(s, Fraction) or isinstance(s, int):
        one = Fraction(1)
        x = one / s
        y = Fraction(q) / s if isinstance(q, (int, Fraction)) else q / s
    else:
        x = 1.0 / s
        y = q / s
    f2 = appell_f2(AppellF2Params(u, k1.a, k2.a, k1.c, k2.c, x, y))
    if isinstance(u, (int, np.integer)) and isinstance(x, Fraction) \
            and isinstance(y, Fraction):
        return math.factorial(int(u) - 1) * s ** (-int(u)) * f2
    return gamma_fn(u) * s ** (-u) * f2
