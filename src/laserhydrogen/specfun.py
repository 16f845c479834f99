"""Special functions for the radial integrals and continuum amplitudes.

Covers the Gamma function and the closed-form log|Gamma(l + 1 + i eta)| of
the Coulomb normalization, the Kummer confluent hypergeometric function
F(a, c, z), the regular energy-normalized Coulomb radial wave, the Appell
F2 double hypergeometric series, and the closed-form Laplace transform of a
product of two Kummer functions,

    int_0^inf e^{-s t} t^{u-1} F(a1, c1, t) F(a2, c2, q t) dt
        = Gamma(u) s^{-u} F2(u, a1, a2, c1, c2, 1/s, q/s).

Terminating series are summed exactly (and stay exact for Fraction/int
inputs, which the rational test oracle of the bound-bound radial integrals
relies on; `basis.radial_length_integral` itself uses Gordon's closed
form).  Non-terminating indices are summed numerically; the inner Gauss
function of a singly terminating F2 is a polynomial after Euler's
transformation whenever c - a or c - b is a non-positive integer, and is
otherwise continued analytically outside its convergence disk.
"""

import math
import cmath
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from .errors import ConvergenceError, DomainError

_SERIES_CAP = 2000
_SERIES_RTOL = 1e-16
# A double-precision polynomial sum whose terms' moduli add up to more than
# this multiple of the result is re-summed with mpmath at higher precision.
_CANCELLATION_LIMIT = 1e4
_MAX_BITS = 400  # about 120 digits
_THREAD_MP = threading.local()


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
        if value <= 0 and value == int(value):
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

    @property
    def terminating(self) -> bool:
        return _as_nonpositive_int(self.a) is not None

    @property
    def n_terms(self):
        """Number of terms of a terminating series, or None."""
        n = _as_nonpositive_int(self.a)
        return None if n is None else n + 1


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
        f"Kummer series F({a},{c},{z}) did not converge in {_SERIES_CAP} terms",
        iterations=_SERIES_CAP,
        last_term=term,
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


def _thread_mp_context():
    """This thread's own mpmath context, so that setting its precision
    cannot change the precision of mpmath work in another thread."""
    ctx = getattr(_THREAD_MP, "ctx", None)
    if ctx is None:
        ctx = _THREAD_MP.ctx = mpmath.MPContext()
    return ctx


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


def _gauss_2f1(a, b, c, z):
    """Gauss 2F1(a, b; c; z), continued analytically when |z| is large.

    A non-positive integer a or b makes the series a polynomial.  So does a
    non-positive integer c - a or c - b after Euler's transformation
    2F1(a, b; c; z) = (1-z)^{c-a-b} 2F1(c-a, c-b; c; z) (DLMF 15.8.1),
    valid for every z off the cut [1, inf).  Every bound-free radial
    integral lands there (c - a = l_f - l_b - 2 - m), on the circle
    |1-z| = 1 with |z| up to 2.  A polynomial whose alternating terms
    cancel is summed again with mpmath at as many extra bits as were lost.
    Only genuinely non-terminating arguments are summed as a series
    (|z| <= 0.9) or, as a fallback, continued by mpmath.
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
    if n is not None:
        total, size = _polynomial_2f1(a, b, c, z, n)
        if size <= _CANCELLATION_LIMIT * abs(total):
            return total
        # The terms cancelled: redo the same sum with as many extra bits as
        # were lost (and 16 spare), until the loss is back within
        # _CANCELLATION_LIMIT of the working precision.  An exact zero
        # stops at _MAX_BITS.
        ctx = _thread_mp_context()
        bits = 53  # a double's
        while bits < _MAX_BITS and size > (
            _CANCELLATION_LIMIT * ctx.ldexp(abs(total), bits - 53)
        ):
            lost = ctx.mag(size) - ctx.mag(total) if total else bits
            ctx.prec = bits = min(_MAX_BITS, bits + lost + 16)
            total, size = _polynomial_2f1(
                ctx.mpmathify(a), ctx.mpmathify(b),
                ctx.mpmathify(c), ctx.mpmathify(z), n,
            )
        return complex(total) if isinstance(total, ctx.mpc) else float(total)
    if abs(z) <= 0.9:
        total = complex(1.0)
        term = total
        for j in range(_SERIES_CAP):
            term = term * (a + j) * (b + j) / (c + j) * z / (j + 1)
            total += term
            if abs(term) <= _SERIES_RTOL * abs(total):
                return total if isinstance(z, complex) else total.real
        raise ConvergenceError(
            f"2F1({a},{b};{c};{z}) series stalled",
            iterations=_SERIES_CAP,
            last_term=term,
        )
    return complex(mpmath.hyp2f1(a, b, c, z))


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
    """Appell F2(u; a1, a2; c1, c2; x, y).

    F2 = sum_{m,p} (u)_{m+p} (a1)_m (a2)_p / ((c1)_m (c2)_p m! p!) x^m y^p.

    Indices with non-positive-integer numerator parameters are summed
    exactly (staying in exact arithmetic for rational inputs).  A
    non-terminating second index is summed as a Gauss 2F1 per first-index
    term, valid beyond |x|+|y| < 1 by analytic continuation; for the
    bound-free radial integrals each of those 2F1 is a polynomial after
    Euler's transformation (see `_gauss_2f1`), and mpmath is only the
    fallback for arguments where no transformation terminates.  If neither
    index terminates the arguments must lie inside the convergence domain.
    """
    n1 = _as_nonpositive_int(p.a1)
    n2 = _as_nonpositive_int(p.a2)
    if n1 is None and n2 is not None:
        # F2 is symmetric under (a1, c1, x) <-> (a2, c2, y).
        swapped = AppellF2Params(p.u, p.a2, p.a1, p.c2, p.c1, p.y, p.x)
        return appell_f2(swapped)

    if n1 is not None and n2 is not None:
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

    if n1 is not None:
        total = complex(0.0)
        outer = complex(1.0)
        for m in range(n1 + 1):
            total += outer * _gauss_2f1(p.u + m, p.a2, p.c2, p.y)
            outer = outer * (p.u + m) * (p.a1 + m) / ((p.c1 + m) * (m + 1)) * p.x
        if all(not isinstance(v, complex) for v in (p.u, p.a2, p.x, p.y)):
            return total.real
        return total

    if abs(p.x) + abs(p.y) >= 1:
        raise DomainError(
            "Appell F2 with neither index terminating requires |x|+|y| < 1; "
            f"got |x|+|y| = {abs(p.x) + abs(p.y):.6g}"
        )
    total = complex(0.0)
    row_start = complex(1.0)
    for m in range(_SERIES_CAP):
        term = row_start
        row = term
        for q in range(_SERIES_CAP):
            term = term * (p.u + m + q) * (p.a2 + q) / ((p.c2 + q) * (q + 1)) * p.y
            row += term
            if abs(term) <= _SERIES_RTOL * (abs(row) + 1e-300):
                break
        total += row
        if abs(row) <= _SERIES_RTOL * (abs(total) + 1e-300) and m > 2:
            if all(not isinstance(v, complex) for v in
                   (p.u, p.a1, p.a2, p.x, p.y)):
                return total.real
            return total
        row_start = row_start * (p.u + m) * (p.a1 + m) / ((p.c1 + m) * (m + 1)) * p.x
    raise ConvergenceError(
        "Appell F2 double series stalled", iterations=_SERIES_CAP
    )


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
