"""Special functions for the radial integrals and continuum amplitudes.

Covers the Gamma function, the closed-form log|Gamma(l + 1 + i eta)| of
the Coulomb normalization (the one function here that a program path
calls, for the top of the bound-free ladders), and the closed-form Laplace
transform of a product of two Kummer functions,

    int_0^inf e^{-s t} t^{u-1} F(a1, c1, t) F(a2, c2, q t) dt
        = Gamma(u) s^{-u} F2(u, a1, a2, c1, c2, 1/s, q/s),

with an Appell F2 whose two indices both terminate, summed as a finite
double sum that stays exact for Fraction/int inputs.  Other F2 arguments
raise DomainError; nothing is continued analytically.

`laplace_1f1_product`, `gamma_fn`, `KummerParams` and `appell_f2` are the
rational oracle of the bound-bound radial integrals
(tests/test_radial_oracle.py); no program path calls them.  They stay here
while the benchmark's span tracer still times `laplace_1f1_product` and
`appell_f2` on the package.  The other oracles (quadrature on hydrogen
wavefunctions, the series Kummer function and the Coulomb wave) live in
tests/oracles.py.

`mpmath` is bound lazily (importlib.util.LazyLoader): the name is a module
object from import on, so the span tracer still finds `mpmath.hyp2f1`
through it, but mpmath's code runs only when `gamma_fn` first gets a
complex argument, which only tests do, so a CLI run does not pay mpmath's
import (about a sixth of its start-up).  The binding goes with the oracles
when they move to tests/.
"""

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError


def _lazy_module(name):
    """Module `name`, whose code runs at its first attribute access.

    The LazyLoader recipe of the importlib docs; a module that sys.modules
    already holds is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


mpmath = _lazy_module("mpmath")


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
    """Appell F2(u; a1, a2; c1, c2; x, y) with both indices terminating.

    F2 = sum_{m,p} (u)_{m+p} (a1)_m (a2)_p / ((c1)_m (c2)_p m! p!) x^m y^p.

    a1 and a2 must be non-positive integers; otherwise DomainError.  The
    finite double sum is summed directly, in exact arithmetic for rational
    inputs.
    """
    n1 = _as_nonpositive_int(p.a1)
    n2 = _as_nonpositive_int(p.a2)
    for name, value, order in (("a1", p.a1, n1), ("a2", p.a2, n2)):
        if order is None:
            raise DomainError(
                f"Appell F2 index {name}={value} does not terminate: it must "
                "be a non-positive integer"
            )

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
