"""Special functions for the radial integrals and continuum amplitudes.

Covers the Gamma function of a real argument and the closed-form Laplace
transform of a product of two Kummer functions,

    int_0^inf e^{-s t} t^{u-1} F(a1, c1, t) F(a2, c2, q t) dt
        = Gamma(u) s^{-u} F2(u, a1, a2, c1, c2, 1/s, q/s),

with an Appell F2 whose two indices both terminate, summed as a finite
double sum that stays exact for Fraction/int inputs.  Other F2 arguments
raise DomainError; nothing is continued analytically.

`laplace_1f1_product`, `gamma_fn`, `KummerParams` and `appell_f2` are the
rational oracle of the bound-bound radial integrals
(tests/test_radial_oracle.py); no program path calls anything in this
module.  They stay here while the benchmark's span tracer still times
`laplace_1f1_product` and `appell_f2` on the package.  The other oracles
(quadrature on hydrogen wavefunctions, the series Kummer function and the
Coulomb wave) live in tests/oracles.py.

`mpmath`, a test dependency, is bound lazily (importlib.util.LazyLoader)
so that the span tracer finds `mpmath.hyp2f1` through it; nothing here
calls it, and it is None where mpmath is not installed.
"""

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError


def _lazy_module(name):
    """Module `name`, whose code runs at its first attribute access, or
    None if it is not installed.

    The LazyLoader recipe of the importlib docs; a module that sys.modules
    already holds is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        return None
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
    """Gamma function of a real scalar z; poles raise DomainError."""
    if _as_nonpositive_int(z) is not None:
        raise DomainError(f"Gamma pole at z={z}")
    if isinstance(z, (int, np.integer)):
        return math.factorial(int(z) - 1)
    return math.gamma(z)


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
