"""Special functions underlying every evaluator in the package.

Four ingredients: the complex gamma function (Lanczos approximation with
reflection), the completed zeta function

    xi(s) = pi^{-s/2} Gamma(s/2) zeta(s)
          = -1/s - 1/(1-s) + int_1^inf omega(u) (u^{s/2} + u^{(1-s)/2}) du/u,

    omega(u) = sum_{n >= 1} exp(-pi n^2 u),

computed from the theta-integral form (entire apart from the two explicit
pole terms, and symmetric under s <-> 1-s by construction), the K-Bessel
function of complex order via trapezoidal quadrature of

    K_nu(y) = int_0^inf exp(-y cosh u) cosh(nu u) du,

and exact divisor power sums.  All approximate routines honor the tolerances
in NumericsConfig and raise PoleProximity inside guard disks instead of
returning garbage near poles.

The K-Bessel trapezoid is one pass whose step h is fixed in advance by the
strip bound e^{-2 pi a/h} e^{|Im nu| a} (1/cos a)^{|Re nu|}, a = 1 (Trefethen &
Weideman, SIAM Review 56, 2014); it raises QuadratureBudget where its rounding
bound exceeds abs_tol max(1, |K|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PoleProximity, QuadratureBudget

__all__ = [
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "KBesselValue",
    "gamma_complex",
    "xi_completed",
    "k_bessel",
    "sigma_divisor",
    "pow_pos",
]


@dataclass(frozen=True)
class NumericsConfig:
    """Knobs for every approximate operation.

    abs_tol: target absolute accuracy of special-function values.
    series_cutoff_margin: convergence-region safety margin (series are
        refused when the defining exponent is within this margin of the
        boundary of absolute convergence).
    quadrature_depth: maximum number of refinement doublings before
        xi_completed, eis2._geo_integral_estimate or zeta.zeta_rank1_numeric
        gives up and raises QuadratureBudget.
    pole_guard_radius: evaluators refuse to run inside disks of this radius
        around poles (PoleProximity).
    vector_budget: hard cap on the number of lattice points any single
        enumeration may touch (EnumerationOverflow beyond it).
    """

    abs_tol: float = 1e-12
    series_cutoff_margin: float = 0.1
    quadrature_depth: int = 6
    pole_guard_radius: float = 1e-8
    vector_budget: int = 5_000_000

    def __post_init__(self) -> None:
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.pole_guard_radius <= 0:
            raise ValueError("pole_guard_radius must be positive")
        if self.quadrature_depth < 1:
            raise ValueError("quadrature_depth must be a positive integer")
        if self.vector_budget < 1:
            raise ValueError("vector_budget must be a positive integer")


DEFAULT_CONFIG = NumericsConfig()


def pow_pos(u: float, s: complex) -> complex:
    """u^s for positive real u with the principal branch exp(s log u)."""
    if u <= 0.0:
        raise ValueError("pow_pos needs a positive base")
    return cmath.exp(complex(s) * math.log(u))


# ---------- gamma ----------

# Lanczos coefficients, g = 7, 9 terms; relative error ~ 1e-15 on Re s > 0.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _gamma_positive(s: complex) -> complex:
    # valid for Re s > 0.5
    z = s - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def gamma_complex(s: complex, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """Gamma(s) on C minus guard disks around the poles 0, -1, -2, ...

    Lanczos on the right half plane, reflection formula on the left.
    Satisfies the recurrence Gamma(s+1) = s Gamma(s) to ~1e-13 relative.
    """
    s = complex(s)
    if s.real < 0.5:
        k = round(s.real)
        if k <= 0 and abs(s - k) < config.pole_guard_radius:
            raise PoleProximity(f"gamma pole at {k}; s = {s}")
        # Gamma(s) Gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * _gamma_positive(1.0 - s))
    return _gamma_positive(s)


# ---------- completed zeta ----------


def _omega(u: float) -> float:
    # sum_{n>=1} exp(-pi n^2 u); u >= 1 so six terms reach ~1e-40
    return math.fsum(math.exp(-math.pi * n * n * u) for n in range(1, 7))


@lru_cache(maxsize=16)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _xi_integral(s: complex, upper: float, order: int) -> complex:
    # int_1^upper omega(u) (u^{s/2} + u^{(1-s)/2}) du/u on fixed panels
    cuts = (1.0, 1.7, 3.0, 6.0, upper)
    x, w = _gl_nodes(order)
    total = 0.0 + 0.0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        u = mid + half * x
        om = np.array([_omega(float(ui)) for ui in u])
        lu = np.log(u)
        vals = om * (np.exp((s / 2.0) * lu) + np.exp(((1.0 - s) / 2.0) * lu)) / u
        total += half * complex(np.sum(w * vals))
    return total


def xi_completed(s: complex, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """Completed zeta xi(s) from the symmetric theta integral.

    The representation is valid for every s away from the poles at 0 and 1,
    and the functional equation xi(s) = xi(1-s) holds exactly because the
    integrand is literally symmetric in s <-> 1-s.
    """
    s = complex(s)
    if abs(s) < config.pole_guard_radius or abs(s - 1.0) < config.pole_guard_radius:
        raise PoleProximity(f"xi pole guard at s = {s}")
    sigma = max(abs(s.real), abs(1.0 - s.real))
    upper = 12.0 + max(0.0, sigma - 6.0)
    pole_part = -1.0 / s - 1.0 / (1.0 - s)
    prev = None
    order = 64
    for _ in range(config.quadrature_depth):
        val = _xi_integral(s, upper, order)
        if prev is not None and abs(val - prev) < config.abs_tol / 10.0:
            return pole_part + val
        prev = val
        order *= 2
    raise QuadratureBudget(f"xi integral did not stabilize at s = {s}")


# ---------- K-Bessel ----------


class KBesselValue(complex):
    """A complex value carrying an underflow flag (exact 0 when flagged)."""

    underflow: bool

    def __new__(cls, value: complex, underflow: bool = False):
        obj = super().__new__(cls, value)
        obj.underflow = underflow
        return obj


_LOG_SMALLEST_NORMAL = math.log(2.2250738585072014e-308)


def _k_cutoff(y: float, re_nu: float, abs_tol: float) -> float:
    # smallest U with y cosh U - |Re nu| U > log(1/abs_tol) + 5
    target = math.log(1.0 / abs_tol) + 5.0
    u = 1.0
    for _ in range(60):
        need = (target + abs(re_nu) * u) / y
        u_new = math.acosh(need) if need > 1.0 else 1.0
        if abs(u_new - u) < 1e-9:
            break
        u = u_new
    return max(u, 1.0)


def _k_trapezoid(nu: complex, ys: np.ndarray, n: int, upper: float):
    # (sum w f, sum w |f| c) per y, where c = 1 + u (|nu| + y cosh u) bounds the
    # rounding error of f(u) relative to |f(u)|, in units of the roundoff
    u = np.linspace(0.0, upper, n + 1)
    weights = np.full(n + 1, upper / n)
    weights[0] *= 0.5
    ch = np.cosh(u)
    wk = weights * np.cosh(complex(nu) * u)
    wa = np.abs(wk)
    # rows: y values, cols: quadrature nodes
    expo = np.exp(-np.outer(ys, ch))
    sums = expo @ np.column_stack([wk.real, wk.imag, wa * (1.0 + abs(nu) * u), wa * u * ch])
    return sums[:, 0] + 1j * sums[:, 1], sums[:, 2] + ys * sums[:, 3]


def k_bessel(
    nu: complex, y: float, config: NumericsConfig = DEFAULT_CONFIG
) -> KBesselValue:
    """K_nu(y) for y > 0 by trapezoidal quadrature of the cosh integral.

    Accurate to config.abs_tol relative to max(1, |K|): once |K| < 1 that is
    an absolute error, so small values at large y carry large relative
    errors (at nu = 0.5 against mpmath: 6.7e-9 relative at y = 20, 9.8e-6
    at y = 60, 5.7e-2 at y = 200).  Symmetric in nu <-> -nu by construction
    (the integrand depends on nu through cosh(nu u) only).  For y so large
    that the value drops below the smallest normal double, returns exact 0
    flagged with .underflow.
    """
    if y <= 0:
        raise ValueError("k_bessel needs y > 0")
    nu = complex(nu)
    # leading asymptotic log-magnitude sqrt(pi/2y) e^{-y}
    if -y + 0.5 * math.log(math.pi / (2.0 * y)) < _LOG_SMALLEST_NORMAL:
        return KBesselValue(0.0, underflow=True)
    vals = _k_bessel_many(nu, np.array([y]), config)
    return KBesselValue(complex(vals[0]), underflow=False)


def _k_bessel_many(
    nu: complex, ys: np.ndarray, config: NumericsConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Vectorized K_nu over an array of positive y in one trapezoid pass.

    The pass sums h (f(0)/2 + f(h) + ... + f(U)), U from _k_cutoff at the
    smallest y.  The step h brings the strip bound
    e^{-2 pi a/h} e^{|Im nu| a} (1/cos a)^{|Re nu|} (a = 1; Trefethen & Weideman,
    SIAM Review 56, 2014) under abs_tol/10 relative to max(1, |K|).
    Raises QuadratureBudget where the rounding bound exceeds abs_tol max(1, |K|).
    """
    upper = _k_cutoff(float(np.min(ys)), nu.real, config.abs_tol)
    # 2 pi a / h with a = 1: target, strip growth, and 2.0 for the constant in front
    strip = abs(nu.imag) - abs(nu.real) * math.log(math.cos(1.0))
    n = math.ceil(upper * (math.log(10.0 / config.abs_tol) + strip + 2.0) / (2.0 * math.pi))
    vals, noise = _k_trapezoid(nu, ys, n, upper)
    if np.any(np.finfo(float).eps / 2.0 * noise > config.abs_tol * np.maximum(1.0, abs(vals))):
        raise QuadratureBudget(f"K-Bessel quadrature lost to cancellation at nu = {nu}")
    return vals


# ---------- divisor sums ----------


def sigma_divisor(s: complex, n: int, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """sigma_s(n) = sum_{d | n} d^s; exact rational path for integer real s."""
    if n < 1 or n != int(n):
        raise ValueError("sigma_divisor needs a positive integer n")
    n = int(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    s = complex(s)
    if s.imag == 0.0 and float(s.real).is_integer():
        exact = sum(Fraction(d) ** int(s.real) for d in divisors)
        return complex(float(exact))
    return sum(pow_pos(float(d), s) for d in divisors)
