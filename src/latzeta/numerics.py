"""Special functions underlying every evaluator in the package.

Three ingredients: the completed zeta function

    xi(s) = pi^{-s/2} Gamma(s/2) zeta(s)
          = -1/s - 1/(1-s) + int_1^inf omega(u) (u^{s/2} + u^{(1-s)/2}) du/u,

    omega(u) = sum_{n >= 1} exp(-pi n^2 u),

computed from the theta-integral form (entire apart from the two explicit
pole terms, and symmetric under s <-> 1-s by construction), the K-Bessel
function of complex order via trapezoidal quadrature of

    K_nu(y) = e^{-y} int_0^inf exp(-y (cosh u - 1)) cosh(nu u) du,

and divisor power sums.  All approximate routines honor the tolerances
in NumericsConfig and raise PoleProximity inside guard disks instead of
returning garbage near poles.

The theta integral of xi is one Gauss-Legendre pass on fixed panels.  Each
panel's order is set in advance by the Bernstein-ellipse bound
(64/15) h M rho^{-2n} / (rho^2 - 1) (Trefethen, SIAM Review 50, 2008,
Thm 4.5), with M from |omega(u)| <= sum_n e^{-pi n^2 Re u} and
|u^a| <= |u|^{Re a} e^{|Im a| |arg u|}, so it grows with |Im s|; past order
512 (near |Im s| = 3000) the pass raises QuadratureBudget.

The K-Bessel trapezoid is one rule for every y: its step h is fixed in
advance by the strip bound e^{-2 pi a/h} e^{|Im nu| a} (1/cos a)^{|Re nu|}
(Trefethen & Weideman, SIAM Review 56, 2014) on the strip of half-width
a = 1/sqrt(max(y, 1)), the width of the integrand's peak, so the value is
accurate relative to |K| at every y.  It raises QuadratureBudget where its
rounding bound exceeds abs_tol max(1, |K|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PoleProximity, QuadratureBudget

__all__ = [
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "KBesselValue",
    "xi_completed",
    "k_bessel",
    "sigma_divisor",
    "pow_pos",
]


@dataclass(frozen=True)
class NumericsConfig:
    """Knobs for every approximate operation.

    abs_tol: target absolute accuracy of special-function values.  Rules are
        sized from it in advance: xi takes per panel the Gauss-Legendre order
        whose Bernstein-ellipse bound keeps the sum under abs_tol/10.
    series_cutoff_margin: convergence-region safety margin (series are
        refused when the defining exponent is within this margin of the
        boundary of absolute convergence).
    pole_guard_radius: evaluators refuse to run inside disks of this radius
        around poles (PoleProximity).
    vector_budget: hard cap on the number of lattice points any single
        enumeration may touch (EnumerationOverflow beyond it).
    """

    abs_tol: float = 1e-12
    series_cutoff_margin: float = 0.1
    pole_guard_radius: float = 1e-8
    vector_budget: int = 5_000_000

    def __post_init__(self) -> None:
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.pole_guard_radius <= 0:
            raise ValueError("pole_guard_radius must be positive")
        if self.vector_budget < 1:
            raise ValueError("vector_budget must be a positive integer")


DEFAULT_CONFIG = NumericsConfig()


def pow_pos(u: float, s: complex) -> complex:
    """u^s for positive real u with the principal branch exp(s log u)."""
    if u <= 0.0:
        raise ValueError("pow_pos needs a positive base")
    return cmath.exp(complex(s) * math.log(u))


# ---------- Gauss-Legendre ----------

_GL_MAX_ORDER = 512


@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(order)


def _gl_panels(edges, orders) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule with orders[k] Gauss-Legendre
    nodes on [edges[k], edges[k+1]]; one int order serves every panel."""
    us, ws = [], []
    for a, b, order in zip(edges, edges[1:], np.broadcast_to(orders, len(edges) - 1)):
        x, w = _gl_nodes(int(order))
        us.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(us), np.concatenate(ws)


def _gl_orders(edges, exponents, log_weight, tol: float) -> tuple[int, ...]:
    """Order for each panel between edges > 0 from the Bernstein-ellipse bound.

    The integrand is w(u) sum_k u^{a_k}.  On an ellipse with least real part r,
    largest |Im u| m and largest |u| R, log_weight(r, m, R) bounds log |w| and
    |u^a| <= (R or r)^{Re a} e^{|Im a| atan(m/r)}.  Each panel tries seven
    ellipses inside Re u > 0 and keeps the least order that brings the bound
    under tol, rounded up to a multiple of 8 so nearby arguments share tables.
    """
    e = np.asarray(edges, dtype=float)
    c = 0.5 * (e[1:] + e[:-1])[:, None]
    h = 0.5 * (e[1:] - e[:-1])[:, None]
    beta = np.arccosh(c / h) * (np.arange(1, 8) / 8.0)
    r = c - h * np.cosh(beta)
    m = h * np.sinh(beta)
    big_r = c + h * np.cosh(beta)
    log_pow = [
        a.real * np.log(big_r if a.real >= 0.0 else r) + abs(a.imag) * np.arctan2(m, r)
        for a in map(complex, exponents)
    ]
    log_m = log_weight(r, m, big_r) + np.logaddexp.reduce(log_pow)
    n = (np.log(64.0 / 15.0 * h / tol) + log_m - np.log(np.expm1(2.0 * beta))) / (2.0 * beta)
    n = n.min(axis=1)
    if not np.all(n <= _GL_MAX_ORDER):
        raise QuadratureBudget(f"Gauss-Legendre order {np.max(n):.0f} is over {_GL_MAX_ORDER}")
    return tuple(8 * math.ceil(max(k, 1.0) / 8.0) for k in n)


# ---------- completed zeta ----------


def _log_omega_bound(r, _m, _big_r):
    # |omega(u)| <= sum_n e^{-pi n^2 r} <= e^{-pi r} / (1 - e^{-3 pi r}), as n^2 >= 3n - 2
    return -math.pi * r - np.log(-np.expm1(-3.0 * math.pi * r))


@lru_cache(maxsize=64)
def _xi_table(cuts: tuple[float, ...], orders: tuple[int, ...]):
    """(log u, omega(u) weight / u) at every node of the panels between cuts."""
    u, w = _gl_panels(cuts, orders)
    # omega(u) = sum_{n>=1} exp(-pi n^2 u); u >= 1 so six terms reach ~1e-40
    omega = np.exp(-math.pi * np.outer(u, np.arange(1, 7) ** 2)).sum(axis=1)
    return np.log(u), omega * w / u


def xi_completed(s: complex, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """Completed zeta xi(s) from the symmetric theta integral.

    The representation is valid for every s away from the poles at 0 and 1,
    and the functional equation xi(s) = xi(1-s) holds exactly because the
    integrand is literally symmetric in s <-> 1-s.  One Gauss-Legendre pass
    on the panels 1, 1.7, 3, 6, U, each order from _gl_orders.
    """
    s = complex(s)
    if abs(s) < config.pole_guard_radius or abs(s - 1.0) < config.pole_guard_radius:
        raise PoleProximity(f"xi pole guard at s = {s}")
    sigma = max(abs(s.real), abs(1.0 - s.real))
    cuts = (1.0, 1.7, 3.0, 6.0, 12.0 + max(0.0, sigma - 6.0))
    a, b = s / 2.0, (1.0 - s) / 2.0
    tol = config.abs_tol / (10.0 * (len(cuts) - 1))
    # the 1/u of du/u rides on the exponents
    orders = _gl_orders(cuts, (a - 1.0, b - 1.0), _log_omega_bound, tol)
    log_u, weights = _xi_table(cuts, orders)
    integral = weights @ (np.exp(a * log_u) + np.exp(b * log_u))
    return -1.0 / s - 1.0 / (1.0 - s) + complex(integral)


# ---------- K-Bessel ----------


class KBesselValue(complex):
    """A complex value carrying an underflow flag (exact 0 when flagged)."""

    underflow: bool

    def __new__(cls, value: complex, underflow: bool = False):
        obj = super().__new__(cls, value)
        obj.underflow = underflow
        return obj


_LOG_SMALLEST_NORMAL = math.log(2.2250738585072014e-308)

# floats in one (points x nodes) work array of the K-Bessel pass
_K_WORK = 2**16


def _k_cutoff(y: float, re_nu: float, abs_tol: float) -> float:
    # smallest U with y (cosh U - 1) - |Re nu| U > log(1/abs_tol) + 5
    target = math.log(1.0 / abs_tol) + 5.0
    u = 1.0
    for _ in range(60):
        u_new = math.acosh(1.0 + (target + abs(re_nu) * u) / y)
        if abs(u_new - u) < 1e-9:
            break
        u = u_new
    return u_new


def _k_trapezoid(nu: complex, ys: np.ndarray, n: int, upper: float):
    # (sum w f, sum w |f| c) e^{-y} per y, where f = e^{-y (cosh u - 1)} cosh(nu u)
    # and c = 1 + u (|nu| + y cosh u) bounds the rounding error of f(u)
    # relative to |f(u)|, in units of the roundoff
    u = np.linspace(0.0, upper, n + 1)
    weights = np.full(n + 1, upper / n)
    weights[0] *= 0.5
    ch = np.cosh(u)
    cosh_m1 = 2.0 * np.sinh(0.5 * u) ** 2
    wk = weights * np.cosh(complex(nu) * u)
    wa = np.abs(wk)
    cols = np.column_stack([wk.real, wk.imag, wa * (1.0 + abs(nu) * u), wa * u * ch])
    # rows: y values, cols: quadrature nodes, at most _K_WORK floats a step
    step = max(1, _K_WORK // (n + 1))
    sums = np.empty((len(ys), 4))
    for i in range(0, len(ys), step):
        work = np.outer(ys[i : i + step], -cosh_m1)
        sums[i : i + step] = np.exp(work, out=work) @ cols
    scale = np.exp(-ys)
    return (sums[:, 0] + 1j * sums[:, 1]) * scale, (sums[:, 2] + ys * sums[:, 3]) * scale


def k_bessel(
    nu: complex, y: float, config: NumericsConfig = DEFAULT_CONFIG
) -> KBesselValue:
    """K_nu(y) for y > 0 by trapezoidal quadrature of the cosh integral.

    Accurate to config.abs_tol relative to |K| (see _k_bessel_many).
    Symmetric in nu <-> -nu by construction (the integrand depends on nu
    through cosh(nu u) only).  For y so large that the value drops below the
    smallest normal double, returns exact 0 flagged with .underflow.
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

    K_nu(y) = e^{-y} int_0^inf e^{-y (cosh u - 1)} cosh(nu u) du.  The pass
    sums h (f(0)/2 + f(h) + ... + f(U)) and multiplies by e^{-y}, with U from
    _k_cutoff at y0 = min(ys).  The integrand's peak has width about
    1/sqrt(y0), so the strip bound e^{-2 pi a/h} e^{|Im nu| a} (1/cos a)^{|Re nu|}
    (Trefethen & Weideman, SIAM Review 56, 2014) is taken on the strip of
    half-width a = 1/sqrt(max(y0, 1)), where e^{-y0 (cosh u - 1)} stays
    bounded; h brings it under abs_tol/10 relative to |K(y0)|.  Larger y
    keep an absolute error under that at y0.  Raises QuadratureBudget where
    the rounding bound exceeds abs_tol max(1, |K|).
    """
    y0 = float(np.min(ys))
    upper = _k_cutoff(y0, nu.real, config.abs_tol)
    a = 1.0 / math.sqrt(max(y0, 1.0))
    # 2 pi a / h: target, strip growth, and 2.0 for the constant in front
    strip = abs(nu.imag) * a - abs(nu.real) * math.log(math.cos(a))
    n = math.ceil(upper * (math.log(10.0 / config.abs_tol) + strip + 2.0) / (2.0 * math.pi * a))
    vals, noise = _k_trapezoid(nu, ys, n, upper)
    if np.any(np.finfo(float).eps / 2.0 * noise > config.abs_tol * np.maximum(1.0, abs(vals))):
        raise QuadratureBudget(f"K-Bessel quadrature lost to cancellation at nu = {nu}")
    return vals


# ---------- divisor sums ----------


def sigma_divisor(s: complex, n: int, config: NumericsConfig = DEFAULT_CONFIG) -> complex:
    """sigma_s(n) = sum_{d | n} d^s over the divisors found by trial division.

    For an integer exponent up to 100 in size, complex ** raises by repeated
    multiplication, so small cases such as sigma_1(6) = 12 come out exact.
    """
    if n < 1 or n != int(n):
        raise ValueError("sigma_divisor needs a positive integer n")
    n = int(n)
    s = complex(s)
    return sum(complex(d) ** s for d in range(1, n + 1) if n % d == 0)
