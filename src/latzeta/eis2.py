"""Completed SL2 Eisenstein series, truncations, and the height-T integral.

Everything here is the half-coset normalization

    E(z; s) = xi(2s) sum_{Gamma_inf \\ Gamma} Im(gamma z)^s
            = (1/2) pi^{-s} Gamma(s) sum_{(m,n) != 0} y^s / |mz+n|^{2s},

the one whose Fourier constant term is xi(2s) y^s + xi(2-2s) y^{1-s} and for
which the truncated fundamental-domain integral has the exact closed form

    I_T(s) = xi(2s) T^{s-1}/(s-1) - xi(2s-1) T^{-s}/s.

Three independent evaluation routes are provided -- the lattice sum (by the
theta split lattice._epstein_split, only where the double sum converges),
the Fourier expansion (valid everywhere off the xi pole lines, and serving
as the analytic continuation), and the closed-form I_T -- plus a tensor
Gauss-Legendre quadrature that ties the series to I_T numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np

from .errors import ConvergenceRegion, PoleProximity, QuadratureBudget
from .halfplane import UpperHalfPoint, reduce_sl2
from .lattice import Lattice, _epstein_split, minkowski_point
from .numerics import (
    DEFAULT_CONFIG, NumericsConfig, _gl_panels, _k_bessel_many, sigma_divisor, xi_completed
)

__all__ = [
    "UpperHalfPoint",
    "reduce_sl2",
    "eisenstein_direct",
    "eisenstein_fourier",
    "epstein_lattice",
    "truncated_eisenstein",
    "geo_truncated_integral_numeric",
    "closed_form_IT",
    "eq4_grid_rows",
]

_GUARDED = (0.0, 0.5, 1.0)


def _check_guard(s: complex, config: NumericsConfig) -> None:
    for p in _GUARDED:
        if abs(s - p) < config.pole_guard_radius:
            raise PoleProximity(f"s = {s} is within the guard disk at {p}")


def eisenstein_direct(
    z: UpperHalfPoint, s: complex, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """(1/2) pi^{-s} Gamma(s) sum' y^s/|mz+n|^{2s} = (1/2) y^s Lambda_L(s).

    Lambda_L is lattice._epstein_split on L = Z + Zz, from the exact binary
    fractions of x and y, to 2 abs_tol / y^{Re s}; z needs no reduction.
    """
    s = complex(s)
    if s.real <= 1.0 + config.series_cutoff_margin:
        raise ConvergenceRegion(
            f"direct series needs Re(s) > {1.0 + config.series_cutoff_margin}"
        )
    L = Lattice.from_basis([[1, 0], [z.x, z.y]])
    lam_config = replace(config, abs_tol=2.0 * config.abs_tol / z.y**s.real)
    return 0.5 * cmath.exp(s * math.log(z.y)) * _epstein_split(L, s, lam_config)


def _a0(y: float, s: complex, config: NumericsConfig) -> complex:
    return xi_completed(2 * s, config) * y**s + xi_completed(2 - 2 * s, config) * y ** (
        1 - s
    )


def _tail_modes(y_min: float, mu: float, abs_tol: float) -> int:
    """Least N with sum_{n > N} b_n < abs_tol/10 at y_min, for the bound

        |n^nu sigma_{1-2s}(n) 4 sqrt(y) K_nu(2 pi n y)| <= b_n = 8 n^|mu| e^{-c n + mu^2/(2 c n)},

    mu = Re nu, c = 2 pi y, from |n^nu sigma_{1-2s}(n)| <= d(n) n^|mu|,
    d(n) <= 2 sqrt(n), |K_nu| <= K_mu and K_mu(x) <= sqrt(2 pi/x) e^{-x + mu^2/(2x)}
    (cosh u >= 1 + u^2/2, cosh mu u <= e^{|mu| u}).  Past n the ratio
    b_{n+1}/b_n is at most r_n = (1 + 1/n)^|mu| e^{-c}, so the tail beyond
    N is at most b_{N+1} / (1 - r_{N+1}).  The candidates run to an M where
    that holds for certain: there r <= e^{-c/2}, mu^2/(2 c n) <= |mu|/4 and
    |mu| log n <= c n/2 + |mu| log(2|mu|/(e c)).
    """
    a, c = abs(mu), 2.0 * math.pi * y_min
    log_gap = math.log(80.0 / abs_tol) + a / 4.0 - math.log(-math.expm1(-c / 2.0))
    if a > 0.0:
        log_gap += a * max(0.0, math.log(2.0 * a / (math.e * c)))
    n = np.arange(1.0, max(2.0 * a / c + 1.0, 2.0 * log_gap / c) + 2.0)
    log_r = a * np.log1p(1.0 / n) - c
    log_b = math.log(8.0) + a * np.log(n) - c * n + mu * mu / (2.0 * c * n)
    with np.errstate(divide="ignore"):  # no geometric bound where r_n >= 1
        log_tail = log_b - np.log(-np.expm1(np.minimum(log_r, 0.0)))
    return int(np.argmax(log_tail < math.log(abs_tol / 10.0)))


def _fourier_tail(
    xs: np.ndarray, ys: np.ndarray, s: complex, config: NumericsConfig
) -> np.ndarray:
    """Nonconstant Fourier part over arrays of points sharing one s.

    sum_{n=1}^{N} 4 n^{s-1/2} sigma_{1-2s}(n) sqrt(y) K_{s-1/2}(2 pi n y) cos(2 pi n x),
    with N from _tail_modes at the smallest y, so the bound on the dropped
    terms is under abs_tol/10 at every point.  Each block of about 4096
    (point, mode) pairs is one K-Bessel pass and one product with the cosines.
    """
    nu = s - 0.5
    modes = np.arange(1, _tail_modes(float(np.min(ys)), nu.real, config.abs_tol) + 1)
    out = np.zeros(len(ys), dtype=complex)
    if not len(modes):
        return out
    coeffs = np.array([4.0 * n**nu * sigma_divisor(1 - 2 * s, n) for n in modes.tolist()])
    step = max(1, 4096 // len(modes))
    for lo in range(0, len(ys), step):
        x, y = xs[lo : lo + step, None], ys[lo : lo + step, None]
        bessel = _k_bessel_many(nu, (2.0 * math.pi * y * modes).ravel(), config)
        terms = bessel.reshape(len(y), -1) * np.cos(2.0 * math.pi * x * modes)
        out[lo : lo + step] = np.sqrt(y[:, 0]) * (terms @ coeffs)
    return out


def eisenstein_fourier(
    z: UpperHalfPoint, s: complex, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """Fourier-expansion evaluation; the analytic continuation in s."""
    s = complex(s)
    _check_guard(s, config)
    tail = _fourier_tail(np.array([z.x]), np.array([z.y]), s, config)
    return _a0(z.y, s, config) + complex(tail[0])


def truncated_eisenstein(
    z: UpperHalfPoint, s: complex, T: float, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """E(z;s) with the constant term removed above height T."""
    s = complex(s)
    if T < 1.0:
        raise ValueError("truncation height must be >= 1")
    _check_guard(s, config)
    tail = complex(_fourier_tail(np.array([z.x]), np.array([z.y]), s, config)[0])
    if z.y > T:
        return tail
    return _a0(z.y, s, config) + tail


def epstein_lattice(
    L: Lattice, s: complex, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """Completed Epstein zeta of a rank-2 lattice via its shape point.

    Homogeneity E(tL; s) = t^{-2s} E(L; s) reduces to the covolume-1 case,
    which is the Eisenstein series at the Minkowski point.
    """
    s = complex(s)
    if L.rank != 2:
        raise ValueError("rank-2 operation")
    z, t = minkowski_point(L)
    return cmath.exp(-2.0 * s * math.log(t)) * eisenstein_fourier(z, s, config)


def closed_form_IT(
    s: complex, T: float, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """xi(2s) T^{s-1}/(s-1) - xi(2s-1) T^{-s}/s, exact in s off the guards."""
    s = complex(s)
    if T < 1.0:
        raise ValueError("truncation height must be >= 1")
    _check_guard(s, config)
    t_up = cmath.exp((s - 1) * math.log(T))
    t_dn = cmath.exp(-s * math.log(T))
    return xi_completed(2 * s, config) * t_up / (s - 1) - xi_completed(
        2 * s - 1, config
    ) * t_dn / s


def _geo_nodes(T: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre (x, y, weight / y^2) of one order on the height-T cut.

    Two x-panels, [-1/2, 0] and [0, 1/2]; above each x node, y-panels from the
    unit circle to 1, then between the edges 1, 2, 4, ..., T, so that every
    y-panel sits at the same relative distance from the y = 0 singularity of
    y^{s-2} and y^{-1-s}.
    """
    px, wx = _gl_panels((-0.5, 0.0, 0.5), order)
    y_edges = [min(2.0**k, T) for k in range(math.ceil(math.log2(T)) + 1)]
    columns = [_gl_panels((math.sqrt(1.0 - x * x), *y_edges), order) for x in px]
    ys = np.concatenate([y for y, _ in columns])
    ws = np.concatenate([wxk * w / (y * y) for wxk, (y, w) in zip(wx, columns)])
    return np.repeat(px, len(ys) // len(px)), ys, ws


def _geo_integral_estimate(
    s: complex, T: float, config: NumericsConfig
) -> tuple[complex, float]:
    """Order-64 tensor rule and |Q_64 - Q_32| as its error estimate.

    Both rules share one Fourier-tail pass and one xi(2s), xi(2-2s); an
    estimate over abs_tol/10 relative to max(1, |value|) raises
    QuadratureBudget, since |I_T| grows like T^(Re s - 1) and rounding alone
    passes an absolute bound there.
    """
    s = complex(s)
    if T < 1.0:
        raise ValueError("truncation height must be >= 1")
    _check_guard(s, config)
    x_hi, y_hi, w_hi = _geo_nodes(T, 64)
    x_lo, y_lo, w_lo = _geo_nodes(T, 32)
    xs = np.concatenate([x_hi, x_lo])
    ys = np.concatenate([y_hi, y_lo])
    vals = _fourier_tail(xs, ys, s, config) + _a0(ys, s, config)
    value = complex(vals[: len(w_hi)] @ w_hi)
    err = abs(value - complex(vals[len(w_hi) :] @ w_lo))
    if err > config.abs_tol / 10.0 * max(1.0, abs(value)):
        raise QuadratureBudget(f"height-T integral estimate {err:.1e} over abs_tol/10 relative")
    return value, err


def geo_truncated_integral_numeric(
    s: complex, T: float, config: NumericsConfig = DEFAULT_CONFIG
) -> complex:
    """Quadrature of E(z;s) dx dy / y^2 over the height-cut fundamental domain."""
    value, _err = _geo_integral_estimate(s, T, config)
    return value


def eq4_grid_rows(
    pairs: list[tuple[complex, float]], config: NumericsConfig = DEFAULT_CONFIG
) -> list[dict]:
    """Numeric height-T integral over a grid, one CSV-ready dict per (s, T)."""
    rows = []
    for s, T in pairs:
        value, err = _geo_integral_estimate(complex(s), float(T), config)
        rows.append(
            {
                "s_re": complex(s).real,
                "s_im": complex(s).imag,
                "T": float(T),
                "value_re": value.real,
                "value_im": value.imag,
                "abs_err_estimate": err,
            }
        )
    return rows
