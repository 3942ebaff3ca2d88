"""Special-function unit tests against independently generated oracle values."""

from __future__ import annotations

import cmath
import math
import random

import pytest

import oracles
from latzeta.errors import PoleProximity, QuadratureBudget
from latzeta.numerics import (
    DEFAULT_CONFIG,
    NumericsConfig,
    k_bessel,
    pow_pos,
    sigma_divisor,
    xi_completed,
)

# Frozen via tests/oracles.py (Euler-Maclaurin zeta, ascending K series);
# see xi_oracle / k0_series.
XI_2 = 0.5235987755982989
XI_3 = 0.19131329801558514
XI_4 = 0.10966227112321512
K0_1 = 0.42102443824070834


class TestXi:
    def test_xi2_is_pi_over_6(self):
        assert abs(xi_completed(2) - math.pi / 6) < 1e-12
        assert abs(xi_completed(2) - XI_2) < 1e-12

    def test_oracle_values(self):
        assert abs(xi_completed(3) - XI_3) < 1e-12
        assert abs(xi_completed(4) - XI_4) < 1e-12

    def test_builtin_symmetry_exact(self):
        assert xi_completed(3) == xi_completed(-2)

    def test_functional_equation_complex(self):
        for s in (0.3 + 2.0j, 2.5 - 1.0j, -1.2 + 0.7j):
            assert abs(xi_completed(s) - xi_completed(1 - s)) < 1e-12

    def test_residue_at_one(self):
        eps = 1e-5
        est = eps * xi_completed(1 + eps)
        assert abs(est - 1.0) < 1e-4

    def test_against_oracle_complex(self):
        for s in (2.0 + 1.0j, 3.5, 6.0, 1.4 + 0.2j):
            assert abs(xi_completed(s) - oracles.xi_oracle(s)) < 1e-11

    def test_large_argument(self):
        assert abs(xi_completed(12) - oracles.xi_oracle(12)) < 1e-11

    def test_pole_guard(self):
        for bad in (0.0, 1.0, 1 + 1e-9j):
            with pytest.raises(PoleProximity):
                xi_completed(bad)

    @pytest.mark.parametrize(
        "s",
        [complex(re, im) for re in (-5, -2, 0.5, 2, 4.4, 6) for im in (0.3, 8, 30, 100, 400)],
    )
    def test_matches_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            z = mpmath.mpc(s)
            ref = complex(mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2) * mpmath.zeta(z))
        assert abs(xi_completed(s) - ref) <= 1e-12

    def test_order_cap_raises(self):
        # the ellipse bound asks for about 690 nodes a panel here, over the cap
        with pytest.raises(QuadratureBudget):
            xi_completed(0.5 + 5000j)


def _k_grid() -> list[tuple[complex, float]]:
    # Re nu, Im nu in [0, 5], y log-uniform in [0.05, 60], rounded for stable ids
    rng = random.Random(20)
    lo, hi = math.log(0.05), math.log(60.0)
    return [
        (
            complex(round(rng.uniform(0, 5), 2), round(rng.uniform(0, 5), 2)),
            round(math.exp(rng.uniform(lo, hi)), 4),
        )
        for _ in range(36)
    ] + [(5 + 5j, 0.05), (5.0, 0.05), (5j, 0.05), (5 + 5j, 60.0)]


_K_GRID = _k_grid()


class TestKBessel:
    def test_half_order_closed_form(self):
        val = k_bessel(0.5, 2.0)
        assert abs(val - math.sqrt(math.pi / 4) * math.exp(-2)) < 1e-12

    def test_k0_oracle(self):
        assert abs(k_bessel(0.0, 1.0) - K0_1) < 1e-12
        assert abs(k_bessel(0.0, 0.7) - oracles.k0_series(0.7)) < 1e-11

    def test_symmetry_in_order(self):
        nu = 0.3 + 0.7j
        assert k_bessel(nu, 1.0) == k_bessel(-nu, 1.0)

    def test_underflow_flag(self):
        val = k_bessel(0.5, 900.0)
        assert val == 0
        assert val.underflow is True
        assert k_bessel(0.5, 2.0).underflow is False

    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            k_bessel(0.5, 0.0)

    @pytest.mark.parametrize(
        "nu, y",
        # |K| in the hundreds to thousands, where rounding alone exceeds abs_tol
        [(2.0, 0.05), (2.5 + 1.0j, 0.08), (3.0 + 2.0j, 0.1), (2.2 + 0.4j, 0.12)]
        # tiny |K| at large y: the bound is absolute there, not relative
        + [(nu, y) for nu in (0.5, 1.5 + 2j) for y in (20.0, 60.0, 200.0)]
        + _K_GRID,
    )
    def test_large_values_match_mpmath(self, nu, y):
        mpmath = pytest.importorskip("mpmath")
        ref = complex(mpmath.besselk(nu, y))
        assert abs(k_bessel(nu, y) - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("y", [20.0, 60.0, 200.0, 700.0])
    @pytest.mark.parametrize("nu", [0.5, 1.5 + 2j, 5j])
    def test_relative_to_value_at_large_y(self, nu, y):
        # |K| ~ e^{-y} is far under 1 here: the error must scale with it
        mpmath = pytest.importorskip("mpmath")
        ref = complex(mpmath.besselk(nu, y))
        assert abs(k_bessel(nu, y) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("nu, y", [(3 + 9j, 0.05), (3 + 10j, 0.05), (3 + 10j, 0.0672)])
    def test_cancellation_raises(self, nu, y):
        # |K| is small next to sum |integrand|: rounding would swamp the value
        with pytest.raises(QuadratureBudget):
            k_bessel(nu, y)


class TestSigma:
    def test_exact_negative_exponent(self):
        assert sigma_divisor(-1, 4) == 1.75

    def test_small_table(self):
        assert sigma_divisor(1, 6) == 12
        assert sigma_divisor(0, 12) == 6
        assert sigma_divisor(3, 6) == float(oracles.sigma_exact(3, 6))

    def test_complex_exponent(self):
        s = 0.5 + 0.5j
        direct = sum(cmath.exp(s * math.log(d)) for d in (1, 2, 3, 6))
        assert abs(sigma_divisor(s, 6) - direct) < 1e-14

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sigma_divisor(1, 0)


class TestConfig:
    def test_defaults(self):
        cfg = NumericsConfig()
        assert cfg.abs_tol == 1e-12
        assert cfg.pole_guard_radius == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericsConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            NumericsConfig(pole_guard_radius=-1.0)

    def test_guard_radius_is_respected(self):
        wide = NumericsConfig(pole_guard_radius=0.5)
        with pytest.raises(PoleProximity):
            xi_completed(1.2, wide)
        assert xi_completed(1.2, DEFAULT_CONFIG) is not None


def test_pow_pos_branch():
    assert abs(pow_pos(4.0, 0.5 + 0.0j) - 2.0) < 1e-15
    with pytest.raises(ValueError):
        pow_pos(-1.0, 2.0)
