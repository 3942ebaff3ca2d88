"""Tests for the rank-1/rank-2 zeta functions and residue machinery."""

import math

import pytest

import oracles
from latzeta.errors import ContourFailure, ConvergenceRegion, PoleProximity
from latzeta.numerics import NumericsConfig, xi_completed
from latzeta.zeta import (
    residue_at,
    volume_d_T,
    zeta_rank1_numeric,
    zeta_rank2,
    zeta_rank2_numeric,
)

# residue of the rank-2 function at s = 1; the s = 0 residue is its negative
RES_ONE = math.pi / 6.0 - 0.5

CFG9 = NumericsConfig(abs_tol=1e-9)


class TestRankOne:
    def test_matches_completed_zeta_on_real_axis(self):
        for s in (2.0, 3.0, 4.0):
            assert abs(zeta_rank1_numeric(s) - xi_completed(s)) < 1e-6

    def test_known_values(self):
        # xi(2) = pi/6, and the s = 3 value frozen from two routes
        assert abs(zeta_rank1_numeric(2.0) - math.pi / 6.0) < 1e-9
        assert abs(zeta_rank1_numeric(3.0) - 0.19131329801558514) < 1e-9

    def test_complex_argument(self):
        s = 2.0 + 1.0j
        assert abs(zeta_rank1_numeric(s) - xi_completed(s)) < 1e-6

    def test_large_imaginary_part(self):
        for s in (2.0 + 30.0j, 6.0 + 10.0j, 1.2 + 5.0j):
            assert abs(zeta_rank1_numeric(s) - xi_completed(s)) < 1e-10

    def test_divergent_region_rejected(self):
        with pytest.raises(ConvergenceRegion):
            zeta_rank1_numeric(1.05)
        with pytest.raises(ConvergenceRegion):
            zeta_rank1_numeric(0.5 + 3.0j)


class TestRankTwo:
    def test_closed_form_value(self):
        # xi(4)/1 - xi(3)/2 at s = 2
        expect = xi_completed(4.0) - xi_completed(3.0) / 2.0
        assert abs(zeta_rank2(2.0) - expect) < 1e-14

    def test_numeric_agrees_with_closed_form(self):
        for s in (2.0, 2.5, 1.5 + 1.0j):
            assert abs(zeta_rank2_numeric(s, CFG9) - zeta_rank2(s)) < 1e-6

    def test_functional_equation(self):
        for s in (0.3 + 0.4j, 2.0 + 1.5j, -0.7 + 0.2j):
            assert abs(zeta_rank2(s) - zeta_rank2(1.0 - s)) < 1e-10

    def test_pole_guard(self):
        for bad in (0.0, 0.5, 1.0):
            with pytest.raises(PoleProximity):
                zeta_rank2(bad)


class TestResidues:
    def test_residue_at_one(self):
        r = residue_at(zeta_rank2, 1.0)
        assert abs(r - RES_ONE) < 1e-6
        assert abs(r.imag) < 1e-12

    def test_residue_at_zero_is_negative(self):
        r0 = residue_at(zeta_rank2, 0.0)
        r1 = residue_at(zeta_rank2, 1.0)
        assert abs(r0 + r1) < 1e-6

    def test_residue_of_completed_zeta(self):
        assert abs(residue_at(xi_completed, 1.0) - 1.0) < 1e-9

    def test_regular_point_gives_zero(self):
        assert abs(residue_at(zeta_rank2, 2.0)) < 1e-12

    def test_contour_failure_wraps_node_errors(self):
        def bad(_s):
            raise ValueError("boom")

        with pytest.raises(ContourFailure):
            residue_at(bad, 1.0)

        def near_pole(_s):
            raise PoleProximity("guard")

        with pytest.raises(ContourFailure):
            residue_at(near_pole, 1.0)

    def test_programming_errors_propagate(self):
        def broken(_s):
            raise TypeError("not a contour failure")

        with pytest.raises(TypeError):
            residue_at(broken, 1.0)


class TestVolume:
    def test_height_one_area(self):
        assert abs(volume_d_T(1.0) - (math.pi / 3.0 - 1.0)) < 1e-15

    def test_closed_form_vs_quadrature(self):
        # twice the x in [0, 1/2] half of dx dy / y^2 over sqrt(1 - x^2) < y < T
        for T in (1.0, 1.5, 3.0, 10.0):
            area = 2.0 * oracles.gl_panel(
                lambda x: 1.0 / math.sqrt(1.0 - x * x) - 1.0 / T, 0.0, 0.5
            )
            assert abs(volume_d_T(T) - area) < 1e-9

    def test_residue_to_area_ratio(self):
        r = residue_at(zeta_rank2, 1.0)
        assert abs(r.real / volume_d_T(1.0) - 0.5) < 1e-6

    def test_height_below_one_rejected(self):
        with pytest.raises(ValueError):
            volume_d_T(0.9)
