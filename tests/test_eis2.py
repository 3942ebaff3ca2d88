"""SL2 Eisenstein layer: direct/Fourier agreement, truncations, eq-4 integral."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latzeta.errors import ConvergenceRegion, EnumerationOverflow, PoleProximity
import oracles
from latzeta.eis2 import (
    UpperHalfPoint,
    _tail_modes,
    closed_form_IT,
    eisenstein_direct,
    eisenstein_fourier,
    epstein_lattice,
    eq4_grid_rows,
    geo_truncated_integral_numeric,
    reduce_sl2,
    truncated_eisenstein,
)
from latzeta.lattice import Lattice, _epstein_split, scale
from latzeta.numerics import DEFAULT_CONFIG, NumericsConfig, xi_completed

# reference values, each confirmed by two independent evaluation routes
E_AT_I_2 = 0.30532186472573947          # = Catalan/3; coset sum vs Fourier
E_AT_03_12_25 = 0.20730438232595977     # direct double sum (tail 3e-12) vs Fourier

CFG9 = NumericsConfig(abs_tol=1e-9, vector_budget=100_000_000)


class TestReduce:
    def test_fixed_point(self):
        z, g = reduce_sl2(UpperHalfPoint(0.0, 1.0))
        assert (z.x, z.y) == (0.0, 1.0)
        assert g == ((1, 0), (0, 1))

    def test_known_point(self):
        z, g = reduce_sl2(UpperHalfPoint(0.7, 0.8))
        assert abs(z.x - 0.4109589041095891) < 1e-13
        assert abs(z.y - 1.095890410958904) < 1e-13
        (a, b), (c, d) = g
        assert a * d - b * c == 1
        w = (a * complex(0.7, 0.8) + b) / (c * complex(0.7, 0.8) + d)
        assert abs(w - z.z) < 1e-13

    def test_contract_on_random_points(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            z0 = UpperHalfPoint(rng.uniform(-8, 8), math.exp(rng.uniform(-3, 2)))
            z, g = reduce_sl2(z0)
            assert abs(z.x) <= 0.5 + 1e-12
            assert z.x * z.x + z.y * z.y >= 1 - 1e-12
            (a, b), (c, d) = g
            assert a * d - b * c == 1


class TestDirect:
    def test_value_at_i(self):
        cfg = NumericsConfig(abs_tol=1e-7, vector_budget=100_000_000)
        assert abs(eisenstein_direct(UpperHalfPoint(0.0, 1.0), 2.0, cfg) - E_AT_I_2) < 1e-6

    def test_invariance_under_generators(self):
        z0 = UpperHalfPoint(0.3, 1.2)
        w = complex(0.3, 1.2)
        ws = -1 / w
        base = eisenstein_direct(z0, 2.5, CFG9)
        shift = eisenstein_direct(UpperHalfPoint(z0.x + 1, z0.y), 2.5, CFG9)
        flip = eisenstein_direct(UpperHalfPoint(ws.real, ws.imag), 2.5, CFG9)
        assert abs(shift - base) < 1e-8
        assert abs(flip - base) < 1e-8

    def test_convergence_region(self):
        with pytest.raises(ConvergenceRegion):
            eisenstein_direct(UpperHalfPoint(0.0, 1.0), 1.05)

    def test_budget(self):
        # the theta split enumerates Z^2 and its dual at one radius, visiting
        # 26 candidates on each; a budget below that count stops it
        tight = NumericsConfig(abs_tol=1e-12, vector_budget=20)
        with pytest.raises(EnumerationOverflow):
            eisenstein_direct(UpperHalfPoint(0.0, 1.0), 2.0, tight)

    def test_unreduced_point_matches_fourier_at_reduced_point(self):
        # the lattice Z + Zz does not depend on the representative of z
        z = UpperHalfPoint(0.3, 0.05)
        zr, _ = reduce_sl2(z)
        for s in (2.5, complex(3.0, 1.0), complex(1.4, 6.0)):
            assert abs(eisenstein_direct(z, s) - eisenstein_fourier(zr, s)) < 1e-11, s


class TestFourier:
    def test_reference_values(self):
        assert abs(eisenstein_fourier(UpperHalfPoint(0.0, 1.0), 2.0) - E_AT_I_2) < 1e-11
        assert (
            abs(eisenstein_fourier(UpperHalfPoint(0.3, 1.2), 2.5) - E_AT_03_12_25)
            < 1e-11
        )

    def test_agrees_with_direct(self):
        for z, s in [
            (UpperHalfPoint(0.0, 1.0), 2.5),
            (UpperHalfPoint(0.3, 1.2), 3.0),
            (UpperHalfPoint(-0.2, 0.9), complex(2.5, 1.0)),
        ]:
            d = eisenstein_direct(z, s, CFG9)
            f = eisenstein_fourier(z, s)
            assert abs(d - f) < 1e-8, (z, s)

    def test_functional_equation(self):
        z = UpperHalfPoint(0.2, 1.5)
        s = complex(0.7, 0.3)
        assert abs(eisenstein_fourier(z, s) - eisenstein_fourier(z, 1 - s)) < 1e-8

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            eisenstein_fourier(UpperHalfPoint(0.0, 1.0), 0.5 + 1e-12)
        with pytest.raises(PoleProximity):
            eisenstein_fourier(UpperHalfPoint(0.0, 1.0), 1.0)

    @pytest.mark.parametrize("s", [2.5, complex(3.0, 1.0)])
    def test_small_y_unreduced_matches_direct(self, s):
        # about a hundred modes at y = 0.05, all in one K-Bessel pass
        z = UpperHalfPoint(0.3, 0.05)
        d = eisenstein_direct(z, s)
        assert abs(eisenstein_fourier(z, s) - d) <= 1e-11 * max(1.0, abs(d))

    def test_constant_term_dominates_at_height(self):
        # the nonconstant part decays like e^{-2 pi y}
        z = UpperHalfPoint(0.25, 5.0)
        s = 2.5
        a0 = xi_completed(2 * s) * z.y**s + xi_completed(2 - 2 * s) * z.y ** (1 - s)
        assert abs(eisenstein_fourier(z, s) - a0) < math.exp(-2 * math.pi * 5) * 1e3


def _sigma_oracle(mpmath, e: complex, n: int):
    """sigma_e(n) by oracles.sigma_exact for integer e, else by mpmath powers."""
    if e.imag == 0.0 and e.real.is_integer():
        exact = oracles.sigma_exact(int(e.real), n)
        return mpmath.mpf(exact.numerator) / exact.denominator
    return mpmath.fsum(mpmath.power(d, e) for d in range(1, n + 1) if n % d == 0)


class TestFourierTailModes:
    """The mode count is set in advance from a bound: the terms it drops,
    taken from mpmath's K-Bessel, sum to under abs_tol/10."""

    @pytest.mark.parametrize("y", [0.05, 0.5, 0.87, 2.5])
    @pytest.mark.parametrize("s", [complex(-1.5, 1.0), 0.6, complex(1.5, 2.0), 4.0])
    def test_dropped_terms_under_tolerance(self, y, s):
        mpmath = pytest.importorskip("mpmath")
        nu = s - 0.5
        n_modes = _tail_modes(y, nu.real, DEFAULT_CONFIG.abs_tol)
        dropped = 0.0
        for n in range(n_modes + 1, n_modes + 51):
            term = 4 * mpmath.power(n, nu) * _sigma_oracle(mpmath, 1 - 2 * s, n) * mpmath.sqrt(y)
            dropped += abs(complex(term * mpmath.besselk(nu, 2 * mpmath.pi * n * y)))
        assert dropped < DEFAULT_CONFIG.abs_tol / 10


class TestEpstein:
    def test_square_lattice(self):
        Z2 = Lattice.from_basis([[1, 0], [0, 1]])
        assert abs(epstein_lattice(Z2, 2.0) - E_AT_I_2) < 1e-11

    def test_scaling_homogeneity(self):
        Z2 = Lattice.from_basis([[1, 0], [0, 1]])
        base = epstein_lattice(Z2, 2.0)
        assert abs(epstein_lattice(scale(Z2, 2), 2.0) - base * 2.0**-4) < 1e-14

    def test_hexagonal_minimizes(self):
        Z2 = Lattice.from_basis([[1, 0], [0, 1]])
        hexa = Lattice.from_gram([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
        hex_cov1 = epstein_lattice(hexa, 2.0) * (0.75**0.25) ** 4.0
        assert hex_cov1.real < epstein_lattice(Z2, 2.0).real

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            epstein_lattice(Lattice.from_basis([[2]]), 2.0)

    @pytest.mark.parametrize(
        "L",
        [
            Lattice.from_basis([[Fraction(3, 2), Fraction(1, 3)], [Fraction(-1, 2), Fraction(5, 4)]]),
            Lattice.from_gram([[1, Fraction(1, 2)], [Fraction(1, 2), 1]]),
        ],
        ids=["basis", "gram-only"],
    )
    def test_theta_split_is_twice_the_fourier_route(self, L):
        # Lambda_L from the enumerated vectors of L and its dual, against the
        # Fourier expansion at the Minkowski point; the continuation included
        for s in (3.5, complex(0.7, 0.3), complex(-1.2, 3.0)):
            assert abs(_epstein_split(L, s) - 2.0 * epstein_lattice(L, s)) < 1e-11, s


class TestTruncated:
    def test_below_height_unchanged(self):
        z = UpperHalfPoint(0.1, 1.1)
        assert truncated_eisenstein(z, 2.5, 2.0) == eisenstein_fourier(z, 2.5)

    def test_above_height_no_constant_term(self):
        z = UpperHalfPoint(0.25, 5.0)
        s = 2.5
        a0 = xi_completed(2 * s) * z.y**s + xi_completed(2 - 2 * s) * z.y ** (1 - s)
        assert abs(truncated_eisenstein(z, s, 2.0) - (eisenstein_fourier(z, s) - a0)) < 1e-14

    def test_constant_term_vanishes(self):
        # integral over one period in x is zero above the cut
        nodes, weights = np.polynomial.legendre.leggauss(64)
        xs = 0.5 + 0.5 * nodes
        total = 0.5 * sum(
            w * truncated_eisenstein(UpperHalfPoint(float(x), 3.0), 2.5, 2.0)
            for x, w in zip(xs, weights)
        )
        assert abs(total) < 1e-8


class TestHeightIntegral:
    def test_matches_closed_form_real_s(self):
        g = geo_truncated_integral_numeric(2.0, 1.0)
        c = closed_form_IT(2.0, 1.0)
        assert abs(g - c) < 1e-6
        assert abs(c.real - 0.0140056) < 5e-7

    def test_matches_closed_form_complex_s(self):
        s = complex(1.5, 2.0)
        assert abs(geo_truncated_integral_numeric(s, 3.0) - closed_form_IT(s, 3.0)) < 1e-6

    def test_additivity_between_heights(self):
        g3 = geo_truncated_integral_numeric(2.5, 3.0)
        g2 = geo_truncated_integral_numeric(2.5, 2.0)
        c3 = closed_form_IT(2.5, 3.0)
        c2 = closed_form_IT(2.5, 2.0)
        assert abs((g3 - g2) - (c3 - c2)) < 1e-9

    def test_height_guard(self):
        with pytest.raises(ValueError):
            geo_truncated_integral_numeric(2.0, 0.5)

    def test_work_arrays_stay_small(self):
        # the K-Bessel pass steps over its arguments, so no (points x nodes)
        # array of the 30,720-point rule is held at once; the first call
        # fills the Gauss-Legendre and xi caches, which are not work arrays
        geo_truncated_integral_numeric(complex(1.5, 2.0), 3.0)
        tracemalloc.start()
        try:
            geo_truncated_integral_numeric(complex(1.5, 2.0), 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestClosedForm:
    def test_reference_value(self):
        c = closed_form_IT(2.0, 1.0)
        assert abs(c - (xi_completed(4.0) - xi_completed(3.0) / 2)) < 1e-15

    def test_functional_equation_all_heights(self):
        for s in [complex(0.3, 2.0), 2.0, complex(1.5, 2.0)]:
            for T in [1.0, 2.5]:
                assert abs(closed_form_IT(s, T) - closed_form_IT(1 - s, T)) < 1e-10

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            closed_form_IT(1.0 + 1e-10, 1.0)


class TestGridRows:
    def test_row_schema_and_estimates(self):
        rows = eq4_grid_rows([(2.0, 1.0), (complex(1.5, 2.0), 1.5)])
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {
                "s_re",
                "s_im",
                "T",
                "value_re",
                "value_im",
                "abs_err_estimate",
            }
            assert row["abs_err_estimate"] < 1e-10
        assert abs(rows[0]["value_re"] - closed_form_IT(2.0, 1.0).real) < 1e-9

    @pytest.mark.parametrize("T", [1.0, 3.0, 10.0, 50.0])
    def test_estimate_covers_error_at_large_heights(self, T):
        # y-panels with doubling edges keep the order-32 rule accurate at
        # T = 50, where one panel on [1, T] is 5e-7 off
        points = [(s, T) for s in (2.0, 2.5, complex(1.5, 2.0), complex(0.7, 3.0))]
        for (s, _), row in zip(points, eq4_grid_rows(points)):
            value = complex(row["value_re"], row["value_im"])
            assert abs(value - closed_form_IT(s, T)) <= row["abs_err_estimate"] + 1e-13
            assert row["abs_err_estimate"] < 1e-10

    @pytest.mark.parametrize("s, T", [(3.0, 200.0), (2.5, 1000.0)])
    def test_estimate_is_relative_where_I_T_is_large(self, s, T):
        # |I_T| ~ 1.3e3 and 1.7e3: rounding alone exceeds an absolute abs_tol/10
        exact = closed_form_IT(s, T)
        (row,) = eq4_grid_rows([(s, T)])
        value = complex(row["value_re"], row["value_im"])
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))
        assert row["abs_err_estimate"] <= 1e-13 * max(1.0, abs(value))
