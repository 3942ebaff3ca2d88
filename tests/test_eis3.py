"""Tests for the rank-3 Eisenstein machinery.

The constant-term comparisons check the Weyl-orbit expressions against
unipotent averages of the coset sum.  The maximal-parabolic expressions are
also checked exactly: their rank-2 constant terms must reproduce the
six-term orbit sum, which needs no quadrature.  The orbit sum itself is
checked for invariance under the five substitutions at random points.
"""

import json
import math
import random
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from latzeta.eis3 import (
    _FE_SUBSTITUTIONS,
    _ROOTS,
    _affine,
    _coset_table,
    _fe_image,
    _recompose,
    _weyl_orbit,
    SL3Point,
    apply_gl3,
    completion_factor,
    constant_term_numeric,
    constant_term_p0_formula,
    constant_term_pi_formula,
    coords,
    fe_adjudicate,
    region_membership,
    sl3_completed,
    sl3_eisenstein_direct,
)
from latzeta import eis2, eis3
from latzeta.errors import ConvergenceRegion, EnumerationOverflow, PoleProximity
from latzeta.numerics import NumericsConfig

BIG = NumericsConfig(vector_budget=200_000_000)
DATA = Path(__file__).parent / "data"

IDENTITY = SL3Point(1.0, 1.0, 0.0, 0.0, 0.0)

_UNIT = st.floats(-1.0, 1.0)
POINTS = st.builds(
    lambda a, b, x1, x2, x3: SL3Point(math.exp(a), math.exp(b), x1, x2, x3),
    _UNIT, _UNIT, _UNIT, _UNIT, _UNIT,
)
PARAMS = st.builds(complex, st.floats(-1.0, 3.0), st.floats(-2.0, 2.0))


def rand_point(rng, spread=0.5):
    return SL3Point(
        math.exp(rng.uniform(-spread, spread)),
        math.exp(rng.uniform(-spread, spread)),
        rng.uniform(-spread, spread),
        rng.uniform(-spread, spread),
        rng.uniform(-spread, spread),
    )


def rand_gamma(rng):
    g = np.eye(3, dtype=int)
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        e = np.eye(3, dtype=int)
        e[i, j] = rng.randint(-2, 2)
        g = g @ e
    return g


def _close(a, b, rel):
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)
    return a == b


def lock_anchor(name, payload, rel=1e-9):
    """Later runs must reproduce the anchor; a missing one is written and fails."""
    path = DATA / name
    if not path.exists():
        DATA.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        pytest.fail(f"regression anchor {name} was missing and has been created")
    stored = json.loads(path.read_text())
    assert _close(stored, payload, rel), f"regression anchor {name} drifted"


class TestSL3Point:
    def test_matrix_shape(self):
        y = SL3Point(2.0, 0.5, 0.1, -0.2, 0.3)
        r = y.matrix()
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert r[1, 0] == r[2, 0] == r[2, 1] == 0.0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            SL3Point(-1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SL3Point(1.0, 0.0, 0.0, 0.0, 0.0)

    def test_json_round_trip(self):
        y = SL3Point(1.5, 0.75, 0.25, -0.5, 1.0)
        assert SL3Point.from_json(y.to_json()) == y

    def test_json_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            SL3Point.from_json({"y1": 1.0})
        with pytest.raises(ValueError):
            SL3Point.from_json([1, 2, 3])


class TestCoords:
    def test_identity_both_indices(self):
        for i in (1, 2):
            c = coords(IDENTITY, i)
            assert c.y == 1.0
            assert c.z.x == 0.0 and c.z.y == 1.0
            assert c.x == 0.0 and c.t == 0.0

    def test_round_trip_100_points(self):
        rng = random.Random(7)
        for _ in range(100):
            y = rand_point(rng, spread=1.0)
            for i in (1, 2):
                resid = np.max(np.abs(_recompose(coords(y, i)) - y.matrix()))
                assert resid < 1e-12

    def test_diagonal_blocks(self):
        y = SL3Point(2.0, 0.5, 0.0, 0.0, 0.0)
        c1 = coords(y, 1)
        assert abs(c1.z.y - 4.0) < 1e-14  # u = y1/y2
        assert abs(c1.y - 1.0) < 1e-14  # (y1 y2)^3
        assert c1.z.x == c1.x == c1.t == 0.0
        c2 = coords(y, 2)
        assert abs(c2.y - 2.0**-3) < 1e-14
        assert abs(c2.z.y - 0.5) < 1e-14  # y2^2 y1

    def test_bad_index(self):
        with pytest.raises(ValueError):
            coords(IDENTITY, 3)


class TestDirect:
    def test_coset_term_matches_block_coordinates(self):
        # each coset's contribution is a power of the transformed block
        # coordinates; cross-check against acting and re-reading them
        rng = random.Random(3)
        for _ in range(20):
            y = rand_point(rng)
            g = rand_gamma(rng)
            r = y.matrix()
            w_form = r @ r.T
            v = g[2].astype(float)
            w = np.cross(g[1], g[2]).astype(float)
            n1 = v @ w_form @ v
            n2 = w @ np.linalg.inv(w_form) @ w
            c = coords(apply_gl3(g, y), 1)
            assert abs(c.y - n1**-1.5) < 1e-10 * c.y
            assert abs(c.z.y - math.sqrt(n1) / n2) < 1e-10 * c.z.y

    def test_partial_sums_monotone(self):
        vals = [
            complex(sl3_eisenstein_direct(IDENTITY, 3.0, 2.0, h, BIG)).real
            for h in (4, 8, 12, 16)
        ]
        assert vals == sorted(vals)
        assert vals[0] > 6.0  # six unit flags already contribute 1 each

    def test_estimate_and_pairs_reported(self):
        v = sl3_eisenstein_direct(IDENTITY, 3.0, 2.0, 8, BIG)
        assert v.estimate >= 0.0
        assert v.pairs > 10_000

    def test_invariance_10_random(self):
        rng = random.Random(11)
        for _ in range(10):
            y = rand_point(rng)
            g = rand_gamma(rng)
            a = sl3_eisenstein_direct(y, 3.0, 2.0, 20, BIG)
            b = sl3_eisenstein_direct(apply_gl3(g, y), 3.0, 2.0, 20, BIG)
            assert abs(complex(a) - complex(b)) <= 2.0 * max(a.estimate, b.estimate)

    def test_convergence_region(self):
        with pytest.raises(ConvergenceRegion):
            sl3_eisenstein_direct(IDENTITY, 1.0, 2.0, 8, BIG)
        with pytest.raises(ConvergenceRegion):
            sl3_eisenstein_direct(IDENTITY, 3.0, 1.05, 8, BIG)

    def test_budget_overflow(self):
        with pytest.raises(EnumerationOverflow):
            sl3_eisenstein_direct(
                IDENTITY, 3.0, 2.0, 16, NumericsConfig(vector_budget=10)
            )

    def test_bad_height(self):
        with pytest.raises(ValueError):
            sl3_eisenstein_direct(IDENTITY, 3.0, 2.0, 0, BIG)

    def test_completed_is_exact_scaling(self):
        raw = sl3_eisenstein_direct(IDENTITY, 3.0, 2.0, 12, BIG)
        comp = sl3_completed(IDENTITY, 3.0, 2.0, 12, BIG)
        factor = completion_factor(3.0, 2.0)
        assert complex(comp) == factor * complex(raw)
        assert comp.estimate == abs(factor) * raw.estimate
        assert complex(comp).real > 0.0

    def test_every_table_is_cached(self, monkeypatch):
        # the cache cap is below the bytes of the height-6 table alone
        monkeypatch.setattr(eis3, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(eis3, "_CACHE_BYTE_CAP", 1_000)
        _coset_table(4, BIG)
        first = _coset_table(6, BIG)
        second = _coset_table(6, BIG)
        assert len(first.w) == 11_004
        assert eis3._nbytes(first) > eis3._CACHE_BYTE_CAP
        assert all(a is b for a, b in zip(first, second))
        # the older table is evicted, the newest one stays
        assert list(eis3._TABLE_CACHE) == [6]

    def test_pairs_count_pairs_not_blocks(self):
        v = sl3_eisenstein_direct(IDENTITY, 3.0, 2.0, 6, BIG)
        assert v.pairs == 11_004
        assert len(_coset_table(6, BIG).v) == 865

    def test_default_budget_stops_height_60_uncached(self, monkeypatch):
        monkeypatch.setattr(eis3, "_TABLE_CACHE", OrderedDict())
        with pytest.raises(EnumerationOverflow):
            _coset_table(60, NumericsConfig())
        assert 60 not in eis3._TABLE_CACHE

    def test_tiny_budget_at_height_200(self, monkeypatch):
        # entries up to +-200 need int16; the budget stops the build first
        monkeypatch.setattr(eis3, "_TABLE_CACHE", OrderedDict())
        with pytest.raises(EnumerationOverflow):
            _coset_table(200, NumericsConfig(vector_budget=1_000))
        assert 200 not in eis3._TABLE_CACHE
        assert eis3._entry_dtype(127) == np.int8
        assert eis3._entry_dtype(128) == np.int16
        assert eis3._entry_dtype(200) == np.int16

    def test_heights_30_vs_60_stable(self):
        a = complex(sl3_eisenstein_direct(IDENTITY, 3.0, 2.0, 30, BIG))
        b = complex(sl3_eisenstein_direct(IDENTITY, 3.0, 2.0, 60, BIG))
        assert abs(a - b) / abs(b) < 1e-3


def _pair_rows(table):
    """The CSR table expanded to one (v, w) row pair per term."""
    sizes = np.diff(np.append(table.starts, len(table.w)))
    assert np.all(sizes > 0)
    return np.repeat(table.v, sizes, axis=0), table.w


class TestCosetTable:
    @pytest.mark.parametrize("height", range(1, 9))
    def test_pairs_match_bruteforce(self, height):
        table = _coset_table(height, BIG)
        v, w = _pair_rows(table)
        got = {
            (tuple(a), tuple(b), h)
            for a, b, h in zip(v.tolist(), w.tolist(), table.heights.tolist())
        }
        assert len(got) == len(w)
        assert len(np.unique(table.v, axis=0)) == len(table.v)
        assert got == oracles.coset_pairs_bruteforce(height)

    @pytest.mark.parametrize("chunk", [4096, eis3._SUM_CHUNK])
    @pytest.mark.parametrize(
        "y", [IDENTITY, SL3Point(1.3, 0.8, 0.21, -0.35, 0.4)], ids=["identity", "generic"]
    )
    @pytest.mark.parametrize("s, t", [(3.0, 2.0), (2.2 + 0.5j, 1.7 - 0.3j)])
    def test_table_sums_match_per_pair_sum(self, monkeypatch, chunk, y, s, t):
        monkeypatch.setattr(eis3, "_SUM_CHUNK", chunk)
        table = _coset_table(8, BIG)
        r = y.matrix()
        w_form = r @ r.T
        w_inv = np.linalg.inv(w_form)
        v, w = (a.astype(float) for a in _pair_rows(table))
        n1 = np.einsum("ij,jk,ik->i", v, w_form, v).astype(complex)
        n2 = np.einsum("ij,jk,ik->i", w, w_inv, w).astype(complex)
        terms = n1 ** (0.5 * (t - 3.0 * s)) * n2 ** (-t)
        full, half = eis3._table_sums(table, w_form, w_inv, complex(s), complex(t), 4)
        assert abs(full - terms.sum()) <= 1e-13 * abs(terms.sum())
        expected = terms[table.heights <= 4].sum()
        assert abs(half - expected) <= 1e-13 * abs(expected)
        assert eis3._table_sums(table, w_form, w_inv, complex(s), complex(t), 0)[1] == 0


class TestConstantTerms:
    def test_formulas_finite_at_3_2(self):
        p0 = constant_term_p0_formula(IDENTITY, 3.0, 2.0, BIG)
        p1 = constant_term_pi_formula(IDENTITY, 3.0, 2.0, 1, BIG)
        p2 = constant_term_pi_formula(IDENTITY, 3.0, 2.0, 2, BIG)
        assert p0.real > 0.0 and math.isfinite(p0.real)
        # the identity has the same block coordinates for both indices, but
        # the two constant terms are different functions of them
        c1, c2 = coords(IDENTITY, 1), coords(IDENTITY, 2)
        assert (c1.y, c1.z) == (c2.y, c2.z)
        for p in (p1, p2):
            assert math.isfinite(abs(p)) and p.real > 0.0

    def test_pi_formula_inherits_rank2_guards(self):
        with pytest.raises(PoleProximity):
            constant_term_pi_formula(IDENTITY, 3.0, 0.5, 1, BIG)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize(
        "y", [IDENTITY, SL3Point(1.3, 0.8, 0.21, -0.35, 0.4)], ids=["identity", "generic"]
    )
    @pytest.mark.parametrize(
        "s, t", [(3.0, 2.0), (1.4, 0.6 + 0.2j), (2.2 + 0.5j, 1.7 - 0.3j)]
    )
    def test_pi_formula_constant_term_is_orbit_sum(self, monkeypatch, i, y, s, t):
        # constant terms in stages: replacing each rank-2 series by its own
        # constant term must give the six-term minimal-parabolic constant term
        monkeypatch.setattr(
            eis2, "eisenstein_fourier", lambda z, tau, config: eis2._a0(z.y, tau, config)
        )
        staged = constant_term_pi_formula(y, s, t, i, BIG)
        orbit = constant_term_p0_formula(y, s, t, BIG)
        assert abs(staged - orbit) <= 1e-12 * abs(orbit)

    def test_numeric_average_matches_orbit_reference_p1(self):
        xiprod = completion_factor(3.0, 2.0)
        numeric = xiprod * constant_term_numeric(IDENTITY, 3.0, 2.0, "P1", 16, BIG)
        orbit = constant_term_pi_formula(IDENTITY, 3.0, 2.0, 1, BIG)
        assert abs(numeric - orbit) / abs(orbit) < 5e-3

    def test_numeric_average_matches_orbit_reference_generic_point(self):
        y = SL3Point(1.3, 0.8, 0.21, -0.35, 0.4)
        xiprod = completion_factor(3.0, 2.0)
        numeric = xiprod * constant_term_numeric(y, 3.0, 2.0, "P1", 16, BIG)
        orbit = constant_term_pi_formula(y, 3.0, 2.0, 1, BIG)
        assert abs(numeric - orbit) / abs(orbit) < 5e-3

    def test_numeric_average_matches_orbit_reference_generic_point_p2(self):
        y = SL3Point(1.3, 0.8, 0.21, -0.35, 0.4)
        xiprod = completion_factor(3.0, 2.0)
        numeric = xiprod * constant_term_numeric(y, 3.0, 2.0, "P2", 16, BIG)
        orbit = constant_term_pi_formula(y, 3.0, 2.0, 2, BIG)
        assert abs(numeric - orbit) / abs(orbit) < 5e-3

    def test_p0_average_approaches_orbit_reference(self):
        xiprod = completion_factor(3.0, 2.0)
        orbit = constant_term_p0_formula(IDENTITY, 3.0, 2.0, BIG)
        devs = []
        for h in (8, 12):
            numeric = xiprod * constant_term_numeric(IDENTITY, 3.0, 2.0, "P0", h, BIG)
            devs.append(abs(numeric - orbit) / abs(orbit))
        assert devs[1] < devs[0] < 2e-2
        assert devs[1] < 5e-3

    def test_p1_formula_deviation_locked(self):
        # the three-product expression is the orbit reconstruction, so the
        # anchor's formula and orbit fields agree
        xiprod = completion_factor(3.0, 2.0)
        numeric = xiprod * constant_term_numeric(IDENTITY, 3.0, 2.0, "P1", 16, BIG)
        formula = constant_term_pi_formula(IDENTITY, 3.0, 2.0, 1, BIG)
        orbit = formula
        payload = {
            "s": 3.0,
            "t": 2.0,
            "height": 16,
            "numeric_completed": [numeric.real, numeric.imag],
            "formula": [formula.real, formula.imag],
            "formula_rel_dev": abs(numeric - formula) / abs(formula),
            "orbit": [orbit.real, orbit.imag],
            "orbit_rel_dev": abs(numeric - orbit) / abs(orbit),
        }
        lock_anchor("sl3_p1_anchor.json", payload)
        assert payload["formula_rel_dev"] < 5e-3
        assert payload["orbit_rel_dev"] < 5e-3

    def test_p0_formula_deviation_locked(self):
        xiprod = completion_factor(3.0, 2.0)
        numeric = xiprod * constant_term_numeric(IDENTITY, 3.0, 2.0, "P0", 12, BIG)
        # the minimal-parabolic expression is the orbit sum, so the anchor's
        # formula and orbit fields agree
        formula = constant_term_p0_formula(IDENTITY, 3.0, 2.0, BIG)
        orbit = formula
        payload = {
            "s": 3.0,
            "t": 2.0,
            "height": 12,
            "numeric_completed": [numeric.real, numeric.imag],
            "formula": [formula.real, formula.imag],
            "formula_rel_dev": abs(numeric - formula) / abs(formula),
            "orbit": [orbit.real, orbit.imag],
            "orbit_rel_dev": abs(numeric - orbit) / abs(orbit),
        }
        lock_anchor("sl3_p0_anchor.json", payload)
        assert payload["formula_rel_dev"] < 5e-3
        assert payload["orbit_rel_dev"] < 5e-3

    def test_numeric_rejects_bad_parabolic(self):
        with pytest.raises(ValueError):
            constant_term_numeric(IDENTITY, 3.0, 2.0, "P3", 8, BIG)


class TestSubstitutions:
    def test_six_maps_close_into_a_group(self):
        ident = (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        maps = {ident} | {c for _, c in _FE_SUBSTITUTIONS}

        def compose(m2, m1):
            a1, b1, c1, d1, e1, f1 = m1
            a2, b2, c2, d2, e2, f2 = m2
            return (
                a2 * a1 + b2 * d1,
                a2 * b1 + b2 * e1,
                a2 * c1 + b2 * f1 + c2,
                d2 * a1 + e2 * d1,
                d2 * b1 + e2 * e1,
                d2 * c1 + e2 * f1 + f2,
            )

        assert len(maps) == 6
        for m1 in maps:
            for m2 in maps:
                assert compose(m2, m1) in maps

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(y=POINTS, s=PARAMS, t=PARAMS)
    def test_orbit_sum_satisfies_all_five_equations(self, y, s, t):
        orbit = list(_weyl_orbit(s, t).values())
        roots = [_affine(form, si, ti) for si, ti in orbit for form in _ROOTS]
        assume(min(min(abs(r), abs(r - 1.0)) for r in roots) > 0.05)
        base = constant_term_p0_formula(y, s, t, BIG)
        for _, coeffs in _FE_SUBSTITUTIONS:
            si, ti = _fe_image(coeffs, s, t)
            # the image's own orbit is the orbit again: the maps form a group
            for sj, tj in _weyl_orbit(si, ti).values():
                assert min(abs(sj - sk) + abs(tj - tk) for sk, tk in orbit) < 1e-12
            image = constant_term_p0_formula(y, si, ti, BIG)
            assert abs(image - base) <= 1e-12 * abs(base)


class TestFEAdjudicate:
    def test_report_has_five_equations(self):
        rep = fe_adjudicate(1.4, 0.6 + 0.2j, IDENTITY, BIG)
        assert [e["name"] for e in rep["equations"]] == ["i", "ii", "iii", "iv", "v"]
        for e in rep["equations"]:
            assert set(e) == {"name", "s_image", "t_image", "value", "abs_deviation", "error"}

    def test_involution_of_first_substitution(self):
        coeffs = dict(_FE_SUBSTITUTIONS)["i"]
        s, t = 1.4, 0.6 + 0.2j
        si, ti = _fe_image(coeffs, s, t)
        sii, tii = _fe_image(coeffs, si, ti)
        assert (sii, tii) == (s, t)
        a = constant_term_p0_formula(IDENTITY, s, t, BIG)
        b = constant_term_p0_formula(IDENTITY, sii, tii, BIG)
        assert a == b

    def test_deterministic(self):
        a = fe_adjudicate(1.4, 0.6 + 0.2j, IDENTITY, BIG)
        b = fe_adjudicate(1.4, 0.6 + 0.2j, IDENTITY, BIG)
        assert a == b

    def test_anchor_locked(self):
        rep = fe_adjudicate(1.4, 0.6 + 0.2j, IDENTITY, BIG)
        lock_anchor("sl3_fe_anchor.json", rep)
        base = abs(complex(*rep["base_value"]))
        assert all(e["abs_deviation"] < 1e-12 * base for e in rep["equations"])


class TestRegions:
    def test_identity_on_the_strict_boundary(self):
        assert region_membership(IDENTITY, "F_N0")
        assert not region_membership(IDENTITY, "F_0")

    def test_constructed_member_of_f1_and_f2(self):
        y = SL3Point(1.2, 1.0, 0.05, 0.03, 0.05)
        for region in ("F_N0", "F_0", "F_1", "F_2"):
            assert region_membership(y, region)

    def test_nonmember(self):
        y = SL3Point(1.0, 1.0, 0.9, 0.0, 0.0)  # v out of the unit box
        assert not region_membership(y, "F_N0")
        assert not region_membership(y, "F_0")

    def test_bad_region_name(self):
        with pytest.raises(ValueError):
            region_membership(IDENTITY, "F_3")

    def test_truncation_indicator_identity(self):
        # 1_{F minus cusp neighborhoods} = 1_F - 1_{D1} - 1_{D2} + 1_{D0}
        # pointwise, with D_j = {member and y_j >= T}
        rng = random.Random(23)
        T = 1.2
        members = 0
        cusps = 0
        samples = [rand_point(rng, spread=0.7) for _ in range(150)]
        # biased draws with small positive shears land in the domain often
        # and reach the y1 >= T neighborhood
        for _ in range(150):
            samples.append(
                SL3Point(
                    math.exp(rng.uniform(0.0, 0.6)),
                    math.exp(rng.uniform(-0.3, 0.2)),
                    rng.uniform(0.005, 0.1),
                    rng.uniform(0.005, 0.1),
                    rng.uniform(0.005, 0.1),
                )
            )
        for y in samples:
            in_f = region_membership(y, "F_1") and region_membership(y, "F_2")
            y1 = coords(y, 1).y
            y2 = coords(y, 2).y
            d1 = in_f and y1 >= T
            d2 = in_f and y2 >= T
            d0 = d1 and d2
            val = int(in_f) - int(d1) - int(d2) + int(d0)
            assert val in (0, 1)
            assert val == int(in_f and not d1 and not d2)
            members += in_f
            cusps += d1 or d2
        assert members > 40
        assert members < len(samples)
        assert cusps > 0
