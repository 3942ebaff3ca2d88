"""Acceptance-check runner: twelve named suites emitting uniform reports.

Each suite returns {"suite": name, "checks": [row, ...]} with rows from
jsonio.check_entry, ordered deterministically (fixed seeds, fixed grids).
Discrete checks are encoded as 1.0-vs-1.0 rows with tol 0 so every suite
shares one schema.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .eis2 import (
    UpperHalfPoint,
    closed_form_IT,
    eisenstein_direct,
    eisenstein_fourier,
    geo_truncated_integral_numeric,
    truncated_eisenstein,
)
from .eis3 import (
    SL3Point,
    _recompose,
    apply_gl3,
    completion_factor,
    constant_term_numeric,
    constant_term_p0_formula,
    constant_term_pi_formula,
    coords,
    sl3_eisenstein_direct,
)
from .errors import SingularBasis
from .jsonio import check_entry
from .lattice import Lattice, degree, riemann_roch
from .numerics import DEFAULT_CONFIG, NumericsConfig, _gl_panels, xi_completed
from .stability import (
    Flag,
    Polygon,
    arthur_correspondence_rank2,
    canonical_filtration,
    canonical_polygon,
    flag_polygon,
    parabolic_sum_indicator_rank2,
    truncation_indicator,
)
from .stability import _sub_degree  # quotient slopes need exact sub-degrees
from .tannaka import decompose, fusion_table, par_degree, s3_library, tensor
from .zeta import residue_at, volume_d_T, zeta_rank1_numeric, zeta_rank2

__all__ = ["SUITES", "run_suite", "run_suites", "report_passes"]

RES_ONE = math.pi / 6.0 - 0.5


def _random_lattice(rng, rank, span=3, denominators=(1, 2, 3)):
    while True:
        rows = [
            [
                Fraction(rng.randint(-span, span), rng.choice(denominators))
                for _ in range(rank)
            ]
            for _ in range(rank)
        ]
        try:
            return Lattice.from_basis(rows)
        except SingularBasis:
            continue


def _random_unimodular(rank, rng, ops=12):
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(ops):
        i = rng.randrange(rank)
        j = (i + 1 + rng.randrange(rank - 1)) % rank
        c = rng.randint(-2, 2)
        for k in range(rank):
            u[i][k] += c * u[j][k]
    return u


def _random_flag(rank, rng):
    u = _random_unimodular(rank, rng)
    ks = sorted(rng.sample(range(1, rank), rng.randint(0, rank - 1))) + [rank]
    return Flag(tuple(tuple(tuple(row) for row in u[:k]) for k in ks))


def _suite_rr(config):
    rng = random.Random(101)
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    for i in range(200):
        rank = 1 + i % 3
        rep = riemann_roch(_random_lattice(rng, rank), config)
        worst[rank] = max(worst[rank], abs(rep.rr_defect))
    return [
        check_entry(
            f"rr_defect_rank{r}", worst[r], 0.0, 1e-9,
            notes=f"max |h0 - h1 - deg| over {200 // 3 + (r <= 200 % 3)} lattices",
        )
        for r in (1, 2, 3)
    ]


def _suite_zeta1(config):
    return [
        check_entry(
            f"rank1_vs_xi_s={s}",
            zeta_rank1_numeric(s, config),
            xi_completed(s, config),
            1e-6,
        )
        for s in (2.0, 3.0, 2.0 + 1.0j)
    ]


def _suite_eq4(config):
    rows = []
    for s in (1.5, 2.0, 2.5, 1.5 + 2.0j):
        for T in (1.0, 1.5, 3.0):
            rows.append(
                check_entry(
                    f"eq4_s={s}_T={T}",
                    geo_truncated_integral_numeric(s, T, config),
                    closed_form_IT(s, T, config),
                    1e-6,
                )
            )
    return rows


def _suite_fe2(config):
    rows = []
    for sigma in (-0.8, -0.3, 0.2, 0.7, 1.2):
        for tau in (0.3, 0.9, 1.7, 2.6):
            s = complex(sigma, tau)
            rows.append(
                check_entry(
                    f"fe2_s={s}",
                    zeta_rank2(s, config),
                    zeta_rank2(1.0 - s, config),
                    1e-10,
                )
            )
    return rows


def _suite_residues(config):
    r1 = residue_at(zeta_rank2, 1.0, config)
    r0 = residue_at(zeta_rank2, 0.0, config)
    area = volume_d_T(1.0)
    return [
        check_entry(
            "residue_at_1", r1, RES_ONE, 1e-6,
            notes="residues at 1 and 0 are negatives of each other, not equal; "
            "the area ratio below pins the sign convention",
        ),
        check_entry("residue_at_0", r0, -RES_ONE, 1e-6),
        check_entry(
            "residue_over_area", r1.real / area, 0.5, 1e-6,
            notes="area of the height-cut region at T=1 is pi/3 - 1",
        ),
    ]


def _suite_fourier(config):
    z = UpperHalfPoint(0.28, 1.31)
    rows = []
    for k in range(10):
        s = complex(2.0 + 2.0 * k / 9.0, 0.3 if k % 2 else 0.0)
        rows.append(
            check_entry(
                f"fourier_vs_direct_s={s}",
                eisenstein_fourier(z, s, config),
                complex(eisenstein_direct(z, s, config)),
                1e-8,
            )
        )
    return rows


def _suite_truncation(config):
    xs, ws = _gl_panels((0.0, 1.0), 32)
    T = 1.3
    rows = []
    for s in (2.0, 2.5 + 0.7j):
        for y in (1.5, 2.2):
            integral = sum(
                w * truncated_eisenstein(UpperHalfPoint(float(x), y), s, T, config)
                for x, w in zip(xs, ws)
            )
            rows.append(
                check_entry(
                    f"truncated_constant_term_s={s}_y={y}", integral, 0.0, 1e-8,
                    notes="x-average above the cut height must vanish",
                )
            )
    return rows


def _suite_hn(config):
    rng = random.Random(211)
    convex_bad = 0
    dominate_bad = 0
    slopes_bad = 0
    samples = [(2, 50), (3, 50), (4, 20)]
    for rank, count in samples:
        for _ in range(count):
            L = _random_lattice(rng, rank, denominators=(1,))
            cp = canonical_polygon(L, config)
            for k in range(1, rank):
                if cp.values[k + 1] - 2.0 * cp.values[k] + cp.values[k - 1] > 1e-12:
                    convex_bad += 1
            f = canonical_filtration(L, config)
            degs = [0.0] + [_sub_degree(L, step) for step in f.steps]
            ranks = [0] + [len(step) for step in f.steps]
            mus = [
                (degs[i + 1] - degs[i]) / (ranks[i + 1] - ranks[i])
                for i in range(len(f.steps))
            ]
            slopes_bad += sum(1 for a, b in zip(mus, mus[1:]) if a <= b + 1e-12)
            for _ in range(50):
                fp = flag_polygon(L, _random_flag(rank, rng), config)
                if any(a > b + 1e-9 for a, b in zip(fp.values, cp.values)):
                    dominate_bad += 1
    total = sum(c for _, c in samples)
    return [
        check_entry("hn_concavity_violations", float(convex_bad), 0.0, 0.0,
                    notes=f"{total} lattices"),
        check_entry("hn_domination_violations", float(dominate_bad), 0.0, 0.0,
                    notes=f"{total * 50} flag polygons"),
        check_entry("hn_slope_monotonicity_violations", float(slopes_bad), 0.0, 0.0),
    ]


def _suite_indicator(config):
    rng = random.Random(307)
    mismatches = 0
    out_of_range = 0
    for _ in range(300):
        L = _random_lattice(rng, 2)
        p = Polygon(2, (0.0, rng.uniform(0.0, 1.0), 0.0))
        a = truncation_indicator(L, p, config)
        b = parabolic_sum_indicator_rank2(L, p, config)
        if a != b:
            mismatches += 1
        if b not in (0, 1):
            out_of_range += 1
    return [
        check_entry("indicator_mismatches", float(mismatches), 0.0, 0.0,
                    notes="300 (lattice, polygon) pairs"),
        check_entry("destabilizing_line_count_out_of_range", float(out_of_range), 0.0, 0.0),
    ]


def _suite_arthur(config):
    rng = random.Random(401)
    mismatches = 0
    for _ in range(200):
        L = _random_lattice(rng, 2)
        T = math.exp(rng.uniform(0.0, 2.0))
        a, b = arthur_correspondence_rank2(L, T, config)
        if a != b:
            mismatches += 1
    return [
        check_entry("arthur_side_mismatches", float(mismatches), 0.0, 0.0,
                    notes="200 samples, thresholds in [1, e^2]"),
    ]


def _suite_sl3(config, height=40, invariance_height=20, p0_height=12):
    # the height-40 coset table holds 15.9M pairs; lift a default budget
    config = replace(config, vector_budget=max(config.vector_budget, 20_000_000))
    rows = []
    rng = random.Random(59)
    worst = 0.0
    for _ in range(100):
        y = SL3Point(
            math.exp(rng.uniform(-1.0, 1.0)),
            math.exp(rng.uniform(-1.0, 1.0)),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
        )
        for i in (1, 2):
            worst = max(worst, float(np.max(np.abs(_recompose(coords(y, i)) - y.matrix()))))
    rows.append(check_entry("sl3_coords_round_trip", worst, 0.0, 1e-12,
                            notes="100 points, both parabolic indices"))

    for k in range(3):
        y = SL3Point(
            math.exp(rng.uniform(-0.5, 0.5)),
            math.exp(rng.uniform(-0.5, 0.5)),
            rng.uniform(-0.5, 0.5),
            rng.uniform(-0.5, 0.5),
            rng.uniform(-0.5, 0.5),
        )
        g = np.eye(3, dtype=int)
        for _ in range(3):
            i, j = rng.sample(range(3), 2)
            e = np.eye(3, dtype=int)
            e[i, j] = rng.randint(-2, 2)
            g = g @ e
        a = sl3_eisenstein_direct(y, 3.0, 2.0, invariance_height, config)
        b = sl3_eisenstein_direct(apply_gl3(g, y), 3.0, 2.0, invariance_height, config)
        rows.append(
            check_entry(
                f"sl3_invariance_{k}", complex(a), complex(b),
                2.0 * max(a.estimate, b.estimate),
                notes="tolerance is twice the larger convergence estimate",
            )
        )

    identity = SL3Point(1.0, 1.0, 0.0, 0.0, 0.0)
    xiprod = completion_factor(3.0, 2.0, config)
    numeric_p1 = xiprod * constant_term_numeric(identity, 3.0, 2.0, "P1", height, config)
    formula_p1 = constant_term_pi_formula(identity, 3.0, 2.0, 1, config)
    rows.append(
        check_entry(
            "sl3_p1_three_product_vs_average", formula_p1, numeric_p1,
            1e-2 * abs(numeric_p1),
            notes="the three products pair the six orbit terms through the "
            "rank-2 constant term; test_pi_formula_constant_term_is_orbit_sum "
            "checks that pairing exactly, with no quadrature, so the formula "
            "and this average are independent routes",
        )
    )

    numeric_p0 = xiprod * constant_term_numeric(identity, 3.0, 2.0, "P0", p0_height, config)
    formula_p0 = constant_term_p0_formula(identity, 3.0, 2.0, config)
    rows.append(
        check_entry(
            "sl3_p0_orbit_sum_vs_average", formula_p0, numeric_p0,
            1e-2 * abs(numeric_p0),
            notes="the six-term Weyl-orbit sum against the P0 unipotent "
            f"average at height {p0_height}",
        )
    )
    return rows


def _suite_tannaka(config):
    lib = s3_library()
    identities = [
        ("s11_x_s12", "s11", "s12", ("s12",)),
        ("s11_x_s21", "s11", "s21", ("s21",)),
        ("s12_x_s12", "s12", "s12", ("s11",)),
        ("s12_x_s21", "s12", "s21", ("s21",)),
        ("s21_x_s21", "s21", "s21", ("s11", "s12", "s21")),
    ]
    rows = []
    for label, a, b, want in identities:
        got = decompose(tensor(lib[a], lib[b]), lib)
        rows.append(
            check_entry(
                f"tensor_identity_{label}", float(got == want), 1.0, 0.0,
                notes=f"decomposed to {list(got)}",
            )
        )
    table = fusion_table(lib)
    s3_table = {
        ("s11", "s11"): ("s11",),
        ("s11", "s12"): ("s12",),
        ("s11", "s21"): ("s21",),
        ("s12", "s11"): ("s12",),
        ("s12", "s12"): ("s11",),
        ("s12", "s21"): ("s21",),
        ("s21", "s11"): ("s21",),
        ("s21", "s12"): ("s21",),
        ("s21", "s21"): ("s11", "s12", "s21"),
    }
    rows.append(
        check_entry(
            "fusion_table_matches_character_ring", float(table == s3_table), 1.0, 0.0,
            notes="ranks (1, 1, 2); order-6 symmetric group",
        )
    )
    worst = max(
        abs(par_degree(tensor(a, b))) for a in lib.values() for b in lib.values()
    )
    rows.append(
        check_entry("par_degree_conservation", float(worst), 0.0, 0.0,
                    notes="exact rational arithmetic, all nine products"),
    )
    return rows


SUITES = {
    "rr": _suite_rr,
    "zeta1": _suite_zeta1,
    "eq4": _suite_eq4,
    "fe2": _suite_fe2,
    "residues": _suite_residues,
    "fourier": _suite_fourier,
    "truncation": _suite_truncation,
    "hn": _suite_hn,
    "indicator": _suite_indicator,
    "arthur": _suite_arthur,
    "sl3": _suite_sl3,
    "tannaka": _suite_tannaka,
}


def run_suite(name: str, config: NumericsConfig = DEFAULT_CONFIG, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return {"suite": name, "checks": SUITES[name](config, **kwargs)}


def run_suites(names, config: NumericsConfig = DEFAULT_CONFIG) -> list[dict]:
    return [run_suite(name, config) for name in names]


def report_passes(report: dict) -> bool:
    return all(row["pass"] for row in report["checks"])
