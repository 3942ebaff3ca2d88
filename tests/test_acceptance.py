"""The twelve acceptance checks, each at its stated tolerance and budget.

Every check runs through the verify suites so the command line, the
report schema, and this file exercise one code path.  Criterion 11's
three-product constant-term clause is asserted on its own at its stated
tolerance; the expression it compares is tied exactly to the six-term
orbit sum by a quadrature-free unit test, so the numeric average is an
independent check of it.
"""

import time

import pytest

from latzeta.verify import run_suite

_REPORTS: dict[str, tuple[dict, float]] = {}


def timed_suite(name: str) -> tuple[dict, float]:
    if name not in _REPORTS:
        t0 = time.monotonic()
        rep = run_suite(name)
        _REPORTS[name] = (rep, time.monotonic() - t0)
    return _REPORTS[name]


def assert_rows(rep: dict, names=None) -> None:
    for row in rep["checks"]:
        if names is not None and row["check"] not in names:
            continue
        assert row["pass"], (
            f"{row['check']}: abs_err={row['abs_err']:.6e} tol={row['tol']:.6e} "
            f"({row['notes']})"
        )


def test_01_riemann_roch_defect():
    rep, elapsed = timed_suite("rr")
    assert_rows(rep)
    assert elapsed < 30.0


def test_02_rank1_zeta_matches_completed_zeta():
    rep, elapsed = timed_suite("zeta1")
    assert_rows(rep)
    assert elapsed < 5.0


def test_03_truncated_integral_identity_grid():
    rep, elapsed = timed_suite("eq4")
    assert_rows(rep)
    assert elapsed < 120.0


def test_04_rank2_functional_equation():
    rep, _ = timed_suite("fe2")
    assert_rows(rep)
    assert len(rep["checks"]) == 20


def test_05_residues_and_volume_ratio():
    rep, _ = timed_suite("residues")
    assert_rows(rep)
    notes = rep["checks"][0]["notes"]
    assert "negatives" in notes  # sign discrepancy is recorded, not hidden


def test_06_fourier_vs_direct():
    rep, elapsed = timed_suite("fourier")
    assert_rows(rep)
    assert len(rep["checks"]) == 10
    assert elapsed < 5.0


def test_07_truncated_constant_term_vanishes():
    rep, _ = timed_suite("truncation")
    assert_rows(rep)


def test_08_hn_polygon_suite():
    rep, elapsed = timed_suite("hn")
    assert_rows(rep)
    assert elapsed < 120.0


def test_09_indicator_identity():
    rep, _ = timed_suite("indicator")
    assert_rows(rep)


def test_10_arthur_correspondence():
    rep, _ = timed_suite("arthur")
    assert_rows(rep)


def test_11_sl3_suite_machinery():
    rep, elapsed = timed_suite("sl3")
    names = {row["check"] for row in rep["checks"]}
    assert_rows(rep, names - {"sl3_p1_three_product_vs_average"})
    assert elapsed < 600.0


def test_11_sl3_p1_formula_vs_average():
    # stated tolerance 1e-2 relative at (s, t) = (3, 2), height 40; the
    # three-product expression and the unipotent average are independent
    # routes to the P1 constant term
    rep, _ = timed_suite("sl3")
    assert_rows(rep, {"sl3_p1_three_product_vs_average"})


def test_12_tannaka_exact():
    rep, elapsed = timed_suite("tannaka")
    assert_rows(rep)
    assert elapsed < 1.0
