"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench/test_checks.py

One round of each workload runs in a worker process (about 70 s in all).
On its real outputs every check must hold, and the only failed operations
must be the two five-product P0 expressions, reported as failed rather than
raised.  Then each check's wanted value is moved: by 1e-6 relative where the
check is that tight, otherwise by twice its tolerance, and the check must no
longer hold.  The last test checks that the worker's reference passes
interrupt a timed call and are left out of its time.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=WORKLOADS)
def one_round(request):
    workload = request.param
    inp = make_inputs(workload, SEED)
    rnd = run.run_worker(workload, inp, trace=False, setup_only=False)
    found = checks.build_checks(workload, inp, rnd["outputs"], checks.references(workload, inp))
    return workload, rnd, found


def test_real_outputs_pass_and_only_p0_five_product_fails(one_round):
    workload, rnd, found = one_round
    verdict = checks.judge(rnd["ops"], rnd["errors"], found)
    assert rnd["errors"] == {}
    assert verdict.wrong == [] and verdict.unchecked == set()
    expected = set(checks.P0_FIVE_PRODUCT_OPS) if workload == "sl3-averages" else set()
    assert verdict.failed == expected
    assert verdict.correct
    assert verdict.attempted == len(rnd["ops"])


def test_perturbed_reference_fails_each_check(one_round):
    _, _, found = one_round
    assert found
    tight = 0
    for chk in found:
        scale = max(abs(complex(chk.want)), 1.0)
        rel = max(1e-6, 2.0 * chk.tol / scale)
        tight += rel == 1e-6
        assert not chk.perturbed(rel).holds(), chk
    assert tight > 0


def test_wrong_output_is_incorrect_not_failed(one_round):
    _, rnd, found = one_round
    target = next(chk for chk in found if not chk.fault)
    moved = [chk.perturbed(1.0) if chk is target else chk for chk in found]
    verdict = checks.judge(rnd["ops"], rnd["errors"], moved)
    assert not verdict.correct
    assert target.op not in verdict.failed


def test_raised_op_counts_as_failed():
    found = [checks.Check("a", "value", 1.0, 1.0, 0.0), checks.Check("b", "value", 2.0, 1.0, 0.0)]
    verdict = checks.judge(["a", "b"], {"b": "QuadratureBudget: did not stabilize"}, found)
    assert verdict.failed == {"b"} and verdict.correct



def test_reference_passes_interrupt_calls_and_are_not_counted():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    rec = worker.Recorder(trace=False)
    start = time.perf_counter()
    _, seconds = rec.call("busy", "test.busy", busy, 0.5)
    outer = time.perf_counter() - start
    # a pass every REF_EVERY_S of busy time, and its time is not the call's
    assert len(rec.ref_passes) >= 2
    assert 0.0 <= outer - seconds - sum(rec.ref_passes) < 0.01
    assert rec.busy == seconds
    assert worker.reference_seconds(seconds, rec.ref_passes) > 0.0
