"""latzeta benchmark: run one workload from a seed, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs are made here from the seed (inputs.py) and sent to each worker
as a pickle.  Every round of a workload runs in a fresh worker process
(worker.py), so latzeta's in-process caches start empty, as they do for each `latzeta`
command; the worker uses one thread and numpy's BLAS is held to one thread.
Before the rounds, SETUP_PROBES workers only import latzeta and build the
inputs, so set-up time is a median of several launches.  Rounds repeat while
another one fits in S seconds; there is always at least one.  setup_s and
wall_s are in reference seconds, which take out the host's swings in speed
(see worker.py); the plain seconds are printed on the line before the JSON.

After the rounds, and outside every timed span, the outputs are checked
against reference.py (mpmath, numpy, brute force) and stated properties.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run also writes its spans and per-layer metrics to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402  (script directory is on sys.path)
from inputs import WORKLOADS, make_inputs  # noqa: E402

SETUP_PROBES = 4
ROUND_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_CALLS_AND_SECONDS = (
    "eis3.constant_term_pi_formula",
    "eis3.constant_term_p0_formula",
    "eis3.completion_factor",
    "eis2.geo_truncated_integral_numeric",
    "eis2.eisenstein_fourier",
    "eis2.eisenstein_direct",
    "eis2.closed_form_IT",
    "numerics.k_bessel",
    "numerics.xi_completed",
    "zeta.zeta_rank2",
    "zeta.residue_at",
    "lattice.theta_h0",
    "lattice.dual",
    "stability.canonical_polygon",
    "stability.canonical_filtration",
    "stability.flag_polygon",
    "stability.is_semistable",
    "tannaka.fusion_table",
    "tannaka.tensor",
)
PER_LAYER = {
    "eis3.sl3_eisenstein_direct.calls": "count",
    "eis3.sl3_eisenstein_direct.cold_s": "s",
    "eis3.sl3_eisenstein_direct.warm_s": "s",
    "eis3.sl3_eisenstein_direct.pairs": "count",
    "eis3.constant_term_numeric.calls": "count",
    "eis3.constant_term_numeric.s": "s",
    "eis3.constant_term_numeric.pair_terms": "count",
    "eis3.constant_term_numeric.pair_terms_per_s": "1/s",
    **{f"{layer}.calls": "count" for layer in _CALLS_AND_SECONDS},
    **{f"{layer}.s": "s" for layer in _CALLS_AND_SECONDS},
    "lattice.short_vectors.calls": "count",
    "lattice.short_vectors.s": "s",
    "lattice.short_vectors.vectors": "count",
}


def run_worker(workload: str, inp: dict, trace: bool, setup_only: bool) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sent = pickle.dumps(inp)
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, repr(launched),
         str(int(trace)), str(int(setup_only))],
        cwd=ROOT,
        env=env,
        input=sent,
        capture_output=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"worker for {workload} exited with code {proc.returncode}")
    # the bytes come from our own worker
    return pickle.loads(proc.stdout)


def run_rounds(workload: str, inp: dict, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    setups = [run_worker(workload, inp, trace, True) for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        rnd = run_worker(workload, inp, trace, False)
        rounds.append(rnd)
        setups.append(rnd)
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return setups, rounds


def layer_metrics(stats: dict) -> dict[str, float]:
    values = {name: float(stats.get(name, 0.0)) for name in PER_LAYER}
    seconds = values["eis3.constant_term_numeric.s"]
    values["eis3.constant_term_numeric.pair_terms_per_s"] = (
        values["eis3.constant_term_numeric.pair_terms"] / seconds if seconds else 0.0
    )
    return values


def judge_rounds(workload: str, inp: dict, rounds: list[dict]) -> tuple[bool, int, int]:
    refs = checks.references(workload, inp)
    correct, attempted, failed = True, 0, 0
    for rnd in rounds:
        found = checks.build_checks(workload, inp, rnd["outputs"], refs)
        verdict = checks.judge(rnd["ops"], rnd["errors"], found)
        attempted += verdict.attempted
        failed += len(verdict.failed)
        correct = correct and verdict.correct
        for chk in verdict.wrong:
            print(f"WRONG {chk.op}: {chk.what}: got {chk.got!r}, want {chk.want!r}, "
                  f"tol {chk.tol:.3g}", file=sys.stderr)
        for op in sorted(verdict.unchecked):
            print(f"UNCHECKED {op}", file=sys.stderr)
        for op, err in sorted(rnd["errors"].items()):
            print(f"FAILED {op}: {err}", file=sys.stderr)
    return correct, attempted, failed


def write_trace(workload: str, seed: int, rounds: list[dict], metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "per_layer": metrics,
        "rounds": [
            {
                "wall_s": rnd["wall_s"],
                "wall_raw_s": rnd["wall_raw_s"],
                "ref_pass_s": rnd["ref_pass_s"],
                "spans": [
                    {"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in rnd["spans"]
                ],
            }
            for rnd in rounds
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latzeta" / "__init__.py").is_file():
        print(f"no latzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inp = make_inputs(args.workload, args.seed)
    setups, rounds = run_rounds(args.workload, inp, args.seconds, bool(args.trace))
    correct, attempted, failed = judge_rounds(args.workload, inp, rounds)
    if args.trace:
        stats = [layer_metrics(rnd["stats"]) for rnd in rounds]
        values = {name: statistics.median(s[name] for s in stats) for name in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
        print(f"spans: {write_trace(args.workload, args.seed, rounds, metrics)}")
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    print(f"rounds: {len(rounds)}, set-up samples: {len(setups)}; in plain seconds: "
          f"setup {statistics.median(s['setup_raw_s'] for s in setups):.4f}, "
          f"wall {statistics.median(r['wall_raw_s'] for r in rounds):.3f}; "
          f"reference pass {1e3 * statistics.median(r['ref_pass_s'] for r in rounds):.3f} ms")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
