"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD LAUNCHED TRACE SETUP_ONLY < INPUTS

INPUTS is the pickle of the workload's inputs as plain data, made by run.py
with inputs.py, so that generating them (box searches over seeded lattices
among them) weighs on neither the set-up time nor the peak memory of this
process.  LAUNCHED is the parent's time.monotonic() just before it started
this process, so that set-up time covers interpreter start, reading the
inputs, `import latzeta` and building the inputs through latzeta's
constructors.  Every call into the
program is timed from here, around the call; nothing inside src/ is touched.
The round's outputs, converted to plain Python data, go to stdout as one
pickle for run.py to check.

Set-up and busy time are reported in reference seconds as well as in
seconds.  The host's CPU speed swings by a fifth or more over seconds to
minutes, and every measured second swings with it.  So the worker also
times a fixed reference kernel: right after set-up, and while the program
runs, every REF_EVERY_S seconds of busy time, by interrupting the call with
a timer (the kernel's own time is taken off the call's).  A reference second
is the time REF_PASSES_PER_S passes of that kernel take at the moment:
seconds divided by REF_PASSES_PER_S times the mean pass time.  It measures
the work done, not how fast the host happened to run during the round.
"""

from __future__ import annotations

import gc
import pickle
import signal
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REF_PASSES_PER_S = 200
REF_EVERY_S = 0.2
SETUP_REF_PASSES = 8


def reference_pass() -> float:
    """Seconds one pass of the reference kernel takes, 5 to 10 ms here.

    Half of it is an interpreter loop over small integers, half exact
    rational arithmetic: of the kernels tried (these two and numpy vector
    maths in and out of cache), the pair whose swings followed those of all
    four workloads most closely.  The collector is off, so the time does
    not depend on how many objects the process holds.  Nothing here comes
    from latzeta, so no change to the program moves it.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    q = Fraction(0)
    for i in range(1, 900):
        q += Fraction(i % 13 + 1, i % 7 + 2)
    took = time.perf_counter() - start
    if collecting:
        gc.enable()
    return took


def reference_seconds(seconds: float, passes: list[float]) -> float:
    return seconds / (REF_PASSES_PER_S * statistics.fmean(passes))


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory (VmHWM), in MB.

    ru_maxrss does not do on Linux: exec keeps the high-water mark of the
    memory the process had before, a copy of run.py's, so ru_maxrss never
    reads below run.py's own resident set.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Recorder:
    """Times calls into the program; with tracing on, also keeps spans.

    A span is (name, start, end, parent), parent being the index of the
    enclosing span or -1.  Spans stay in memory until the round ends.  A
    span's interval includes the reference passes that interrupted it; busy
    time and the per-layer seconds do not.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.busy = 0.0
        self.ref_passes: list[float] = []
        self._ref_left = REF_EVERY_S
        self._ref_in_call = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        self.stats: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.outputs: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.ops: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def phase(self, name: str):
        if not self.trace:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, op: str, layer: str, fn, *args):
        """Time fn(*args) as operation op of layer; returns (value, seconds).

        A raised error is recorded against op and the value is None, so the
        round goes on and the checker counts op as failed.
        """
        self.ops.append(op)
        self._ref_in_call = 0.0
        signal.setitimer(signal.ITIMER_REAL, self._ref_left, REF_EVERY_S)
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception:  # the op fails; the round must go on
            import traceback

            value = None
            self.errors[op] = traceback.format_exc()
        end = time.perf_counter()
        self._ref_left = signal.setitimer(signal.ITIMER_REAL, 0.0)[0] or REF_EVERY_S
        seconds = end - start - self._ref_in_call
        self.busy += seconds
        self.stats[f"{layer}.calls"] += 1
        self.stats[f"{layer}.s"] += seconds
        if self.trace:
            self.spans.append([op, start, end, self._stack[-1] if self._stack else -1])
        return value, seconds

    def add(self, name: str, amount: float) -> None:
        self.stats[name] += amount

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ref_passes.append(reference_pass())
        self._ref_in_call += time.perf_counter() - start


def _series(v):
    return None if v is None else (complex(v), float(v.estimate), int(v.pairs))


def _cplx(v):
    return None if v is None else complex(v)


# --- sl3 ----------------------------------------------------------------------


def _sl3_direct(rec: Recorder, built: set, op: str, Y, s, t, height: int):
    from latzeta.eis3 import sl3_eisenstein_direct

    layer = "eis3.sl3_eisenstein_direct"
    value, seconds = rec.call(op, layer, sl3_eisenstein_direct, Y, s, t, height)
    rec.add(f"{layer}.warm_s" if height in built else f"{layer}.cold_s", seconds)
    built.add(height)
    out = _series(value)
    if out is not None:
        rec.add(f"{layer}.pairs", out[2])
    rec.outputs[op] = out
    return out


def build_sl3_averages(inp: dict):
    from latzeta.eis3 import SL3Point

    return {"I": SL3Point(*inp["identity"]), "G": SL3Point(*inp["generic"])}


def run_sl3_averages(rec: Recorder, inp: dict, objs: dict) -> None:
    from latzeta import eis3

    I, G = objs["I"], objs["G"]
    s, t = inp["st_real"]
    s2, t2 = inp["st_complex"]
    built: set[int] = set()

    def average(op, Y, ss, tt, P, height, pairs):
        value, seconds = rec.call(
            op, "eis3.constant_term_numeric", eis3.constant_term_numeric, Y, ss, tt, P, height
        )
        # product Gauss-Legendre, 8 nodes per free unipotent entry
        nodes = 8 ** {"P0": 3, "P1": 2, "P2": 2}[P]
        rec.add("eis3.constant_term_numeric.pair_terms", nodes * pairs)
        rec.outputs[op] = _cplx(value)

    def small(op, layer, fn, *args):
        rec.outputs[op] = _cplx(rec.call(op, layer, fn, *args)[0])

    h, h0 = inp["avg_height"], inp["p0_height"]
    with rec.phase(f"height {h}"):
        d = _sl3_direct(rec, built, f"direct h={h}", G, s, t, h)
        small("completion_factor real", "eis3.completion_factor", eis3.completion_factor, s, t)
        small("completion_factor complex", "eis3.completion_factor", eis3.completion_factor, s2, t2)
        pairs = d[2] if d else 0
        average("average P1 identity real", I, s, t, "P1", h, pairs)
        average("average P2 generic complex", G, s2, t2, "P2", h, pairs)
    with rec.phase(f"height {h0}"):
        d0 = _sl3_direct(rec, built, f"direct h={h0}", G, s, t, h0)
        average("average P0 identity real", I, s, t, "P0", h0, d0[2] if d0 else 0)
    with rec.phase("formulas"):
        pi = "eis3.constant_term_pi_formula"
        p0 = "eis3.constant_term_p0_formula"
        small("pi formula P1 identity real", pi, eis3.constant_term_pi_formula, I, s, t, 1)
        small("pi formula P2 generic complex", pi, eis3.constant_term_pi_formula, G, s2, t2, 2)
        small("p0 formula identity real", p0, eis3.constant_term_p0_formula, I, s, t)
        small("p0 formula identity complex", p0, eis3.constant_term_p0_formula, I, s2, t2)


def build_sl3_height_sweep(inp: dict):
    from latzeta.eis3 import SL3Point

    return {
        "Y": SL3Point(*inp["point"]),
        "moved": [SL3Point(*step["moved"]) for step in inp["steps"]],
    }


def run_sl3_height_sweep(rec: Recorder, inp: dict, objs: dict) -> None:
    s, t = inp["st_real"]
    s2, t2 = inp["st_complex"]
    built: set[int] = set()
    for step, gY in zip(inp["steps"], objs["moved"]):
        h = step["height"]
        with rec.phase(f"height {h}"):
            _sl3_direct(rec, built, f"h={h} point real", objs["Y"], s, t, h)
            _sl3_direct(rec, built, f"h={h} moved real", gY, s, t, h)
            _sl3_direct(rec, built, f"h={h} point complex", objs["Y"], s2, t2, h)


# --- sl2 ----------------------------------------------------------------------


def build_sl2_height_cut(inp: dict):
    from latzeta.halfplane import UpperHalfPoint

    return {
        "fourier": [
            (UpperHalfPoint(*f["z"]), UpperHalfPoint(*f["inverted"])) for f in inp["fourier"]
        ],
        "direct": [UpperHalfPoint(*d["z"]) for d in inp["direct"]],
    }


def run_sl2_height_cut(rec: Recorder, inp: dict, objs: dict) -> None:
    from latzeta import eis2, numerics, zeta

    def one(op, layer, fn, *args):
        rec.outputs[op] = _cplx(rec.call(op, layer, fn, *args)[0])

    with rec.phase("height-cut integrals"):
        for k, (s, T) in enumerate(inp["cuts"]):
            one(f"cut {k} quadrature", "eis2.geo_truncated_integral_numeric",
                eis2.geo_truncated_integral_numeric, s, T)
            one(f"cut {k} closed form", "eis2.closed_form_IT", eis2.closed_form_IT, s, T)
    with rec.phase("fourier points"):
        for k, (f, (z, w)) in enumerate(zip(inp["fourier"], objs["fourier"])):
            one(f"fourier {k} z", "eis2.eisenstein_fourier", eis2.eisenstein_fourier, z, f["s"])
            one(f"fourier {k} -1/z", "eis2.eisenstein_fourier", eis2.eisenstein_fourier, w, f["s"])
    with rec.phase("k-bessel grid"):
        for i, nu in enumerate(inp["bessel_orders"]):
            for j, y in enumerate(inp["bessel_ys"]):
                one(f"k_bessel {i} {j}", "numerics.k_bessel", numerics.k_bessel, nu, y)
    with rec.phase("direct sums"):
        for k, (d, z) in enumerate(zip(inp["direct"], objs["direct"])):
            one(f"direct {k}", "eis2.eisenstein_direct", eis2.eisenstein_direct, z, d["s"])
    with rec.phase("rank-2 zeta"):
        for k, s in enumerate(inp["zeta_points"]):
            one(f"zeta {k} s", "zeta.zeta_rank2", zeta.zeta_rank2, s)
            one(f"zeta {k} 1-s", "zeta.zeta_rank2", zeta.zeta_rank2, 1 - s)
        for k, s0 in enumerate(inp["residue_points"]):
            one(f"residue {k}", "zeta.residue_at", zeta.residue_at, zeta.zeta_rank2, s0)
    with rec.phase("xi"):
        for k, s in enumerate(inp["xi_points"]):
            one(f"xi {k}", "numerics.xi_completed", numerics.xi_completed, s)


# --- exact lattices -------------------------------------------------------------


def build_exact_lattices(inp: dict):
    from latzeta.lattice import Lattice
    from latzeta.stability import Flag
    from latzeta.tannaka import s3_library

    lattices = []
    for item in inp["lattices"]:
        flags = [Flag(tuple(tuple(tuple(row) for row in step) for step in f)) for f in item["flags"]]
        lattices.append((Lattice.from_basis(item["basis"]), flags))
    return {"lattices": lattices, "library": s3_library()}


def _bundle(b):
    return None if b is None else (b.rank, b.degrees, dict(b.weights))


def run_exact_lattices(rec: Recorder, inp: dict, objs: dict) -> None:
    from latzeta import lattice, stability, tannaka

    for k, ((L, flags), item) in enumerate(zip(objs["lattices"], inp["lattices"])):
        with rec.phase(f"lattice {k} rank {L.rank}"):
            out = {}
            out["h0"] = rec.call(f"lattice {k} theta_h0", "lattice.theta_h0", lattice.theta_h0, L)[0]
            D = rec.call(f"lattice {k} dual", "lattice.dual", lattice.dual, L)[0]
            out["dual_gram"] = None if D is None else D.gram
            out["h1"] = None
            if D is not None:
                out["h1"] = rec.call(f"lattice {k} theta_h1", "lattice.theta_h0", lattice.theta_h0, D)[0]
            out["degree"] = rec.call(f"lattice {k} degree", "lattice.degree", lattice.degree, L)[0]
            sv = rec.call(f"lattice {k} short_vectors", "lattice.short_vectors",
                          lattice.short_vectors, L, item["short_bound"])[0]
            out["short"] = sv
            if sv is not None:
                rec.add("lattice.short_vectors.vectors", len(sv))
            if L.rank >= 2:
                cp = rec.call(f"lattice {k} canonical_polygon", "stability.canonical_polygon",
                              stability.canonical_polygon, L)[0]
                out["polygon"] = None if cp is None else cp.values
                cf = rec.call(f"lattice {k} canonical_filtration", "stability.canonical_filtration",
                              stability.canonical_filtration, L)[0]
                out["filtration"] = None if cf is None else cf.steps
                out["semistable"] = rec.call(f"lattice {k} is_semistable", "stability.is_semistable",
                                             stability.is_semistable, L)[0]
                fps = []
                for j, f in enumerate(flags):
                    fp = rec.call(f"lattice {k} flag_polygon {j}", "stability.flag_polygon",
                                  stability.flag_polygon, L, f)[0]
                    fps.append(None if fp is None else fp.values)
                out["flag_polygons"] = fps
            rec.outputs[f"lattice {k}"] = out
    lib = objs["library"]
    with rec.phase("tannaka"):
        table = rec.call("fusion_table", "tannaka.fusion_table", tannaka.fusion_table, lib)[0]
        rec.outputs["fusion_table"] = table
        bundles = {}
        for a in sorted(lib):
            for b in sorted(lib):
                bundles[(a, b)] = rec.call(f"tensor {a} {b}", "tannaka.tensor", tannaka.tensor,
                                           lib[a], lib[b])[0]
        square = bundles[("s21", "s21")]
        if square is not None:
            bundles[("s21 s21", "s21")] = rec.call("tensor s21 s21 s21", "tannaka.tensor",
                                                   tannaka.tensor, square, lib["s21"])[0]
        products = {key: _bundle(b) for key, b in bundles.items()}
        rec.outputs["tensor"] = products
        rec.outputs["library"] = {name: _bundle(b) for name, b in lib.items()}


WORKLOADS = {
    "sl3-averages": (build_sl3_averages, run_sl3_averages),
    "sl3-height-sweep": (build_sl3_height_sweep, run_sl3_height_sweep),
    "sl2-height-cut": (build_sl2_height_cut, run_sl2_height_cut),
    "exact-lattices": (build_exact_lattices, run_exact_lattices),
}


def main(argv: list[str]) -> int:
    workload, launched, trace, setup_only = argv
    inp = pickle.load(sys.stdin.buffer)  # the bytes come from run.py
    if not (SRC / "latzeta" / "__init__.py").is_file():
        print(f"no latzeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import latzeta

    if Path(latzeta.__file__).resolve().parent != SRC / "latzeta":
        print(f"imported latzeta from {latzeta.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    build, run = WORKLOADS[workload]
    objs = build(inp)
    setup = time.monotonic() - float(launched)
    reference_pass()  # warm-up
    passes = [reference_pass() for _ in range(SETUP_REF_PASSES)]
    result = {"setup_s": reference_seconds(setup, passes), "setup_raw_s": setup}
    if setup_only == "0":
        rec = Recorder(trace == "1")
        run(rec, inp, objs)
        result |= {
            "wall_s": reference_seconds(rec.busy, rec.ref_passes),
            "wall_raw_s": rec.busy,
            "ref_pass_s": statistics.fmean(rec.ref_passes),
            "peak_rss_mb": peak_rss_mb(),
            "outputs": rec.outputs,
            "ops": rec.ops,
            "errors": rec.errors,
            "stats": dict(rec.stats),
            "spans": rec.spans,
        }
    sys.stdout.buffer.write(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
