"""Command-line surface: evaluators, file I/O, and the check runner.

Subcommand groups mirror the library layout (lattice, stability, eis2,
eis3, zeta, tannaka, verify).  Exit codes: 0 on success, 1 when a check
command reports a failing row, 2 on usage errors or bad inputs.  Complex
flags take shell-friendly "re+imi" strings; exact rationals travel as
"p/q"; reports are JSON with sorted keys so identical invocations yield
identical bytes (timestamps are suppressed by --no-timestamp).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from datetime import datetime, timezone

from .eis2 import (
    UpperHalfPoint,
    closed_form_IT,
    eisenstein_direct,
    eisenstein_fourier,
    eq4_grid_rows,
    geo_truncated_integral_numeric,
    truncated_eisenstein,
)
from .eis3 import (
    SL3Point,
    constant_term_numeric,
    constant_term_p0_formula,
    constant_term_pi_formula,
    coords,
    fe_adjudicate,
    sl3_completed,
    sl3_eisenstein_direct,
)
from .errors import ConfigParseError, LatzetaError
from .jsonio import check_entry, complex_to_json, frac_to_str, parse_complex
from .lattice import Lattice, degree, riemann_roch, theta_h0, theta_h1
from .numerics import DEFAULT_CONFIG, NumericsConfig
from .stability import (
    canonical_filtration,
    canonical_polygon,
    is_semistable,
    slope,
)
from .tannaka import ParabolicBundle, decompose, fusion_table, par_degree, s3_library, tensor
from .verify import SUITES, report_passes, run_suite
from .zeta import (
    residue_at,
    volume_d_T,
    zeta_rank1_numeric,
    zeta_rank2,
    zeta_rank2_numeric,
)

__all__ = ["run", "main", "load_config"]

_INT_FIELDS = {
    f.name for f in dataclasses.fields(NumericsConfig) if f.type in ("int", int)
}


def load_config(path: str) -> NumericsConfig:
    """Flat key = value file (TOML-compatible subset) over config defaults."""
    overrides = {}
    known = {f.name for f in dataclasses.fields(NumericsConfig)}
    # bounded refinement loops that a-priori sizing removed; parsed, then ignored
    legacy = "quadrature_depth"
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip().strip('"').strip("'")
            if key not in known | {legacy}:
                raise ConfigParseError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                is_int = key in _INT_FIELDS or key == legacy
                overrides[key] = int(value) if is_int else float(value)
            except ValueError:
                raise ConfigParseError(
                    f"{path}:{lineno}: bad numeric value {value!r} for {key!r}"
                ) from None
    if overrides.pop(legacy, 1) < 1:
        raise ConfigParseError(f"{path}: {legacy} must be a positive integer")
    try:
        return NumericsConfig(**overrides)
    except ValueError as exc:
        raise ConfigParseError(f"{path}: {exc}") from None


def _fmt(value) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def _emit(args, payload: dict, plain: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plain)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_lattice(path: str) -> Lattice:
    return Lattice.from_json(_load_json(path))


def _point_arg(text: str | None) -> SL3Point:
    if text is None:
        return SL3Point(1.0, 1.0, 0.0, 0.0, 0.0)
    return SL3Point.from_json(json.loads(text))


def _bundle_arg(text: str) -> ParabolicBundle:
    lib = s3_library()
    if text in lib:
        return lib[text]
    return ParabolicBundle.from_json(_load_json(text))


# --- handlers ---------------------------------------------------------------


def _cmd_lattice(args, config) -> int:
    L = _load_lattice(args.infile)
    if args.action == "h0":
        v = theta_h0(L, config)
        _emit(args, {"h0": v}, repr(v))
    elif args.action == "h1":
        v = theta_h1(L, config)
        _emit(args, {"h1": v}, repr(v))
    elif args.action == "degree":
        v = degree(L)
        _emit(args, {"degree": v}, repr(v))
    else:
        rep = riemann_roch(L, config)
        payload = {
            "h0": rep.h0,
            "h1": rep.h1,
            "degree": rep.degree,
            "rr_defect": rep.rr_defect,
        }
        _emit(args, payload, f"h0={rep.h0!r} h1={rep.h1!r} degree={rep.degree!r} "
                             f"defect={rep.rr_defect!r}")
    return 0


def _cmd_stability(args, config) -> int:
    L = _load_lattice(args.infile)
    if args.action == "semistable":
        v = is_semistable(L, config)
        _emit(args, {"semistable": v, "slope": slope(L)}, str(v).lower())
    elif args.action == "polygon":
        p = canonical_polygon(L, config)
        _emit(args, {"rank": p.rank, "values": list(p.values)}, repr(list(p.values)))
    else:
        f = canonical_filtration(L, config)
        _emit(args, {"steps": f.to_json()}, json.dumps(f.to_json()))
    return 0


def _cmd_eis2(args, config) -> int:
    if args.action == "grid":
        if not args.out:
            print("error: grid needs --out for the CSV path", file=sys.stderr)
            return 2
        s_list = [parse_complex(v) for v in args.s.split(",")]
        t_list = [float(v) for v in args.T.split(",")]
        rows = eq4_grid_rows([(s, T) for s in s_list for T in t_list], config)
        cols = ["s_re", "s_im", "T", "value_re", "value_im", "abs_err_estimate"]
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0
    s = parse_complex(args.s)
    if args.action == "eq4":
        T = float(args.T)
        row = check_entry(
            f"eq4_s={s}_T={T}",
            geo_truncated_integral_numeric(s, T, config),
            closed_form_IT(s, T, config),
            1e-6,
        )
        _emit(args, row, f"numeric={_fmt(row['lhs'])} closed={_fmt(row['rhs'])} "
                         f"abs_err={row['abs_err']:.3e} pass={row['pass']}")
        return 0 if row["pass"] else 1
    z = UpperHalfPoint(float(args.x), float(args.y))
    if args.action == "direct":
        v = eisenstein_direct(z, s, config)
    elif args.action == "fourier":
        v = eisenstein_fourier(z, s, config)
    else:
        v = truncated_eisenstein(z, s, float(args.T), config)
    _emit(args, {"value": complex_to_json(complex(v))}, _fmt(v))
    return 0


def _cmd_eis3(args, config) -> int:
    point = _point_arg(args.point)
    if args.action == "coords":
        c = coords(point, args.index)
        payload = {
            "parabolic_index": c.parabolic_index,
            "y": c.y,
            "z": {"x": c.z.x, "y": c.z.y},
            "x": c.x,
            "t": c.t,
        }
        _emit(args, payload, json.dumps(payload, sort_keys=True))
        return 0
    s = parse_complex(args.s)
    t = parse_complex(args.t)
    if args.action in ("direct", "completed"):
        fn = sl3_eisenstein_direct if args.action == "direct" else sl3_completed
        v = fn(point, s, t, 12 if args.height is None else args.height, config)
        payload = {
            "value": complex_to_json(complex(v)),
            "estimate": v.estimate,
            "pairs": v.pairs,
        }
        _emit(args, payload, f"{_fmt(v)} (estimate {v.estimate:.3e}, "
                             f"{v.pairs} coset pairs)")
        return 0
    if args.action == "constant":
        if args.parabolic == "P0":
            formula = constant_term_p0_formula(point, s, t, config)
        else:
            formula = constant_term_pi_formula(
                point, s, t, 1 if args.parabolic == "P1" else 2, config
            )
        payload = {"parabolic": args.parabolic, "formula": complex_to_json(formula)}
        plain = f"formula={_fmt(formula)}"
        if args.height is not None:
            avg = constant_term_numeric(point, s, t, args.parabolic, args.height, config)
            payload["raw_average"] = complex_to_json(avg)
            plain += f" raw_average={_fmt(avg)}"
        _emit(args, payload, plain)
        return 0
    report = fe_adjudicate(s, t, point, config)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote report to {args.report}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_zeta(args, config) -> int:
    if args.action == "volume":
        v = volume_d_T(float(args.T))
        _emit(args, {"area": v}, repr(v))
        return 0
    if args.action == "residue":
        at = parse_complex(args.at)
        v = residue_at(zeta_rank2, at, config)
        _emit(args, {"residue": complex_to_json(v)}, _fmt(v))
        return 0
    s = parse_complex(args.s)
    fn = {
        "rank1": zeta_rank1_numeric,
        "rank2": zeta_rank2,
        "rank2-numeric": zeta_rank2_numeric,
    }[args.action]
    v = fn(s, config)
    _emit(args, {"value": complex_to_json(v)}, _fmt(v))
    return 0


def _cmd_tannaka(args, config) -> int:
    lib = s3_library()
    if args.action == "fusion":
        table = fusion_table(lib)
        payload = {f"{a}*{b}": list(names) for (a, b), names in table.items()}
        _emit(args, payload, json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not args.a or not args.b:
        print("error: tensor needs --a and --b", file=sys.stderr)
        return 2
    a = _bundle_arg(args.a)
    b = _bundle_arg(args.b)
    prod = tensor(a, b)
    payload: dict = {"tensor": prod.to_json(), "par_degree": frac_to_str(par_degree(prod))}
    try:
        payload["decomposition"] = list(decompose(prod, lib))
    except LatzetaError as exc:
        payload["decomposition"] = None
        payload["decomposition_error"] = str(exc)
    _emit(args, payload, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args, config) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    exit_code = 0
    for name in names:
        rep = run_suite(name, config)
        reports.append(rep)
        ok = report_passes(rep)
        if not ok:
            exit_code = 1
        n_pass = sum(1 for row in rep["checks"] if row["pass"])
        print(f"{name}: {n_pass}/{len(rep['checks'])} checks passed")
        for row in rep["checks"]:
            if not row["pass"]:
                print(
                    f"  FAIL {row['check']}: abs_err={row['abs_err']:.6e} "
                    f"tol={row['tol']:.6e}",
                    file=sys.stderr,
                )
    if args.json:
        if len(reports) == 1 and args.suite != "all":
            payload: dict = dict(reports[0])
        else:
            payload = {"suites": reports}
        if not args.no_timestamp:
            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote report to {args.json}")
    return exit_code


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latzeta",
        description="Lattice cohomology, Eisenstein series, rank-1/2 zeta "
        "functions, and exact parabolic-bundle fusion.",
    )
    parser.add_argument("--config", help="flat key = value numerics config file")
    sub = parser.add_subparsers(dest="group", required=True)

    def _json_flag(p):
        p.add_argument("--json", action="store_true", help="emit JSON to stdout")

    p = sub.add_parser("lattice", help="theta cohomology of a lattice JSON file")
    p.add_argument("action", choices=["h0", "h1", "rr", "degree"])
    p.add_argument("--in", dest="infile", required=True, help="lattice JSON path")
    _json_flag(p)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("stability", help="polygons and filtrations")
    p.add_argument("action", choices=["semistable", "polygon", "filtration"])
    p.add_argument("--in", dest="infile", required=True, help="lattice JSON path")
    _json_flag(p)
    p.set_defaults(handler=_cmd_stability)

    p = sub.add_parser("eis2", help="rank-2 Eisenstein evaluators and grids")
    p.add_argument(
        "action", choices=["direct", "fourier", "truncated", "eq4", "grid"]
    )
    p.add_argument("--x", default="0.0", help="real part of the point")
    p.add_argument("--y", default="1.0", help="height of the point")
    p.add_argument("--s", required=True, help="complex parameter, 're+imi'")
    p.add_argument("--T", default="1.0", help="truncation height (or list for grid)")
    p.add_argument("--out", help="CSV output path (grid)")
    _json_flag(p)
    p.set_defaults(handler=_cmd_eis2)

    p = sub.add_parser("eis3", help="rank-3 Eisenstein evaluators")
    p.add_argument(
        "action", choices=["direct", "completed", "coords", "constant", "fe"]
    )
    p.add_argument("--s", default="3", help="complex parameter, 're+imi'")
    p.add_argument("--t", default="2", help="complex parameter, 're+imi'")
    p.add_argument(
        "--height", type=int,
        help="coset enumeration height (default 12 for series; for "
        "'constant' a given height also computes the numeric average)",
    )
    p.add_argument("--point", help="SL3 point as inline JSON (default: identity)")
    p.add_argument("--index", type=int, choices=[1, 2], default=1)
    p.add_argument("--parabolic", choices=["P0", "P1", "P2"], default="P1")
    p.add_argument("--report", help="write the substitution report to this path")
    _json_flag(p)
    p.set_defaults(handler=_cmd_eis3)

    p = sub.add_parser("zeta", help="rank-1/2 zeta values, residues, volumes")
    p.add_argument(
        "action", choices=["rank1", "rank2", "rank2-numeric", "residue", "volume"]
    )
    p.add_argument("--s", default="2", help="complex argument, 're+imi'")
    p.add_argument("--at", default="1", help="residue location")
    p.add_argument("--T", default="1.0", help="height cut for volume")
    _json_flag(p)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("tannaka", help="parabolic-bundle tensor calculus")
    p.add_argument("action", choices=["tensor", "fusion"])
    p.add_argument("--a", help="bundle JSON path or library name (s11, s12, s21)")
    p.add_argument("--b", help="bundle JSON path or library name")
    _json_flag(p)
    p.set_defaults(handler=_cmd_tannaka)

    p = sub.add_parser("verify", help="run acceptance-check suites")
    p.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    p.add_argument("--json", help="write the JSON report to this path")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so identical runs give identical bytes",
    )
    p.set_defaults(handler=_cmd_verify)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = load_config(args.config) if args.config else DEFAULT_CONFIG
        return args.handler(args, config)
    except (LatzetaError, FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
