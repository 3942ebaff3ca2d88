"""End-to-end tests of the command-line surface and config loader."""

import csv
import json
import math

import pytest

from latzeta.cli import load_config, run
from latzeta.errors import ConfigParseError
from latzeta.jsonio import check_entry, parse_complex
from latzeta.numerics import DEFAULT_CONFIG
import latzeta.verify as verify_mod

Z1 = {"rank": 1, "basis": [["1/1"]]}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        assert load_config(str(p)) == DEFAULT_CONFIG

    def test_overrides_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nabs_tol = 1e-10\nvector_budget = 1000  # inline\n")
        cfg = load_config(str(p))
        assert cfg.abs_tol == 1e-10
        assert cfg.vector_budget == 1000
        assert cfg.pole_guard_radius == DEFAULT_CONFIG.pole_guard_radius

    def test_malformed_line_names_the_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("abs_tol = 1e-10\nnot a key value pair\n")
        with pytest.raises(ConfigParseError, match=r":2"):
            load_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("no_such_knob = 3\n")
        with pytest.raises(ConfigParseError, match="no_such_knob"):
            load_config(str(p))

    @pytest.mark.parametrize("value, code", [("6", 0), ("0", 2), ("x", 2), ("2.5", 2)])
    def test_legacy_quadrature_depth(self, tmp_path, capsys, value, code):
        # the key no longer configures anything, but old files parse as before
        p = tmp_path / "legacy.cfg"
        p.write_text(f"quadrature_depth = {value}\n")
        assert run(["--config", str(p), "zeta", "volume", "--T", "2"]) == code
        if code == 0:
            assert load_config(str(p)) == DEFAULT_CONFIG
        else:
            assert "quadrature_depth" in capsys.readouterr().err
            with pytest.raises(ConfigParseError, match="quadrature_depth"):
                load_config(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("abs_tol = sometimes\n")
        with pytest.raises(ConfigParseError, match="sometimes"):
            load_config(str(p))


class TestExitCodes:
    def test_unknown_group_is_usage_error(self, capsys):
        assert run(["nonsense"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["lattice", "h0"]) == 2

    def test_missing_input_file(self, capsys):
        assert run(["lattice", "h0", "--in", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_convergence_error_is_reported(self, capsys):
        assert run(["zeta", "rank1", "--s", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            verify_mod.SUITES, "alwaysred", lambda config: [check_entry("x", 1.0, 0.0, 0.0)]
        )
        assert run(["verify", "--suite", "alwaysred"]) == 1
        out = capsys.readouterr()
        assert "0/1 checks passed" in out.out
        assert "FAIL" in out.err


class TestZetaCommands:
    def test_rank2_example_value(self, capsys):
        assert run(["zeta", "rank2", "--s", "2.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 0.014006) < 5e-6

    def test_rank1_matches_completed_zeta(self, capsys):
        assert run(["zeta", "rank1", "--s", "2"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - math.pi / 6.0) < 1e-6

    def test_functional_equation_through_cli(self, capsys):
        assert run(["zeta", "rank2", "--s", "0.3+2i"]) == 0
        a = parse_complex(capsys.readouterr().out.strip())
        assert run(["zeta", "rank2", "--s", "0.7-2i"]) == 0
        b = parse_complex(capsys.readouterr().out.strip())
        assert abs(a - b) < 1e-10

    def test_residue_and_volume(self, capsys):
        assert run(["zeta", "residue", "--at", "1"]) == 0
        res = parse_complex(capsys.readouterr().out.strip()).real
        assert run(["zeta", "volume", "--T", "1.0"]) == 0
        area = float(capsys.readouterr().out.strip())
        assert abs(res / area - 0.5) < 1e-6


class TestLatticeCommands:
    def test_h0_example_value(self, tmp_path, capsys):
        p = write_json(tmp_path, "lat.json", Z1)
        assert run(["lattice", "h0", "--in", p]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 0.0829015) < 1e-6

    def test_rr_json_defect(self, tmp_path, capsys):
        lat = {"rank": 2, "basis": [["2", "0"], ["1/3", "1"]]}
        p = write_json(tmp_path, "lat.json", lat)
        assert run(["lattice", "rr", "--in", p, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["rr_defect"]) < 1e-9
        assert abs(payload["degree"] + math.log(2.0)) < 1e-12

    def test_stability_commands(self, tmp_path, capsys):
        lat = {"rank": 2, "basis": [["1/2", "0"], ["0", "2"]]}
        p = write_json(tmp_path, "lat.json", lat)
        assert run(["stability", "semistable", "--in", p]) == 0
        assert capsys.readouterr().out.strip() == "false"
        assert run(["stability", "polygon", "--in", p, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"][1] == pytest.approx(math.log(2.0), abs=1e-12)
        assert run(["stability", "filtration", "--in", p, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"][0] == [[1, 0]]


class TestEis2Commands:
    def test_fourier_and_direct_agree(self, capsys):
        # the direct route (the theta split on Z + Zz) against the Fourier expansion
        assert run(["eis2", "direct", "--x", "0.2", "--y", "1.4", "--s", "3.5"]) == 0
        a = parse_complex(capsys.readouterr().out.strip())
        assert run(["eis2", "fourier", "--x", "0.2", "--y", "1.4", "--s", "3.5"]) == 0
        b = parse_complex(capsys.readouterr().out.strip())
        assert abs(a - b) < 1e-9

    def test_eq4_check_passes(self, capsys):
        assert run(["eis2", "eq4", "--s", "2", "--T", "1.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["abs_err"] < 1e-6

    def test_grid_csv(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        assert run(["eis2", "grid", "--s", "2,1.5+2i", "--T", "1,3", "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert list(rows[0]) == ["s_re", "s_im", "T", "value_re", "value_im", "abs_err_estimate"]
        assert float(rows[1]["T"]) == 3.0
        assert run(["eis2", "grid", "--s", "2", "--T", "1"]) == 2  # missing --out


class TestEis3Commands:
    def test_direct_reports_value_and_estimate(self, capsys):
        assert run(["eis3", "direct", "--s", "3", "--t", "2", "--height", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] > 10_000
        assert payload["estimate"] > 0.0
        assert payload["value"] > 6.0

    def test_coords_identity(self, capsys):
        assert run(["eis3", "coords", "--index", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "parabolic_index": 2, "t": 0.0, "x": 0.0, "y": 1.0,
            "z": {"x": 0.0, "y": 1.0},
        }

    def test_fe_report_file(self, tmp_path, capsys):
        out = str(tmp_path / "fe.json")
        assert run(["eis3", "fe", "--s", "1.4", "--t", "0.6+0.2i", "--report", out]) == 0
        payload = json.loads(open(out).read())
        assert [e["name"] for e in payload["equations"]] == ["i", "ii", "iii", "iv", "v"]

    def test_constant_formula_only(self, capsys):
        assert run(["eis3", "constant", "--s", "3", "--t", "2", "--parabolic", "P0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "raw_average" not in payload
        assert payload["formula"] == pytest.approx(0.0041264551, rel=1e-6)

    @pytest.mark.parametrize("action", ["constant", "direct"])
    def test_bad_height_is_a_typed_error(self, action, capsys):
        args = ["eis3", action, "--s", "3", "--t", "2", "--parabolic", "P1"]
        assert run(args + ["--height", "-3"]) == 2
        assert capsys.readouterr().err == "error: height must be a positive integer\n"
        # argparse refuses a height that is not an integer
        assert run(args + ["--height", "2.5"]) == 2
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["constant", "direct"])
    def test_height_zero_is_refused(self, action, capsys):
        # 0 is a height, not "no height": neither a default sum nor formula only
        args = ["eis3", action, "--s", "3", "--t", "2", "--parabolic", "P1", "--json"]
        assert run(args + ["--height", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: height must be a positive integer\n"
        assert captured.out == ""


class TestTannakaCommands:
    def test_tensor_library_names(self, capsys):
        assert run(["tannaka", "tensor", "--a", "s21", "--b", "s21", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decomposition"] == ["s11", "s12", "s21"]
        assert payload["par_degree"] == "0/1"

    def test_tensor_from_files(self, tmp_path, capsys):
        bundle = {
            "rank": 1, "degrees": [-1],
            "weights": {"inf": ["0"], "one": ["1/2"], "zero": ["1/2"]},
        }
        p = write_json(tmp_path, "b.json", bundle)
        assert run(["tannaka", "tensor", "--a", p, "--b", p, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decomposition"] == ["s11"]

    def test_tensor_missing_operand(self, capsys):
        assert run(["tannaka", "tensor", "--a", "s11"]) == 2


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, capsys):
        assert run(["verify", "--suite", "tannaka"]) == 0
        assert "7/7 checks passed" in capsys.readouterr().out

    def test_json_report_determinism(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert run(["verify", "--suite", "tannaka", "--json", a, "--no-timestamp"]) == 0
        assert run(["verify", "--suite", "tannaka", "--json", b, "--no-timestamp"]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        payload = json.loads(open(a).read())
        assert payload["suite"] == "tannaka"
        assert "generated_at" not in payload
        assert {"check", "lhs", "rhs", "abs_err", "tol", "pass", "notes"} == set(
            payload["checks"][0]
        )

    def test_timestamp_present_by_default(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        assert run(["verify", "--suite", "zeta1", "--json", a]) == 0
        assert "generated_at" in json.loads(open(a).read())

    def test_config_flag_threads_through(self, tmp_path, capsys):
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("abs_tol = 1e-8\n")
        assert run(["--config", str(cfg), "zeta", "rank1", "--s", "3"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 0.19131329801558514) < 1e-6

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("abs_tol == 1e-8\n")
        assert run(["--config", str(cfg), "zeta", "rank1", "--s", "3"]) == 2
