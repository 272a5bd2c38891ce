import ast
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from raycensus import cli, cycles, rays
from raycensus.addresses import parse_address
from raycensus.cli import main
from raycensus.exponential import MapModel
from raycensus.rays import LandingResult
from raycensus.regions import RayGraph
from test_rays import assert_same_landing, scalar_landing

AUDIT_ARGS = ["audit", "--c", "-2,0", "--box", "-3,3,-7,7",
              "--max-period", "2", "--window", "1", "--grid", "30"]


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "raycensus.cli", *args],
                          capture_output=True, text=True, **kw)


class TestTraceRay:
    def test_real_ray_csv(self, tmp_path):
        out = tmp_path / "ray.csv"
        result = run_cli(["trace-ray", "--c", "-2,0", "--address", "0",
                          "--t", "5:200", "--samples", "40",
                          "--out", str(out)])
        assert result.returncode == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["t", "re", "im"]
        assert len(rows) == 41
        for _, re_s, im_s in rows[1:]:
            assert abs(float(im_s)) < 1e-10  # real ray for real parameter

    def test_malformed_address_exit_2(self):
        result = run_cli(["trace-ray", "--c", "-2,0", "--address", "0,,1",
                          "--t", "5:200"])
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_empty_range_exit_2(self):
        result = run_cli(["trace-ray", "--c", "-2,0", "--address", "0",
                          "--t", "200:5"])
        assert result.returncode == 2


class TestLand:
    def test_landed(self):
        result = run_cli(["land", "--c", "-2,0", "--address", "0"])
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["status"] == "landed"
        assert abs(doc["point"][0] - 1.1461932206205825) < 1e-9
        assert abs(doc["point"][1]) < 1e-12
        assert doc["config"]["c"] == [-2.0, 0.0]
        m, s = MapModel(c=-2), parse_address("0")
        res = LandingResult(doc["status"], point=complex(*doc["point"]),
                            psi_derivative=complex(*doc["psi_derivative"]),
                            multiplier=complex(*doc["multiplier"]),
                            iterations=doc["iterations"], itinerary_ok=doc["itinerary_ok"],
                            detail=doc.get("detail", ""))
        assert_same_landing(s, scalar_landing(m, s), res)

    def test_c0_singular(self):
        result = run_cli(["land", "--c", "0,0", "--address", "0"])
        assert result.returncode == 4
        doc = json.loads(result.stdout)
        assert doc["status"] == "singular-hit"

    def test_preperiodic_exit_2(self):
        result = run_cli(["land", "--c", "-2,0", "--address", "3:0,1"])
        assert result.returncode == 2

    @pytest.mark.parametrize("command", ["land", "tails"])
    def test_entry_beyond_int64_exit_2(self, capsys, command):
        code = main([command, "--c", "-2,0", "--address", "100000000000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "64 bits" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_missing_path_exit_2(self, tmp_path, capsys, flag):
        code = main(["land", "--c", "-2,0", "--address", "0",
                     flag, str(tmp_path / "missing" / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAudit:
    def test_satisfied_exit_0(self):
        result = run_cli(AUDIT_ARGS)
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "satisfied"
        assert doc["counts"]["attracting"] == 1
        assert doc["config"]["box"] == [-3.0, 3.0, -7.0, 7.0]

    def test_window_zero_violated_exit_5(self):
        result = run_cli(["audit", "--c", "-2,0", "--box", "-3,3,-7,7",
                          "--max-period", "2", "--window", "0",
                          "--grid", "30"])
        assert result.returncode == 5
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "violated"
        assert doc["counts"]["invisible_candidates"] == 3

    def test_c0_not_applicable_exit_6(self):
        result = run_cli(["audit", "--c", "0,0", "--box", "-3,3,-7,7",
                          "--max-period", "1", "--window", "1",
                          "--grid", "25", "--horizon", "10"])
        assert result.returncode == 6
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "not-applicable"


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c=-2,0\nbox=-3,3,-7,7\nmax-period=1\nwindow=1\ngrid=25\n")
        base = run_cli(["audit", "--config", str(cfg)])
        assert base.returncode == 0
        doc = json.loads(base.stdout)
        assert doc["config"]["max_period"] == 1
        over = run_cli(["audit", "--config", str(cfg), "--max-period", "2",
                        "--grid", "30"])
        doc2 = json.loads(over.stdout)
        assert doc2["config"]["max_period"] == 2

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not a pair\n")
        result = run_cli(["audit", "--config", str(cfg)])
        assert result.returncode == 2

    def test_config_does_not_reach_later_runs(self, tmp_path, capsys):
        # runs without --config share one parser; the file's defaults go to
        # a parser of the --config run alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=1e-9\nmax-iter=500\nradius=6\n")
        argv = ["land", "--c", "-2,0", "--address", "0"]
        outputs = []
        for extra in ([], ["--config", str(cfg)], []):
            assert main([*argv, *extra]) == 0
            outputs.append(json.loads(capsys.readouterr().out)["config"])
        assert (outputs[1]["tol"], outputs[1]["max_iter"], outputs[1]["R"]) == (1e-9, 500, 6.0)
        assert outputs[2] == outputs[0]
        assert (outputs[2]["tol"], outputs[2]["max_iter"]) == (
            cli.DEFAULT_LANDING_TOL, cli.DEFAULT_MAX_ITER)
        land = cli._build_parser()[1]["land"]
        assert land.get_default("tol") == cli.DEFAULT_LANDING_TOL
        assert land.get_default("radius") == 0.0

    # per case: the command, its settings as flags, the same settings as
    # config lines, a flag to override in the file, an int or float flag
    @pytest.mark.parametrize("command,flags,lines,override,typed", [
        ("trace-ray", ["--address", "0", "--t", "5:200", "--samples", "30", "--depth", "20"],
         ["address=0", "t=5:200", "samples=30", "depth=20"], "samples", "depth"),
        ("land", ["--address", "0,1", "--tol", "1e-9", "--max-iter", "500", "--radius", "6"],
         ["address=0,1", "tol=1e-9", "max-iter=500", "radius=6"], "max-iter", "radius"),
        ("cycles", ["--box", "-3,3,-1,1", "--max-period", "1", "--grid", "25",
                    "--verify-coverage"],
         ["box=-3,3,-1,1", "max-period=1", "grid=25", "verify-coverage=1"], "grid", "tol"),
        ("regions", ["--p", "1", "--probe-grid", "40", "--grid", "25", "--audit"],
         ["p=1", "probe-grid=40", "grid=25", "audit=yes"], "probe-grid", "max-period"),
        ("regions", ["--p", "1", "--probe-grid", "40"],
         ["p=1", "probe-grid=40", "audit=no"], "p", "grid"),
        ("tails", ["--address", "0", "--max-level", "2", "--probe-grid", "60",
                   "--samples", "6", "--horizon", "500"],
         ["address=0", "max-level=2", "probe-grid=60", "samples=6", "horizon=500"],
         "samples", "horizon"),
        ("audit", ["--max-period", "1", "--grid", "25", "--tol-band", "1e-5"],
         ["max-period=1", "grid=25", "tol-band=1e-5"], "max-period", "landing-tol"),
    ], ids=["trace-ray", "land", "cycles", "regions-audit", "regions", "tails",
            "audit-json"])
    def test_config_file_equals_flags(self, tmp_path, capsys, command, flags, lines,
                                      override, typed):
        def invoke(*args, config=None):
            argv = [command, *args]
            if config is not None:
                cfg = tmp_path / "run.cfg"
                cfg.write_text("".join(line + "\n" for line in config))
                argv += ["--config", str(cfg)]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        expected = invoke("--c", "-2,0", *flags)
        assert expected[0] == 0
        # the same settings from a file
        assert invoke(config=["c=-2,0", *lines]) == expected
        # a flag overrides the file
        good = flags[flags.index(f"--{override}") + 1]
        assert invoke("--c", "-2,0", f"--{override}", good,
                      config=[*lines, f"{override}=2", "c=abc"]) == expected
        # keys that are no flag of the command are ignored
        assert invoke(config=["c=-2,0", *lines, "no-such-key=abc", "max_iter=abc",
                              "probe_grid=abc", "config=missing.cfg", "help=yes"]) == expected
        # a malformed value of a flag exits 2, whether or not the run reads it
        code, out, err = invoke(config=["c=-2,0", *lines, f"{typed}=abc"])
        assert (code, out) == (2, "")
        assert f"argument --{typed}: invalid" in err


class TestOtherCommands:
    def test_cycles_json(self):
        result = run_cli(["cycles", "--c", "-2,0", "--box", "-3,3,-1,1",
                          "--max-period", "1", "--grid", "25"])
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert [(c["period"], c["class"]) for c in doc["cycles"]] == [
            (1, "attracting"), (1, "repelling")]

    @pytest.mark.parametrize("box, grid, warnings", [
        ("-3,3,-1,1", "20", []),
        ("-3,3,-13,13", "4", ["coverage: 1 cycles at grid 4 but 3 at grid 2"])],
        ids=["no-warning", "warning"])
    def test_cycles_coverage_warning(self, capsys, box, grid, warnings):
        # --verify-coverage searches half the grid too; finding more there
        # shows the full grid missed cycles
        args = ["cycles", "--c", "-2,0", "--box", box, "--max-period", "1", "--grid", grid]
        assert main(args) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([*args, "--verify-coverage"]) == 0
        checked = json.loads(capsys.readouterr().out)
        assert plain["warnings"] == [] and checked["warnings"] == warnings
        assert checked["cycles"] == plain["cycles"]

    def test_grid_300_lists_each_period_four_cycle_once(self, capsys):
        # the self-conjugate 4-cycle through 1.4044 +/- 6.0209i is listed,
        # and counted as repelling, once
        assert main(["cycles", "--c", "-2,0", "--box", "-3,3,-7,7",
                     "--max-period", "4", "--grid", "300"]) == 0
        assert len(json.loads(capsys.readouterr().out)["cycles"]) == 16
        assert main(["audit", "--c", "-2,0", "--box", "-3,3,-7,7", "--max-period", "4",
                     "--window", "1", "--grid", "300"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["repelling"] == 15
        assert doc["ray_periods_landed"] == [1, 2, 3, 4]

    def test_regions_json(self):
        result = run_cli(["regions", "--c", "-2,0", "--p", "1",
                          "--window", "1", "--probe-grid", "60"])
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert [arc["address"] for arc in doc["arcs"]] == ["-1", "0", "1"]
        assert all(len(arc["landing"]) == 2 and arc["polyline"] for arc in doc["arcs"])
        assert doc["failures"] == []

    def test_regions_with_separation_audit(self):
        result = run_cli(["regions", "--c", "-2,0", "--p", "1",
                          "--window", "1", "--probe-grid", "60",
                          "--grid", "25", "--audit"])
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["separation_audit"]["violations"] == []
        assert doc["separation_audit"]["poisoned"] is False

    def test_tails_json(self):
        result = run_cli(["tails", "--c", "-2,0", "--address", "0",
                          "--max-level", "3", "--probe-grid", "60",
                          "--samples", "8"])
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert len(doc["levels"]) == 3
        assert all(lvl["exists"] for lvl in doc["levels"])
        assert doc["r"] == 5.0

    def test_tails_cycle_is_the_landed_one(self, capsys):
        # the grid-40 cycle search finds none of the 7 period-4 cycles at
        # c = -2; tails solves for its cycle from the landing point alone
        assert main(["tails", "--c", "-2,0", "--address", "0,0,0,1", "--max-level", "2",
                     "--samples", "4"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        cycle = json.loads(out)["cycle"]
        assert (cycle["period"], cycle["class"]) == (4, "repelling")

    def test_tails_has_no_grid(self, tmp_path, capsys):
        argv = ["tails", "--c", "-2,0", "--address", "0", "--max-level", "2", "--samples", "4"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid", "40"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 40" in capsys.readouterr().err
        assert main(argv) == 0
        expected = capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=abc\n")
        assert main([*argv, "--config", str(cfg)]) == 0
        assert capsys.readouterr() == expected

    def test_tails_orbit_escaping_beyond_the_box_exit_4(self, capsys):
        # the singular orbit 0, 1, e follows the 2-cycle's region; e^e lies
        # right of the box, where point location fails, and then escapes
        assert main(["tails", "--c", "0,0", "--address", "0,1", "--max-level", "12",
                     "--samples", "12"]) == 4
        assert capsys.readouterr() == (
            "", "error: singular orbit escapes following the cycle regions "
                "(followed 2 steps)\n")

    def test_tails_unlocatable_witness_orbit_is_a_level_record(self, capsys):
        # levels 1-7 exist; the level-8 witness orbit meets a point no basic
        # region can be decided for, which is a finding, not a usage error
        assert main(["tails", "--c", "-1,0.3", "--address", "0,1", "--max-level", "8",
                     "--samples", "8"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        levels = json.loads(out)["levels"]
        assert [lvl["exists"] for lvl in levels] == [True] * 7 + [False]
        assert levels[-1]["reason"] == "no-region"

    def test_missing_required_exit_2(self):
        result = run_cli(["land", "--address", "0"])
        assert result.returncode == 2


class TestCommandSurface:
    def test_commands(self):
        assert list(cli._build_parser()[1]) == [
            "trace-ray", "land", "cycles", "regions", "tails", "audit"]

    @pytest.mark.parametrize("argv, message", [
        (["plot", "--c", "-2,0", "--p", "1", "--out-dir", "out"], "invalid choice: 'plot'"),
        (AUDIT_ARGS + ["--csv"], "unrecognized arguments: --csv")],
        ids=["plot", "audit-csv"])
    def test_removed_outputs_exit_2(self, capsys, argv, message):
        # the regions, cycles and audit JSON carry what these wrote
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


class TestMeaninglessLimits:
    @pytest.mark.parametrize("args", [
        ["audit", "--max-period", "1", "--grid", "20", "--match-tol", "-1"],
        ["audit", "--max-period", "1", "--grid", "20", "--match-tol", "0"],
        ["audit", "--max-period", "1", "--grid", "20", "--landing-tol", "0"],
        ["land", "--address", "0", "--tol", "0"],
        ["land", "--address", "0", "--tol", "-1"],
        ["land", "--address", "0", "--max-iter", "0"],
        ["cycles", "--box", "-3,3,-7,7", "--grid", "20", "--tol", "-1"],
        ["trace-ray", "--address", "0", "--t", "1:5", "--depth", "-3"],
        # half of a 1-point grid is no grid, so the coverage check cannot run
        ["cycles", "--box", "-3,3,-7,7", "--grid", "1", "--verify-coverage"],
    ])
    def test_rejected_exit_2(self, capsys, args):
        code = main([*args, "--c", "-2,0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


    @pytest.mark.parametrize("args", [
        # c=0 fails the singular-value gate, which ends the audit before landing
        ["audit", "--c", "0,0", "--max-period", "1", "--match-tol", "-1", "--landing-tol", "0"],
        ["audit", "--c", "0,0", "--max-period", "1", "--match-tol", "0"],
        ["audit", "--c", "-2,0", "--max-period", "1", "--tol-band", "-1"],
        ["audit", "--c", "-2,0", "--max-period", "1", "--tol-band", "1"],
        # each once exited 0, 5 or 6: checked only where a graph was built
        ["audit", "--c", "-2,0", "--max-period", "1", "--depth", "-1"],
        ["audit", "--c", "-2,0", "--max-period", "1", "--probe-grid", "0"],
        ["audit", "--c", "-2,0", "--max-period", "2", "--window", "0", "--probe-grid", "0"],
        ["audit", "--c", "0,0", "--max-period", "1", "--window", "-1"],
    ])
    def test_checked_before_use(self, capsys, args):
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, message", [("--max-level", "max_level must be >= 1"),
                                               ("--samples", "samples must be >= 1"),
                                               ("--horizon", "horizon must be >= 1")])
    def test_tails_limits_checked_before_any_work(self, capsys, monkeypatch, flag, message):
        def not_before_the_limits(*args, **kwargs):
            raise AssertionError("work started before the limits were checked")

        for name in ("landing_point", "build_ray_graph", "find_cycles", "cycle_through"):
            monkeypatch.setattr(cli, name, not_before_the_limits)
        # c=0: the ray lands nowhere, which would exit 4 if landing came first
        for c in ("-2,0", "0,0"):
            assert main(["tails", "--c", c, "--address", "0", flag, "0"]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_tails_cycle_outside_the_box_builds_no_graph(self, capsys, monkeypatch):
        def no_graph(*args, **kwargs):
            raise AssertionError("ray graph built for a cycle outside the box")

        monkeypatch.setattr(cli, "build_ray_graph", no_graph)
        # the fixed point that ray 1 lands on at c = -2 lies above the box
        assert main(["tails", "--c", "-2,0", "--address", "1"]) == 2
        assert capsys.readouterr() == ("", "landing cycle not found in box; enlarge --box\n")
        # a bad graph setting still wins over the cycle outside the box
        assert main(["tails", "--c", "-2,0", "--address", "1", "--probe-grid", "0"]) == 2
        assert capsys.readouterr() == ("", "error: probe grid must be >= 1\n")

    @pytest.mark.parametrize("args, bad", [
        (["trace-ray", "--c", "nan,0", "--address", "0", "--t", "1:2", "--samples", "3"], "nan"),
        (["trace-ray", "--c", "-2,0", "--address", "0", "--t", "1:inf", "--samples", "3"], "inf"),
        (["tails", "--c", "nan,0", "--address", "0", "--max-level", "2", "--samples", "2"], "nan"),
        (["land", "--c", "nan,0", "--address", "0"], "nan"),
        (["cycles", "--c", "nan,0", "--box", "-3,3,-7,7"], "nan"),
        (["regions", "--c", "nan,0"], "nan"),
        (["audit", "--c", "nan,0"], "nan"),
        (["audit", "--c", "-2,0", "--radius", "nan"], "nan"),
        (["land", "--c", "-2,0", "--address", "0", "--radius", "inf"], "inf"),
        (["cycles", "--c", "-2,0", "--box=-inf,3,-7,7"], "-inf"),
        (["cycles", "--c", "-2,0", "--box", "-3,3,-7,7", "--tol", "inf"], "inf"),
        (["land", "--c", "-2,0", "--address", "0", "--tol", "inf"], "inf"),
        (["audit", "--c", "-2,0", "--match-tol", "inf"], "inf"),
    ])
    def test_non_finite_rejected_before_any_work(self, capsys, monkeypatch, args, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("landing or Newton work ran on a non-finite input")

        for module, name in ((rays, "_psi_batch"), (rays, "_newton_polish"),
                             (rays, "inverse_branch"), (cycles, "_newton_fp")):
            monkeypatch.setattr(module, name, no_work)
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and bad in err

    def test_zero_grid_errors_name_their_flag(self, capsys):
        errors = []
        for flag in ("--probe-grid", "--grid"):
            assert main(["audit", "--c", "-2,0", "--max-period", "1", flag, "0"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] != errors[1]


class TestIndexedLocation:
    """Point location reads the probe-grid cell index for interior points;
    scanning every segment for every point gives the same output."""

    @pytest.mark.parametrize("argv", [
        *(["tails", "--c", c, "--address", "0", "--max-level", "25", "--samples", "20"]
          for c in ("-2.1481219654863297,-0.02366185412148723", "-1.905,-0.116")),
        ["regions", "--c", "-2,0", "--p", "3", "--window", "2", "--audit"],
    ], ids=["tails-a", "tails-b", "regions"])
    def test_same_output_as_the_full_scan(self, capsys, monkeypatch, argv):
        inside = []
        interior = RayGraph._interior

        def counted(graph, ix, iy):
            mask = interior(graph, ix, iy)
            inside.append(mask.sum())
            return mask

        with monkeypatch.context() as patch:
            patch.setattr(RayGraph, "_interior", counted)
            code = main(argv)
        indexed = capsys.readouterr()
        assert sum(inside) > 0
        monkeypatch.setattr(RayGraph, "_interior",
                            lambda graph, ix, iy: np.zeros(len(ix), dtype=bool))
        assert main(argv) == code
        assert capsys.readouterr() == indexed


class TestInProcessMain:
    def test_main_returns_exit_code(self, capsys):
        code = main(["land", "--c", "-2,0", "--address", "0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "landed"

    @pytest.mark.parametrize("command", [
        ["land", "--c", "-2,0"],
        ["tails", "--c", "-2,0", "--max-level", "2", "--samples", "4"]])
    def test_address_with_negative_first_label_after_a_space(self, capsys, command):
        outcomes = []
        for address in (["--address", "-1,1"], ["--address=-1,1"]):
            code = main([*command, *address])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0 and outcomes[0][2] == ""


def test_cli_import_loads_no_heavy_module():
    # the benchmark's setup time is a fresh interpreter importing numpy and
    # raycensus.cli; the package must add no numpy submodule and no heavy
    # standard or third-party module to it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
            "before = set(sys.modules); import raycensus.cli; "
            "print(sorted(set(sys.modules) - before)); print(sorted(sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=60, check=True)
    added, loaded = (ast.literal_eval(line) for line in run.stdout.splitlines())
    assert "raycensus.cli" in added
    assert [name for name in added if name.split(".")[0] == "numpy"] == []
    assert "csv" not in added
    assert [name for name in ("decimal", "concurrent.futures", "scipy", "mpmath")
            if name in loaded] == []
