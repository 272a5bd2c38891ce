import argparse
import ast
import csv
import dataclasses
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from raycensus import census, cli, cycles, rays, regions
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


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each command, by name."""
    return next(action.choices for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


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

    @pytest.mark.parametrize("flag", ["--out"])
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


class TestOtherCommands:
    def test_cycles_json(self):
        result = run_cli(["cycles", "--c", "-2,0", "--box", "-3,3,-1,1",
                          "--max-period", "1", "--grid", "25"])
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert [(c["period"], c["class"]) for c in doc["cycles"]] == [
            (1, "attracting"), (1, "repelling")]

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
                          "--max-level", "3", "--samples", "8"])
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

    def test_tails_has_no_grid(self, capsys):
        argv = ["tails", "--c", "-2,0", "--address", "0", "--max-level", "2", "--samples", "4"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid", "40"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 40" in capsys.readouterr().err
        assert main(argv) == 0

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
        assert list(subcommands()) == [
            "trace-ray", "land", "cycles", "regions", "tails", "audit"]

    def test_long_options(self):
        options = {name: {opt for action in sub._actions for opt in action.option_strings
                          if opt.startswith("--") and opt != "--help"}
                   for name, sub in subcommands().items()}
        common = {"--c", "--out"}
        assert options == {
            "trace-ray": common | {"--address", "--t", "--samples", "--depth"},
            "land": common | {"--address", "--max-iter"},
            "cycles": common | {"--box", "--max-period", "--grid"},
            "regions": common | {"--p", "--window", "--box", "--probe-grid", "--grid", "--audit"},
            "tails": common | {"--address", "--max-level", "--box", "--horizon", "--samples"},
            "audit": common | {"--max-period", "--window", "--box", "--grid", "--horizon"},
        }
        assert sum(map(len, options.values())) == 37

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


def flag_id(args: list[str]) -> str:
    """Test id of a row whose last flag and value are the ones checked."""
    return " ".join([args[0], *args[-2:]])


class TestMeaninglessLimits:
    @pytest.mark.parametrize("args", [
        ["audit", "--max-period", "0"],
        ["regions", "--p", "0"],
        ["land", "--address", "0", "--max-iter", "-1"],
        ["trace-ray", "--address", "0", "--t", "1:5", "--samples", "1"],
        ["land", "--address", "0", "--max-iter", "0"],
        ["cycles", "--box", "-3,3,-7,7", "--grid", "0"],
        ["trace-ray", "--address", "0", "--t", "1:5", "--depth", "-3"],
        ["cycles", "--box", "-3,3,-7,7", "--max-period", "0"],
    ], ids=flag_id)
    def test_rejected_exit_2(self, capsys, args):
        code = main([*args, "--c", "-2,0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


    @pytest.mark.parametrize("args", [
        # each once checked only after the cycle search
        ["audit", "--c", "0,0", "--max-period", "1", "--horizon", "0"],
        ["audit", "--c", "-2,0", "--max-period", "1", "--horizon", "-1"],
        # the separation audit's cycle grid, checked only with --audit
        ["regions", "--c", "-2,0", "--p", "1", "--audit", "--grid", "0"],
        ["regions", "--c", "-2,0", "--p", "1", "--audit", "--grid", "-1"],
        # once exited 6: checked only where a graph was built
        ["audit", "--c", "0,0", "--max-period", "1", "--window", "-1"],
    ], ids=flag_id)
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

    @pytest.mark.parametrize("args, bad", [
        (["trace-ray", "--c", "nan,0", "--address", "0", "--t", "1:2", "--samples", "3"], "nan"),
        (["trace-ray", "--c", "-2,0", "--address", "0", "--t", "1:inf", "--samples", "3"], "inf"),
        (["tails", "--c", "nan,0", "--address", "0", "--max-level", "2", "--samples", "2"], "nan"),
        (["land", "--c", "nan,0", "--address", "0"], "nan"),
        (["cycles", "--c", "nan,0", "--box", "-3,3,-7,7"], "nan"),
        (["regions", "--c", "nan,0"], "nan"),
        (["audit", "--c", "nan,0"], "nan"),
        (["audit", "--c", "-2,0", "--box=-3,3,nan,7"], "nan"),
        (["land", "--c", "inf,0", "--address", "0"], "inf"),
        (["cycles", "--c", "-2,0", "--box=-inf,3,-7,7"], "-inf"),
        (["regions", "--c", "-2,0", "--box=-inf,3,-7,7"], "-inf"),
        (["tails", "--c", "-2,0", "--address", "0", "--box=-3,inf,-7,7"], "inf"),
        (["regions", "--c", "-2,nan"], "nan"),
        # finite bounds whose ratio overflows once sampled inf potentials
        (["trace-ray", "--c", "-2,0", "--address", "0", "--t", "1e-300:1e300", "--samples", "3"],
         "1e+300"),
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

    @pytest.mark.parametrize("module, names, args, message", [
        (census, ("find_cycles", "singular_escape_status", "landing_table", "build_ray_graph"),
         ["audit", "--max-period", "3", "--horizon", "0"], "horizon must be >= 1"),
        (cli, ("build_ray_graph", "find_cycles", "interior_fixed_point_audit"),
         ["regions", "--p", "3", "--audit", "--grid", "0"], "grid must be >= 1"),
    ], ids=["audit-horizon", "regions-audit-grid"])
    def test_limits_checked_before_any_work(self, capsys, monkeypatch, module, names, args,
                                            message):
        def not_before_the_limits(*args, **kwargs):
            raise AssertionError("work started before the limits were checked")

        for name in names:
            monkeypatch.setattr(module, name, not_before_the_limits)
        assert main([*args, "--c", "-2,0"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_zero_grid_errors_name_their_flag(self, capsys):
        errors = []
        for flag in ("--probe-grid", "--grid"):
            assert main(["regions", "--c", "-2,0", "--p", "1", "--audit", flag, "0"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] != errors[1]


#: the removed tolerance flags, and regions' --max-period, by command
REMOVED_FLAGS = [("land", "--tol"), ("cycles", "--tol"), ("audit", "--tol"),
                 ("audit", "--tol-band"), ("audit", "--landing-tol"),
                 ("audit", "--match-tol"), ("regions", "--max-period")]

#: the removed radius, config-file, ray-graph depth and coverage flags, and
#: the probe grid and window flags of the tails and trichotomy graphs
REMOVED_SETTINGS = [
    *((command, flag) for flag in ("--radius", "--config")
      for command in ("trace-ray", "land", "cycles", "regions", "tails", "audit")),
    ("regions", "--depth"), ("tails", "--depth"), ("audit", "--depth"),
    ("cycles", "--verify-coverage"),
    ("tails", "--probe-grid"), ("audit", "--probe-grid"), ("tails", "--window")]


def assert_unrecognized(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--c", "-2,0", flag, "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag} 1" in err


def assert_not_in_help(removed):
    subs = subcommands()
    for command, flag in removed:
        assert not re.search(rf"{flag}\b(?!-)", subs[command].format_help()), (command, flag)


class TestFixedTolerances:
    """The tolerances are module constants: no flag or parameter sets them,
    and each JSON config still records the ones its command uses."""

    def test_configs_record_the_constants(self, capsys):
        runs = {"audit": ["--max-period", "1", "--grid", "20"],
                "cycles": ["--box", "-3,3,-1,1", "--max-period", "1", "--grid", "20"],
                "land": ["--address", "0"]}
        configs = {}
        for command, args in runs.items():
            assert main([command, "--c", "-2,0", *args]) == 0
            configs[command] = json.loads(capsys.readouterr().out)["config"]
        audit = configs["audit"]
        assert (audit["tol"], audit["tol_band"], audit["landing_tol"], audit["match_tol"]) == (
            cycles.DEFAULT_TOL, cycles.DEFAULT_TOL_BAND, rays.DEFAULT_LANDING_TOL,
            census.DEFAULT_MATCH_TOL) == (1e-12, 1e-6, 1e-10, 1e-6)
        assert configs["cycles"]["tol"] == cycles.DEFAULT_TOL
        assert configs["land"]["tol"] == rays.DEFAULT_LANDING_TOL

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
    def test_removed_flag_exit_2(self, capsys, command, flag):
        assert_unrecognized(capsys, command, flag)

    def test_help_lists_no_removed_flag(self):
        assert_not_in_help(REMOVED_FLAGS)

    def test_no_tolerance_parameter(self):
        functions = (cycles.classify, cycles.find_cycles, rays.landing_point,
                     rays.land_periodic, rays.landing_table, census.landing_search,
                     census.audit)
        names = {"tol", "tol_band", "landing_tol", "match_tol"}
        assert [(f.__name__, p) for f in functions
                for p in inspect.signature(f).parameters if p in names] == []


class TestFixedSettings:
    """R is set from c, ray-graph arcs use rays.LADDER_DEPTH, the tails and
    trichotomy graphs regions.PROBE_GRID, and the tails graph the window
    max(1, max |s_k|): no flag or parameter sets them, and each JSON output
    still records them."""

    def test_outputs_record_the_fixed_values(self, capsys):
        runs = {"regions": ["--p", "1", "--probe-grid", "40"],
                "tails": ["--address", "0", "--max-level", "2", "--samples", "4"],
                "audit": ["--max-period", "1", "--grid", "20"],
                "cycles": ["--box", "-3,3,-1,1", "--max-period", "1", "--grid", "20"],
                "land": ["--address", "0"]}
        docs = {}
        for command, args in runs.items():
            assert main([command, "--c", "-2,0", *args]) == 0
            docs[command] = json.loads(capsys.readouterr().out)
        assert [doc["config"]["R"] for doc in docs.values()] == [4.0] * len(runs)
        assert docs["audit"]["map"]["R"] == 4.0
        assert rays.LADDER_DEPTH == docs["regions"]["depth"] == 40
        assert [docs[command]["config"]["depth"] for command in ("regions", "tails", "audit")] \
            == [40] * 3
        assert docs["cycles"]["warnings"] == []
        assert [docs[command]["config"]["probe_grid"] for command in ("tails", "audit")] \
            == [regions.PROBE_GRID] * 2 == [120] * 2
        assert docs["tails"]["config"]["window"] == 1

    def test_tails_window_is_the_largest_label(self, capsys):
        # ray 2 lands on the fixed point 2.68 + 13.81i of strip 2
        assert main(["tails", "--c", "-2,0", "--address", "2", "--box=-3,3,-1,15",
                     "--max-level", "2", "--samples", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["window"] == 2

    @pytest.mark.parametrize("command, flag", REMOVED_SETTINGS)
    def test_removed_flag_exit_2(self, capsys, command, flag):
        assert_unrecognized(capsys, command, flag)

    def test_help_lists_no_removed_flag(self):
        assert_not_in_help(REMOVED_SETTINGS)

    def test_no_radius_or_depth_parameter(self):
        assert [f.name for f in dataclasses.fields(MapModel) if f.init] == ["c"]
        assert "depth" not in {f.name for f in dataclasses.fields(RayGraph)}
        for function in (regions.build_ray_graph, census.audit):
            assert "depth" not in inspect.signature(function).parameters
        assert "probe_grid" not in inspect.signature(census.audit).parameters
        # a hair's ladder depth defaults to that of the arcs
        assert inspect.signature(rays.sweep_hair).parameters["depth"].default \
            == subcommands()["trace-ray"].get_default("depth") == rays.LADDER_DEPTH

    def test_too_large_c_is_named(self, capsys):
        # |c| + 2 rounds to |c|; the error once blamed a radius nobody gave
        assert main(["land", "--c", "1e17,0", "--address", "0"]) == 2
        assert capsys.readouterr() == (
            "", "error: c = (1e+17+0j) too large: D must contain c and 1 + c\n")


def test_readme_names_only_existing_flags():
    """Every --flag the README names is an option of some subcommand, and
    each flag of a `raycensus <cmd>` example or a backticked `<cmd> --flag`
    span is an option of that command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flag = r"--[a-z][a-z0-9-]*"
    named = set(re.findall(flag, readme)) - {"--no-build-isolation"}
    options = {name: {opt for action in sub._actions for opt in action.option_strings}
               for name, sub in subcommands().items()}
    assert "--max-period" in named and sorted(named - set().union(*options.values())) == []
    commands = "|".join(options)
    uses = (re.findall(rf"^raycensus ({commands}) ((?:.*\\\n)*.*)", readme, re.M)
            + re.findall(rf"`({commands}) ([^`]*)`", readme))
    assert len(uses) > 10
    assert [(command, opt) for command, text in uses for opt in re.findall(flag, text)
            if opt not in options[command]] == []


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
