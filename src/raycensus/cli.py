"""Command-line front end: reproducible, machine-readable pipelines.

Exit codes: 0 success/satisfied/landed, 2 usage, parse or file error,
3 landing not-converged, 4 singular-hit or escaped pullback,
5 census inequality violated, 6 census not-applicable.
Data goes to stdout (or --out); diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .addresses import AddressParseError, parse_address, period_of
from .census import DEFAULT_MATCH_TOL, audit, dumps_canonical
from .cycles import DEFAULT_TOL, DEFAULT_TOL_BAND, cycle_through, find_cycles
from .exponential import MapModel, SingularValueHit
from .rays import DEFAULT_LANDING_TOL, DEFAULT_MAX_ITER, landing_point, sweep_hair
from .regions import (
    PointLocationError,
    _check_graph_limits,
    build_ray_graph,
    interior_fixed_point_audit,
)
from .tails import (
    DEFAULT_HORIZON,
    TrappedSingularOrbit,
    _check_tail_limits,
    make_tail_context,
    tail_diagnostics,
)

EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_SINGULAR = 4
EXIT_VIOLATED = 5
EXIT_NOT_APPLICABLE = 6

_DEFAULT_BOX = "-3,3,-7,7"


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# option parsing: flags override config-file values which override defaults

def _apply_config(sub: argparse.ArgumentParser, path: str):
    """Makes the values of a key=value config file the command's defaults.

    Keys name flags without the leading dashes; keys that are no flag of
    the command are ignored.  A switch is on for 1, true or yes.  Other
    values stay strings, which argparse runs through the flag's type.
    """
    flags = {opt[2:]: action for action in sub._actions
             for opt in action.option_strings
             if opt.startswith("--") and action.dest not in ("config", "help")}
    defaults = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        action = flags.get(key.strip())
        if action is not None:
            value = value.strip()
            defaults[action.dest] = (value.lower() in ("1", "true", "yes")
                                     if action.nargs == 0 else value)
    sub.set_defaults(**defaults)


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected re,im but got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise UsageError(f"bad complex pair {text!r}") from None


def _parse_box(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"expected re_lo,re_hi,im_lo,im_hi but got {text!r}")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad box {text!r}") from None
    if not all(map(math.isfinite, (a, b, c, d))):
        raise UsageError(f"box bounds must be finite, got {text!r}")
    if not (a < b and c < d):
        raise UsageError(f"empty box {text!r}")
    return a, b, c, d


def _parse_t_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected lo:hi but got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad potential range {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"potential range must be finite, got {text!r}")
    if not (0.0 < lo < hi):
        raise UsageError(f"empty potential range {text!r}")
    return lo, hi


def _require(args: argparse.Namespace, name: str) -> str:
    val = getattr(args, name)
    if val is None:
        raise UsageError(f"missing required option --{name}")
    return val


def _map_model(args: argparse.Namespace) -> MapModel:
    return MapModel(c=_parse_complex_pair(_require(args, "c")), R=args.radius)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _base_config(m: MapModel, **extra) -> dict:
    return {"c": [m.c.real, m.c.imag], "R": m.R, **extra}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_trace_ray(args: argparse.Namespace) -> int:
    m = _map_model(args)
    s = parse_address(_require(args, "address"))
    lo, hi = _parse_t_range(_require(args, "t"))
    samples = sweep_hair(m, s, depth=args.depth, t_lo=lo, t_hi=hi, samples=args.samples)
    lines = ["t,re,im"]
    for t, z in samples:
        lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_land(args: argparse.Namespace) -> int:
    m = _map_model(args)
    s = parse_address(_require(args, "address"))
    if period_of(s) <= 0:
        raise UsageError(f"address {s} is not purely periodic")
    res = landing_point(m, s, tol=args.tol, max_iter=args.max_iter)
    doc = {
        "status": res.status,
        "address": str(s),
        "iterations": res.iterations,
        "config": _base_config(m, address=str(s), tol=args.tol,
                               max_iter=args.max_iter),
    }
    if res.landed:
        doc["point"] = [res.point.real, res.point.imag]
        doc["psi_derivative"] = [res.psi_derivative.real, res.psi_derivative.imag]
        doc["multiplier"] = [res.multiplier.real, res.multiplier.imag]
        doc["itinerary_ok"] = res.itinerary_ok
    if res.detail:
        doc["detail"] = res.detail
    _emit(dumps_canonical(doc) + "\n", args.out)
    if res.status == "landed":
        return 0
    if res.status == "not-converged":
        return EXIT_NOT_CONVERGED
    return EXIT_SINGULAR


def _cmd_cycles(args: argparse.Namespace) -> int:
    m = _map_model(args)
    box = _parse_box(_require(args, "box"))
    if args.verify_coverage and args.grid < 2:
        raise UsageError("--verify-coverage needs --grid >= 2")
    cycles = find_cycles(m, args.max_period, box, grid=args.grid, tol=args.tol).cycles
    warnings = []
    if args.verify_coverage:
        half = args.grid // 2
        coarse = find_cycles(m, args.max_period, box, grid=half, tol=args.tol).cycles
        if len(cycles) < len(coarse):
            warnings.append(f"coverage: {len(cycles)} cycles at grid {args.grid} "
                            f"but {len(coarse)} at grid {half}")
    doc = {
        "config": _base_config(m, box=list(box), max_period=args.max_period,
                               grid=args.grid, tol=args.tol),
        "cycles": [c.to_json_dict() for c in cycles],
        "warnings": warnings,
    }
    _emit(dumps_canonical(doc) + "\n", args.out)
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    m = _map_model(args)
    box = _parse_box(args.box)
    graph = build_ray_graph(m, args.p, args.window, depth=args.depth, box=box,
                            grid=args.probe_grid)
    doc = graph.to_json_dict()
    doc["config"] = _base_config(m, p=args.p, window=args.window, depth=args.depth,
                                 box=list(box), probe_grid=args.probe_grid)
    if args.audit:
        max_period = args.p if args.max_period is None else args.max_period
        search = find_cycles(m, max_period, box, grid=args.grid)
        sep = interior_fixed_point_audit(graph, search.cycles)
        doc["separation_audit"] = {
            "violations": sep.violations,
            "poisoned": sep.poisoned,
            "interior": {str(rid): [[z.real, z.imag] for z in pts]
                         for rid, pts in sorted(sep.regions_to_points.items())},
            "landing_matches": [[z.real, z.imag] for z in sep.landing_matches],
        }
    _emit(dumps_canonical(doc) + "\n", args.out)
    return 0


def _cmd_tails(args: argparse.Namespace) -> int:
    m = _map_model(args)
    s = parse_address(_require(args, "address"))
    p = period_of(s)
    if p <= 0:
        raise UsageError("tails subcommand needs a purely periodic address")
    _check_tail_limits(max_level=args.max_level, samples=args.samples,
                       horizon=args.horizon)
    res = landing_point(m, s)
    if not res.landed:
        print(f"address {s} does not land ({res.status}); no tail context",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED if res.status == "not-converged" else EXIT_SINGULAR
    window = max(1, s.max_abs_entry) if args.window is None else args.window
    box = _parse_box(args.box)
    # a bad graph setting wins over a cycle outside the box, which needs no graph
    _check_graph_limits(window, args.depth, args.probe_grid)
    # the landing point lies on the cycle the tails are defined by
    target = cycle_through(m, res.point, p, box)
    if target is None:
        print("landing cycle not found in box; enlarge --box", file=sys.stderr)
        return EXIT_USAGE
    graph = build_ray_graph(m, p, window, depth=args.depth, box=box,
                            grid=args.probe_grid)
    ctx = make_tail_context(m, target, graph, horizon=args.horizon)
    doc = {
        "config": _base_config(m, address=str(s), window=window,
                               depth=args.depth, box=list(box),
                               probe_grid=args.probe_grid, horizon=args.horizon,
                               max_level=args.max_level, samples=args.samples),
        "r": ctx.r,
        "cycle": target.to_json_dict(),
        "levels": tail_diagnostics(ctx, s, args.max_level, samples=args.samples),
    }
    _emit(dumps_canonical(doc) + "\n", args.out)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    m = _map_model(args)
    box = _parse_box(args.box)
    settings = {key: getattr(args, key) for key in (
        "depth", "horizon", "grid", "probe_grid", "tol", "tol_band",
        "landing_tol", "match_tol")}
    config = _base_config(m, box=list(box), max_period=args.max_period,
                          window=args.window, **settings)
    report = audit(m, box, args.max_period, args.window, config=config, **settings)
    _emit(report.to_json() + "\n", args.out)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.verdict == "satisfied":
        return 0
    if report.verdict == "violated":
        return EXIT_VIOLATED
    return EXIT_NOT_APPLICABLE


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the sub-parser of each command, built once."""
    ap = argparse.ArgumentParser(
        prog="raycensus",
        description="Dynamic rays, cycles, tails and a refined "
                    "Fatou-Shishikura census for e^z + c")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--c", help="parameter as re,im")
        p.add_argument("--radius", type=float, default=0.0,
                       help="override tract radius R")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    def graph_flags(p: argparse.ArgumentParser, window: int | None, probe_grid: int):
        p.add_argument("--window", type=int, default=window)
        p.add_argument("--depth", type=int, default=40)
        p.add_argument("--box", default=_DEFAULT_BOX)
        p.add_argument("--probe-grid", type=int, default=probe_grid)

    p = command("trace-ray", _cmd_trace_ray, "sample a dynamic ray to CSV")
    p.add_argument("--address")
    p.add_argument("--t", help="potential range lo:hi")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--depth", type=int, default=40)

    p = command("land", _cmd_land, "landing point of a periodic ray")
    p.add_argument("--address")
    p.add_argument("--tol", type=float, default=DEFAULT_LANDING_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    p = command("cycles", _cmd_cycles, "periodic orbits in a box")
    p.add_argument("--box")
    p.add_argument("--max-period", type=int, default=2)
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--verify-coverage", action="store_true")

    p = command("regions", _cmd_regions, "ray graph and basic regions")
    p.add_argument("--p", type=int, default=1)
    graph_flags(p, window=1, probe_grid=200)
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--max-period", type=int, help="default: --p")
    p.add_argument("--audit", action="store_true",
                   help="include the interior-fixed-point audit")

    p = command("tails", _cmd_tails, "fundamental tail diagnostics")
    p.add_argument("--address")
    p.add_argument("--max-level", type=int, default=10)
    graph_flags(p, window=None, probe_grid=120)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p.add_argument("--samples", type=int, default=16)

    p = command("audit", _cmd_audit, "refined Fatou-Shishikura census")
    p.add_argument("--max-period", type=int, default=2)
    graph_flags(p, window=1, probe_grid=120)
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--tol-band", type=float, default=DEFAULT_TOL_BAND)
    p.add_argument("--landing-tol", type=float, default=DEFAULT_LANDING_TOL)
    p.add_argument("--match-tol", type=float, default=DEFAULT_MATCH_TOL)

    return ap, sub.choices


#: flags whose values may start with "-" (negative reals); joined with "="
#: before parsing so argparse does not read them as option strings
_NEGATIVE_VALUE_FLAGS = {"--c", "--box", "--t", "--address"}


def _join_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Flags override config-file values, which override the parser's defaults.

    A config file changes its command's defaults in a parser built for that
    run alone, not in the cached one that all runs without --config share."""
    args = _build_parser()[0].parse_args(argv)
    if args.config:
        ap, commands = _build_parser.__wrapped__()
        _apply_config(commands[args.command], args.config)
        args = ap.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse_args(argv)
        return args.run(args)
    except (SingularValueHit, TrappedSingularOrbit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (UsageError, AddressParseError, ValueError, PointLocationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
