"""Command-line front end: reproducible, machine-readable pipelines.

Exit codes: 0 success/satisfied/landed, 2 usage, parse or file error,
3 landing not-converged, 4 singular-hit or escaped pullback,
5 census inequality violated, 6 census not-applicable.
Data goes to stdout (or --out); diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .addresses import AddressParseError, parse_address, period_of
from .census import DEFAULT_MATCH_TOL, audit, dumps_canonical
from .cycles import DEFAULT_TOL, DEFAULT_TOL_BAND, _check_box, cycle_through, find_cycles
from .exponential import MapModel, SingularValueHit
from .rays import DEFAULT_LANDING_TOL, DEFAULT_MAX_ITER, LADDER_DEPTH, landing_point, sweep_hair
from .regions import PROBE_GRID, PointLocationError, build_ray_graph, interior_fixed_point_audit
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
# option values

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
        box = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad box {text!r}") from None
    _check_box(box)
    return box


def _parse_t_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected lo:hi but got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad potential range {text!r}") from None


def _require(args: argparse.Namespace, name: str) -> str:
    val = getattr(args, name)
    if val is None:
        raise UsageError(f"missing required option --{name}")
    return val


def _map_model(args: argparse.Namespace) -> MapModel:
    return MapModel(c=_parse_complex_pair(_require(args, "c")))


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
    res = landing_point(m, s, max_iter=args.max_iter)
    doc = {
        "status": res.status,
        "address": str(s),
        "iterations": res.iterations,
        "config": _base_config(m, address=str(s), tol=DEFAULT_LANDING_TOL,
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
    cycles = find_cycles(m, args.max_period, box, grid=args.grid).cycles
    doc = {
        "config": _base_config(m, box=list(box), max_period=args.max_period,
                               grid=args.grid, tol=DEFAULT_TOL),
        "cycles": [c.to_json_dict() for c in cycles],
        "warnings": [],
    }
    _emit(dumps_canonical(doc) + "\n", args.out)
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    m = _map_model(args)
    box = _parse_box(args.box)
    if args.audit and args.grid < 1:
        raise UsageError("grid must be >= 1")
    graph = build_ray_graph(m, args.p, args.window, box=box, grid=args.probe_grid)
    doc = graph.to_json_dict()
    doc["config"] = _base_config(m, p=args.p, window=args.window, depth=LADDER_DEPTH,
                                 box=list(box), probe_grid=args.probe_grid)
    if args.audit:
        # the audit reads only the cycles whose period divides p
        search = find_cycles(m, args.p, box, grid=args.grid)
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
    box = _parse_box(args.box)
    res = landing_point(m, s)
    if not res.landed:
        print(f"address {s} does not land ({res.status}); no tail context",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED if res.status == "not-converged" else EXIT_SINGULAR
    window = max(1, s.max_abs_entry)
    # the landing point lies on the cycle the tails are defined by
    target = cycle_through(m, res.point, p, box)
    if target is None:
        print("landing cycle not found in box; enlarge --box", file=sys.stderr)
        return EXIT_USAGE
    graph = build_ray_graph(m, p, window, box=box, grid=PROBE_GRID)
    ctx = make_tail_context(m, target, graph, horizon=args.horizon)
    doc = {
        "config": _base_config(m, address=str(s), window=window,
                               depth=LADDER_DEPTH, box=list(box),
                               probe_grid=PROBE_GRID, horizon=args.horizon,
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
    config = _base_config(m, box=list(box), max_period=args.max_period,
                          window=args.window, depth=LADDER_DEPTH, horizon=args.horizon,
                          grid=args.grid, probe_grid=PROBE_GRID,
                          tol=DEFAULT_TOL, tol_band=DEFAULT_TOL_BAND,
                          landing_tol=DEFAULT_LANDING_TOL, match_tol=DEFAULT_MATCH_TOL)
    report = audit(m, box, args.max_period, args.window, horizon=args.horizon,
                   grid=args.grid, config=config)
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
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once."""
    ap = argparse.ArgumentParser(
        prog="raycensus",
        description="Dynamic rays, cycles, tails and a refined "
                    "Fatou-Shishikura census for e^z + c")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--c", help="parameter as re,im")
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    p = command("trace-ray", _cmd_trace_ray, "sample a dynamic ray to CSV")
    p.add_argument("--address")
    p.add_argument("--t", help="potential range lo:hi")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--depth", type=int, default=LADDER_DEPTH)

    p = command("land", _cmd_land, "landing point of a periodic ray")
    p.add_argument("--address")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    p = command("cycles", _cmd_cycles, "periodic orbits in a box")
    p.add_argument("--box")
    p.add_argument("--max-period", type=int, default=2)
    p.add_argument("--grid", type=int, default=40)

    p = command("regions", _cmd_regions, "ray graph and basic regions")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--box", default=_DEFAULT_BOX)
    p.add_argument("--probe-grid", type=int, default=200)
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--audit", action="store_true",
                   help="include the interior-fixed-point audit")

    p = command("tails", _cmd_tails, "fundamental tail diagnostics")
    p.add_argument("--address")
    p.add_argument("--max-level", type=int, default=10)
    p.add_argument("--box", default=_DEFAULT_BOX)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p.add_argument("--samples", type=int, default=16)

    p = command("audit", _cmd_audit, "refined Fatou-Shishikura census")
    p.add_argument("--max-period", type=int, default=2)
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--box", default=_DEFAULT_BOX)
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)

    return ap


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


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _build_parser().parse_args(argv)
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
