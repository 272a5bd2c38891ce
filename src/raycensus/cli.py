"""Command-line front end: reproducible, machine-readable pipelines.

Exit codes: 0 success/satisfied/landed, 2 usage or parse error,
3 landing not-converged, 4 singular-hit or escaped pullback,
5 census inequality violated, 6 census not-applicable.
Data goes to stdout (or --out); diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from .addresses import AddressParseError, parse_address, period_of
from .census import audit, dumps_canonical
from .cycles import find_cycles
from .exponential import MapModel, SingularValueHit
from .rays import landing_point, sweep_hair
from .regions import PointLocationError, build_ray_graph, interior_fixed_point_audit
from .tails import TrappedSingularOrbit, make_tail_context, tail_diagnostics

EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_SINGULAR = 4
EXIT_VIOLATED = 5
EXIT_NOT_APPLICABLE = 6


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# option plumbing: flags override config-file values which override defaults

def _read_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


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
    if not (0.0 < lo < hi):
        raise UsageError(f"empty potential range {text!r}")
    return lo, hi


class _Options:
    """Resolved option set: CLI > config file > defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        cfg_path = self._args.get("config")
        self._cfg = _read_config_file(cfg_path) if cfg_path else {}

    def get(self, key: str, default=None, cast=None):
        val = self._args.get(key.replace("-", "_"))
        if val is None:
            val = self._cfg.get(key)
            if val is not None and cast is not None:
                if cast is bool:
                    val = val.lower() in ("1", "true", "yes")
                else:
                    val = cast(val)
        if val is None:
            return default
        return val

    def require(self, key: str, cast=None):
        val = self.get(key, cast=cast)
        if val is None:
            raise UsageError(f"missing required option --{key}")
        return val


def _map_model(opts: _Options) -> MapModel:
    c = opts.require("c", cast=str)
    c = _parse_complex_pair(c) if isinstance(c, str) else c
    radius = opts.get("radius", cast=float)
    return MapModel(c=c, R=radius if radius else 0.0)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _base_config(opts: _Options, m: MapModel, **extra) -> dict:
    cfg = {"c": [m.c.real, m.c.imag], "R": m.R}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def _cmd_trace_ray(opts: _Options) -> int:
    m = _map_model(opts)
    s = parse_address(opts.require("address", cast=str))
    lo, hi = _parse_t_range(opts.require("t", cast=str))
    n = opts.get("samples", 200, cast=int)
    depth = opts.get("depth", 40, cast=int)
    ray = sweep_hair(m, s, depth=depth, t_lo=lo, t_hi=hi, samples=n)
    lines = ["t,re,im"]
    for t, z in ray.samples:
        lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g}")
    _emit("\n".join(lines) + "\n", opts.get("out"))
    return 0


def _cmd_land(opts: _Options) -> int:
    m = _map_model(opts)
    s = parse_address(opts.require("address", cast=str))
    if period_of(s) <= 0:
        raise UsageError(f"address {s} is not purely periodic")
    tol = opts.get("tol", 1e-10, cast=float)
    max_iter = opts.get("max-iter", 10000, cast=int)
    res = landing_point(m, s, tol=tol, max_iter=max_iter)
    doc = {
        "status": res.status,
        "address": str(s),
        "iterations": res.iterations,
        "config": _base_config(opts, m, address=str(s), tol=tol,
                               max_iter=max_iter),
    }
    if res.landed:
        doc["point"] = [res.point.real, res.point.imag]
        doc["psi_derivative"] = [res.psi_derivative.real, res.psi_derivative.imag]
        doc["multiplier"] = [res.multiplier.real, res.multiplier.imag]
        doc["itinerary_ok"] = res.itinerary_ok
    if res.detail:
        doc["detail"] = res.detail
    _emit(dumps_canonical(doc) + "\n", opts.get("out"))
    if res.status == "landed":
        return 0
    if res.status == "not-converged":
        return EXIT_NOT_CONVERGED
    return EXIT_SINGULAR


def _cmd_cycles(opts: _Options) -> int:
    m = _map_model(opts)
    box = _parse_box(opts.require("box", cast=str))
    max_period = opts.get("max-period", 2, cast=int)
    grid = opts.get("grid", 40, cast=int)
    tol = opts.get("tol", 1e-12, cast=float)
    search = find_cycles(m, max_period, box, grid=grid, tol=tol,
                         verify_coverage=opts.get("verify-coverage", False, cast=bool))
    doc = {
        "config": _base_config(opts, m, box=list(box), max_period=max_period,
                               grid=grid, tol=tol),
        "cycles": [c.to_json_dict() for c in search.cycles],
        "warnings": search.warnings,
    }
    _emit(dumps_canonical(doc) + "\n", opts.get("out"))
    return 0


def _cmd_regions(opts: _Options) -> int:
    m = _map_model(opts)
    p = opts.get("p", 1, cast=int)
    window = opts.get("window", 1, cast=int)
    depth = opts.get("depth", 40, cast=int)
    box = _parse_box(opts.get("box", "-3,3,-7,7", cast=str))
    probe_grid = opts.get("probe-grid", 200, cast=int)
    graph = build_ray_graph(m, p, window, depth=depth, box=box, grid=probe_grid)
    doc = graph.to_json_dict()
    doc["config"] = _base_config(opts, m, p=p, window=window, depth=depth,
                                 box=list(box), probe_grid=probe_grid)
    if opts.get("audit", False, cast=bool):
        max_period = opts.get("max-period", p, cast=int)
        search = find_cycles(m, max_period, box, grid=opts.get("grid", 40, cast=int))
        sep = interior_fixed_point_audit(graph, search.cycles)
        doc["separation_audit"] = {
            "violations": sep.violations,
            "poisoned": sep.poisoned,
            "interior": {str(rid): [[z.real, z.imag] for z in pts]
                         for rid, pts in sorted(sep.regions_to_points.items())},
            "landing_matches": [[z.real, z.imag] for z in sep.landing_matches],
        }
    _emit(dumps_canonical(doc) + "\n", opts.get("out"))
    return 0


def _cmd_tails(opts: _Options) -> int:
    m = _map_model(opts)
    s = parse_address(opts.require("address", cast=str))
    p = period_of(s)
    if p <= 0:
        raise UsageError("tails subcommand needs a purely periodic address")
    res = landing_point(m, s)
    if not res.landed:
        print(f"address {s} does not land ({res.status}); no tail context",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED if res.status == "not-converged" else EXIT_SINGULAR
    window = opts.get("window", max(1, s.max_abs_entry), cast=int)
    depth = opts.get("depth", 40, cast=int)
    box = _parse_box(opts.get("box", "-3,3,-7,7", cast=str))
    probe_grid = opts.get("probe-grid", 120, cast=int)
    horizon = opts.get("horizon", 1000, cast=int)
    max_level = opts.get("max-level", 10, cast=int)
    samples = opts.get("samples", 16, cast=int)
    graph = build_ray_graph(m, p, window, depth=depth, box=box, grid=probe_grid)
    search = find_cycles(m, p, box, grid=opts.get("grid", 40, cast=int))
    target = None
    for cyc in search.cycles:
        if cyc.is_repelling and min(abs(res.point - z) for z in cyc.points) < 1e-6:
            target = cyc
            break
    if target is None:
        print("landing cycle not found in box; enlarge --box", file=sys.stderr)
        return EXIT_USAGE
    ctx = make_tail_context(m, target, graph, horizon=horizon)
    doc = {
        "config": _base_config(opts, m, address=str(s), window=window,
                               depth=depth, box=list(box),
                               probe_grid=probe_grid, horizon=horizon,
                               max_level=max_level, samples=samples),
        "r": ctx.r,
        "cycle": target.to_json_dict(),
        "levels": tail_diagnostics(ctx, s, max_level, samples=samples),
    }
    _emit(dumps_canonical(doc) + "\n", opts.get("out"))
    return 0


def _cmd_audit(opts: _Options) -> int:
    m = _map_model(opts)
    box = _parse_box(opts.get("box", "-3,3,-7,7", cast=str))
    max_period = opts.get("max-period", 2, cast=int)
    window = opts.get("window", 1, cast=int)
    depth = opts.get("depth", 40, cast=int)
    horizon = opts.get("horizon", 1000, cast=int)
    grid = opts.get("grid", 40, cast=int)
    probe_grid = opts.get("probe-grid", 120, cast=int)
    tol = opts.get("tol", 1e-12, cast=float)
    tol_band = opts.get("tol-band", 1e-6, cast=float)
    landing_tol = opts.get("landing-tol", 1e-10, cast=float)
    match_tol = opts.get("match-tol", 1e-6, cast=float)
    config = _base_config(
        opts, m, box=list(box), max_period=max_period, window=window,
        depth=depth, horizon=horizon, grid=grid, probe_grid=probe_grid,
        tol=tol, tol_band=tol_band, landing_tol=landing_tol,
        match_tol=match_tol)
    report = audit(m, box, max_period, window, depth=depth, horizon=horizon,
                   grid=grid, probe_grid=probe_grid, tol=tol,
                   tol_band=tol_band, landing_tol=landing_tol,
                   match_tol=match_tol, config=config)
    if opts.get("csv", False, cast=bool):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(report.to_csv_rows())
        _emit(buf.getvalue(), opts.get("out"))
    else:
        _emit(report.to_json() + "\n", opts.get("out"))
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.verdict == "satisfied":
        return 0
    if report.verdict == "violated":
        return EXIT_VIOLATED
    return EXIT_NOT_APPLICABLE


def _cmd_plot(opts: _Options) -> int:
    """Re-emit graph polylines and cycle points as a CSV bundle."""
    m = _map_model(opts)
    p = opts.get("p", 1, cast=int)
    window = opts.get("window", 1, cast=int)
    depth = opts.get("depth", 40, cast=int)
    box = _parse_box(opts.get("box", "-3,3,-7,7", cast=str))
    out_dir = Path(opts.get("out-dir", "raycensus-plot", cast=str))
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = build_ray_graph(m, p, window, depth=depth, box=box,
                            grid=opts.get("probe-grid", 120, cast=int))
    for i, arc in enumerate(graph.arcs):
        lines = ["re,im"]
        lines += [f"{v.real:.17g},{v.imag:.17g}" for v in arc.vertices]
        (out_dir / f"arc_{i}_{arc.address}.csv").write_text("\n".join(lines) + "\n")
    lines = ["address,re,im"]
    lines += [f"{arc.address},{arc.landing.real:.17g},{arc.landing.imag:.17g}"
              for arc in graph.arcs]
    (out_dir / "landing_points.csv").write_text("\n".join(lines) + "\n")
    search = find_cycles(m, opts.get("max-period", p, cast=int), box,
                         grid=opts.get("grid", 40, cast=int))
    lines = ["period,class,re,im"]
    for cyc in search.cycles:
        for z in cyc.points:
            lines.append(f"{cyc.period},{cyc.cls},{z.real:.17g},{z.imag:.17g}")
    (out_dir / "cycles.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {2 + len(graph.arcs)} CSV files to {out_dir}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="raycensus",
        description="Dynamic rays, cycles, tails and a refined "
                    "Fatou-Shishikura census for e^z + c")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--c", help="parameter as re,im")
        p.add_argument("--radius", type=float, help="override tract radius R")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("trace-ray", help="sample a dynamic ray to CSV")
    common(p)
    p.add_argument("--address")
    p.add_argument("--t", help="potential range lo:hi")
    p.add_argument("--samples", type=int)
    p.add_argument("--depth", type=int)

    p = sub.add_parser("land", help="landing point of a periodic ray")
    common(p)
    p.add_argument("--address")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)

    p = sub.add_parser("cycles", help="periodic orbits in a box")
    common(p)
    p.add_argument("--box")
    p.add_argument("--max-period", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--verify-coverage", action="store_const", const=True)

    p = sub.add_parser("regions", help="ray graph and basic regions")
    common(p)
    p.add_argument("--p", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--box")
    p.add_argument("--probe-grid", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--max-period", type=int)
    p.add_argument("--audit", action="store_const", const=True,
                   help="include the interior-fixed-point audit")

    p = sub.add_parser("tails", help="fundamental tail diagnostics")
    common(p)
    p.add_argument("--address")
    p.add_argument("--max-level", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--box")
    p.add_argument("--probe-grid", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("audit", help="refined Fatou-Shishikura census")
    common(p)
    p.add_argument("--box")
    p.add_argument("--max-period", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--probe-grid", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--tol-band", type=float)
    p.add_argument("--landing-tol", type=float)
    p.add_argument("--match-tol", type=float)
    p.add_argument("--csv", action="store_const", const=True,
                   help="flat per-cycle CSV instead of JSON")

    p = sub.add_parser("plot", help="CSV bundle of arcs/landing points/cycles")
    common(p)
    p.add_argument("--p", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--box")
    p.add_argument("--probe-grid", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--max-period", type=int)
    p.add_argument("--out-dir")

    return ap


_COMMANDS = {
    "trace-ray": _cmd_trace_ray,
    "land": _cmd_land,
    "cycles": _cmd_cycles,
    "regions": _cmd_regions,
    "tails": _cmd_tails,
    "audit": _cmd_audit,
    "plot": _cmd_plot,
}


#: flags whose values may start with "-" (negative reals); joined with "="
#: before parsing so argparse does not read them as option strings
_NEGATIVE_VALUE_FLAGS = {"--c", "--box", "--t"}


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_join_negative_values(argv))
    try:
        opts = _Options(args)
        return _COMMANDS[args.command](opts)
    except SingularValueHit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except TrappedSingularOrbit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (UsageError, AddressParseError, ValueError, PointLocationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
