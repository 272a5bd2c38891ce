#!/usr/bin/env python3
"""raycensus benchmark: the audit, regions and tails pipelines, end to end.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each invocation calls the `raycensus` CLI entry point in-process with stdout
and stderr captured in memory, with no thread flag, and checks the output
against independent oracles.  --trace 0 prints the end-to-end metrics;
--trace 1 wraps the package's layers (see tracer.py) and prints per-layer
metrics.  The last line of stdout is one JSON object; the lines before it
are a readable report and the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# perfbench/ is on sys.path as the script's directory; neither module
# imports raycensus, which is loaded from ./src by _import_package()
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

#: set-up is repeated this often in a run and its median reported
SETUP_REPEATS = 9
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, raycensus.cli"

#: per-layer metrics printed by --trace 1, with units, in report order
PER_LAYER = (
    ("cli.stdout_bytes", "bytes"),
    ("cli.stderr_lines", "count"),
    ("census.audit.s", "s"),
    ("census.landing_search.calls", "count"),
    ("census.landing_search.s", "s"),
    ("addresses.enumerate_periodic.calls", "count"),
    ("addresses.enumerate_periodic.s", "s"),
    ("rays.landing_point.calls", "count"),
    ("rays.landing_point.distinct", "count"),
    ("rays.landing_point.useful_ratio", "ratio"),
    ("rays.landing_point.s", "s"),
    ("rays.landing_point.iterations", "count"),
    ("rays.landing_point.not_converged", "count"),
    ("rays.landing_point.singular_hit", "count"),
    ("rays.landing_point.escaped_pullback", "count"),
    ("rays.singular_escape_status.s", "s"),
    ("exponential.inverse_branch.calls", "count"),
    ("exponential.evaluate.calls", "count"),
    ("cycles.find_cycles.calls", "count"),
    ("cycles.find_cycles.s", "s"),
    ("cycles.find_cycles.cycles_found", "count"),
    ("regions.build_ray_graph.calls", "count"),
    ("regions.build_ray_graph.s", "s"),
    ("regions.build_ray_graph.self_s", "s"),
    ("regions.build_ray_graph.arcs", "count"),
    ("regions.build_ray_graph.segments", "count"),
    ("regions.build_ray_graph.probe_edges", "count"),
    ("regions.basic_region_of.calls", "count"),
    ("regions.basic_region_of.s", "s"),
    ("regions.basic_region_of.on_arc", "count"),
    ("regions.distance_to_graph.calls", "count"),
    ("regions.distance_to_graph.s", "s"),
    ("regions.region_near.calls", "count"),
    ("regions.interior_fixed_point_audit.s", "s"),
    ("tails.make_tail_context.s", "s"),
    ("tails.tail_exists.calls", "count"),
    ("tails.tail_exists.s", "s"),
    ("tails.piece_diameter.calls", "count"),
    ("tails.piece_diameter.s", "s"),
    ("tails.tail_membership.calls", "count"),
    ("tails.tail_membership.s", "s"),
    ("tails.tail1_membership.calls", "count"),
    ("tails.tail1_membership.s", "s"),
    ("tails.tail1_membership.accepted_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


def _import_package():
    """Import raycensus from ./src of this checkout, never from elsewhere."""
    if not (SRC / "raycensus" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC}/raycensus not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import raycensus.cli
    if Path(raycensus.__file__).resolve().parent != SRC / "raycensus":
        sys.exit(f"perfbench: imported raycensus from {raycensus.__file__}")
    return raycensus.cli


@dataclass
class Invocation:
    """What a run keeps of one pipeline call.

    The output text is dropped once checked, so the run's peak memory does
    not grow with the number of invocations that fit into --seconds.
    """

    c: complex
    rc: int | None
    wall: float
    check: workloads.Check
    stdout_bytes: int
    stderr_lines: int
    digest: str  # of exit code, stdout and stderr
    layers: dict[str, float] | None = None

    @property
    def failed(self) -> bool:
        return not self.check.ok


def _invoke(cli, wl, c: complex, trace: tracer.Tracer | None = None) -> Invocation:
    """One pipeline call as a user would make it, then its output check."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    # a user's process runs one pipeline: start each from the same heap, so
    # neither peak memory nor wall time carries the previous call's garbage
    gc.collect()
    with contextlib.ExitStack() as stack:
        if trace is not None:
            stack.enter_context(trace.installed())
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        t0 = time.perf_counter()
        try:
            rc = cli.main(wl.argv(c))
        except (Exception, SystemExit):
            traceback.print_exc()  # into the captured stderr
        wall = time.perf_counter() - t0
    stdout, stderr = out.getvalue(), err.getvalue()
    chk = workloads.Check()
    if rc is None:
        chk.problems.append("pipeline raised: " + stderr.strip().splitlines()[-1])
    else:
        try:
            chk = wl.check(c, rc, stdout)
        except Exception as exc:  # a malformed output is a failed invocation
            chk.problems.append(f"check raised {type(exc).__name__}: {exc}")
    digest = hashlib.sha256(f"{rc}\0{stdout}\0{stderr}".encode()).hexdigest()
    inv = Invocation(c, rc, wall, chk, len(stdout.encode()), stderr.count("\n"),
                     digest)
    if trace is not None:
        inv.layers = trace.snapshot()
    return inv


def _setup_seconds() -> float:
    """Median time for a fresh interpreter to import numpy and raycensus."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantise the figure; a blocking wait with a timer to kill a hang
        # does not
        guard = threading.Timer(120, proc.kill)
        guard.start()
        rc = proc.wait()
        times.append(time.perf_counter() - t0)
        guard.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
    return statistics.median(times)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _default_threads(cli) -> int | None:
    """Worker threads the CLI resolves when no --threads flag is given."""
    try:
        return cli._threads(cli._Options(argparse.Namespace(threads=None, config=None)))
    except AttributeError:  # the CLI no longer has a thread pool
        return None


def _metadata(cli, seed: int, params: list[complex]) -> dict:
    import numpy
    return {
        "seed": seed,
        "c": [[c.real, c.imag] for c in params],
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cli_default_threads": _default_threads(cli),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _repeat(step, seconds: float):
    """Calls step() until the call that ends closest to `seconds`, at least once.

    Whole steps keep each sweep's parameters balanced; stopping at the
    nearest boundary keeps a run near `seconds` even when one step is long.
    """
    start = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / n) >= seconds:
            return


def _end_to_end(cli, wl, params, seconds, setup_s, report) -> tuple[dict, list]:
    """Sweeps over the parameters for about `seconds`; wall_s is the median
    over sweeps of the mean invocation time within a sweep."""
    invs: list[Invocation] = []
    sweep_means: list[float] = []

    def sweep():
        done = [_invoke(cli, wl, c) for c in params]
        invs.extend(done)
        sweep_means.append(statistics.fmean(i.wall for i in done))

    _repeat(sweep, seconds)
    one_sweep = invs[:len(params)]
    shares = [i.check.unlanded / i.check.candidates
              for i in one_sweep if i.check.candidates]
    unlanded = statistics.fmean(shares) if shares else 1.0  # no output to count
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sweep_means), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "landed_share": (1.0 - unlanded, "ratio"),
    }
    report.append(_row("unlanded_share", unlanded, "ratio", "; ".join(
        f"{i.check.unlanded} of {i.check.candidates} distinct candidate addresses "
        f"at c={c_text(i.c)}" for i in one_sweep)))
    report.append(f"# wall_s: median over {len(sweep_means)} sweeps of "
                  f"{len(params)} invocations")
    return metrics, invs


def _per_layer(cli, wl, params, seconds, report) -> tuple[dict, list]:
    """Alternates plain and traced invocations at the sweep's first c.

    Layer metrics are medians over the traced invocations; tracing must not
    change the pipeline's output, byte for byte.
    """
    c = params[0]
    plain: list[Invocation] = []
    traced: list[Invocation] = []

    def pair():
        plain.append(_invoke(cli, wl, c))
        traced.append(_invoke(cli, wl, c, tracer.Tracer()))

    _repeat(pair, seconds)
    for inv in traced:
        if inv.digest != plain[0].digest:
            inv.check.problems.append("traced output differs from untraced output")
    for inv in traced:
        lay = inv.layers
        lay["cli.stdout_bytes"] = inv.stdout_bytes
        lay["cli.stderr_lines"] = inv.stderr_lines
        calls = lay.get("rays.landing_point.calls", 0)
        lay["rays.landing_point.useful_ratio"] = (
            lay.get("rays.landing_point.distinct", 0) / calls if calls else 0.0)
        calls = lay.get("tails.tail1_membership.calls", 0)
        lay["tails.tail1_membership.accepted_ratio"] = (
            lay.get("tails.tail1_membership.accepted", 0) / calls if calls else 0.0)
        lay["regions.basic_region_of.on_arc"] = lay.get(
            "regions.basic_region_of.raised.OnArcError", 0)
    overhead = (statistics.median(i.wall for i in traced)
                - statistics.median(i.wall for i in plain))
    metrics = {}
    for name, unit in PER_LAYER:
        value = overhead if name == "trace.overhead_s" else statistics.median(
            i.layers.get(name, 0) for i in traced)
        metrics[name] = (value, unit)
    report.append(f"# per-layer: median over {len(traced)} traced invocations at "
                  f"c={c_text(c)}; {len(plain)} untraced for the overhead")
    report.append("# busy times (.s) are summed over the census's worker threads")
    return metrics, plain + traced


def c_text(c: complex) -> str:
    return f"{c.real:.6f}{c.imag:+.6f}i"


def _row(name: str, value: float, unit: str, note: str = "") -> str:
    text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
    return f"{name:44s} {text} {unit}" + (f" ({note})" if note else "")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = _import_package()
    wl = workloads.WORKLOADS[workload]
    params = workloads.parameters(seed)
    report: list[str] = []
    if trace:
        metrics, invs = _per_layer(cli, wl, params, seconds, report)
    else:
        metrics, invs = _end_to_end(cli, wl, params, seconds, _setup_seconds(), report)
    failed = [i for i in invs if i.failed]
    print(f"# workload {workload}, seed {seed}, trace {int(trace)}")
    for name, (value, unit) in metrics.items():
        print(_row(name, value, unit))
    print(_row("failed_share", len(failed) / len(invs), "ratio",
               f"{len(failed)} of {len(invs)} invocations"))
    for line in report:
        print(line)
    for inv in failed[:5]:
        print(f"# FAILED at c={c_text(inv.c)} exit {inv.rc}: "
              + "; ".join(inv.check.problems[:5]))
    print(json.dumps({"meta": _metadata(cli, seed, params)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))], timeout=900)
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
