"""Per-layer tracing from outside the package.

`Tracer.installed()` wraps public functions of the raycensus modules and
restores them on exit; no package code changes.  A function is imported
under several names (``raycensus.census.landing_point`` and
``raycensus.regions.landing_point`` are one object), and callers look it up
in their own module's namespace, so the wrapper replaces every module
attribute that holds the function.  RayGraph methods are wrapped on the
class.

Counters live in one table per thread and are summed when read, so the
census's worker pool needs no lock on the hot path.  Busy time (``*.s``) is
therefore summed across threads: while two workers land rays in parallel,
``rays.landing_point.s`` grows twice as fast as the wall clock.  Self time
(``*.self_s``) is the busy time minus that of traced calls made inside it on
the same thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter, defaultdict

MODULES = ("cli", "census", "addresses", "rays", "exponential", "cycles",
           "regions", "tails")

#: (layer, function) pairs timed at each call; the layer is the defining module
TIMED = (
    ("census", "audit"),
    ("census", "landing_search"),
    ("addresses", "enumerate_periodic"),
    ("rays", "landing_point"),
    ("rays", "singular_escape_status"),
    ("cycles", "find_cycles"),
    ("regions", "build_ray_graph"),
    ("regions", "interior_fixed_point_audit"),
    ("tails", "make_tail_context"),
    ("tails", "tail_exists"),
    ("tails", "piece_diameter"),
    ("tails", "tail_membership"),
    ("tails", "tail1_membership"),
)

#: RayGraph methods, timed like TIMED
METHODS = ("basic_region_of", "distance_to_graph", "region_near")

#: RayGraph methods counted under a name of their own: each call of
#: _edge_crosses is one probe-grid edge tested while labelling
COUNTED_METHODS = (("_edge_crosses", "regions.build_ray_graph.probe_edges"),)

#: called millions of times in tight loops: counted, never timed, because
#: two clock reads would cost more than the call itself
COUNTED = (
    ("exponential", "inverse_branch"),
    ("exponential", "evaluate"),
)


def _observe_landing(counts, distinct, key, args, kwargs, result):
    address = args[1] if len(args) > 1 else kwargs["s"]
    distinct[key].add(address)
    counts[key + ".iterations"] += result.iterations
    counts[key + "." + result.status.replace("-", "_")] += 1


def _observe_cycles(counts, distinct, key, args, kwargs, result):
    counts[key + ".cycles_found"] += len(result.cycles)


def _observe_graph(counts, distinct, key, args, kwargs, result):
    counts[key + ".arcs"] += len(result.arcs)
    counts[key + ".segments"] += sum(len(a.vertices) - 1 for a in result.arcs)


def _observe_tail1(counts, distinct, key, args, kwargs, result):
    counts[key + ".accepted"] += bool(result)


_OBSERVERS = {
    "rays.landing_point": _observe_landing,
    "cycles.find_cycles": _observe_cycles,
    "regions.build_ray_graph": _observe_graph,
    "tails.tail1_membership": _observe_tail1,
}


class _ThreadTable(threading.local):
    """Each thread sees its own attributes; __init__ runs once per thread."""

    def __init__(self, registry: list, lock: threading.Lock):
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.distinct: defaultdict = defaultdict(set)
        self.stack: list[float] = []  # child time of each open span
        with lock:
            registry.append((self.counts, self.seconds, self.distinct))


class Tracer:
    """Call counts and busy times of the traced layers for one invocation."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tables: list[tuple[Counter, defaultdict, defaultdict]] = []
        self._local = _ThreadTable(self._tables, self._lock)

    def _timed(self, key: str, fn):
        local = self._local
        observe = _OBSERVERS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                local.counts[f"{key}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                local.counts[key + ".calls"] += 1
                local.seconds[key + ".s"] += dt
                local.seconds[key + ".self_s"] += dt - child
            if observe is not None:
                observe(local.counts, local.distinct, key, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        pkg = importlib.import_module("raycensus")
        mods = [pkg] + [importlib.import_module(f"raycensus.{m}") for m in MODULES]
        saved: list[tuple[object, str, object]] = []
        try:
            for layer, name in TIMED + COUNTED:
                fn = getattr(importlib.import_module(f"raycensus.{layer}"), name)
                key = f"{layer}.{name}"
                wrapper = (self._counted(key + ".calls", fn) if (layer, name) in COUNTED
                           else self._timed(key, fn))
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            graph_cls = importlib.import_module("raycensus.regions").RayGraph
            for name in METHODS:
                fn = vars(graph_cls)[name]
                saved.append((graph_cls, name, fn))
                setattr(graph_cls, name, self._timed(f"regions.{name}", fn))
            for name, counter in COUNTED_METHODS:
                fn = vars(graph_cls)[name]
                saved.append((graph_cls, name, fn))
                setattr(graph_cls, name, self._counted(counter, fn))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def snapshot(self) -> dict[str, float]:
        """Totals over all threads; call once the traced work has ended."""
        with self._lock:
            tables = list(self._tables)
        out: defaultdict = defaultdict(int)
        distinct: defaultdict = defaultdict(set)
        for counts, seconds, sets in tables:
            for k, v in counts.items():
                out[k] += v
            for k, v in seconds.items():
                out[k] += v
            for k, v in sets.items():
                distinct[k] |= v
        for k, v in distinct.items():
            out[k + ".distinct"] = len(v)
        return dict(out)
