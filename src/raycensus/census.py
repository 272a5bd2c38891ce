"""Refined Fatou-Shishikura audit.

Counts the paper's left side, attracting + parabolic-suspected +
indifferent cycles + invisible-candidate repelling cycles, against q, the
number of singular orbits: q_effective = q - attracting - parabolic, and the
verdict is indifferent + invisible <= q_effective.  Every attracting or
parabolic cycle absorbs a singular orbit (Bergweiler), so the cycle classes
decide which orbits are spent.  A finite search can never certify rational
invisibility, so repelling cycles without a found landing address are always
reported as candidates, cross-referenced with trapped-singular-orbit
evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .addresses import InfiniteAddress
from .cycles import Box, Cycle, _fp, find_cycles
from .exponential import MapModel, singular_values
from .rays import (
    PeriodLandings,
    SingularFate,
    _closure_bound,
    landing_table,
    singular_escape_status,
)
from .regions import (
    PROBE_GRID,
    OnArcError,
    PointLocationError,
    RayGraph,
    _check_graph_limits,
    build_ray_graph,
)
from .tails import DEFAULT_HORIZON, _check_tail_limits, choose_radius, cycle_regions

SCHEMA_VERSION = "3"
DEFAULT_MATCH_TOL = 1e-6  # a landing point this close to a cycle point may match it


@dataclass
class LandingSearch:
    cycle: Cycle
    addresses: list[InfiniteAddress]          # addresses landing at the cycle
    failures: list[tuple[InfiniteAddress, str]]  # searched addresses that did not land

    @property
    def invisible_candidate(self) -> bool:
        return not self.addresses


def landing_search(m: MapModel, cycle: Cycle, row: PeriodLandings) -> LandingSearch:
    """The window addresses of one ray period whose rays land on the cycle.

    row (one period of landing_table) holds the landings of the window
    words of one multiple of the cycle period; rays landing at a period-m
    orbit always have period a multiple of m.  A landing point within
    DEFAULT_MATCH_TOL of a cycle point matches only if it also closes under
    f^m within the closure bound of the cycle's multiplier: a repelling
    point of higher period can sit that close to the cycle.
    """
    if not cycle.is_repelling:
        raise ValueError("landing search is defined for repelling cycles")
    failures = [(row.address(i), row.result(i).status)
                for i in np.flatnonzero(~row.landed).tolist()]
    near = np.zeros(len(row.points), dtype=bool)
    for z in cycle.points:
        near |= np.abs(row.points - z) < DEFAULT_MATCH_TOL
    w = row.points[near]
    fw, _, ok = _fp(m.c, w, cycle.period)
    closes = ok & (np.abs(fw - w) <= _closure_bound(cycle.multiplier, w))
    matched = [row.address(i) for i in np.flatnonzero(near)[closes].tolist()]
    return LandingSearch(cycle=cycle, addresses=matched, failures=failures)


def _staged_search(m: MapModel, repelling: list[Cycle], window: int,
                   max_period: int) -> tuple[list[LandingSearch], list[int]]:
    """One LandingSearch per repelling cycle, and the sorted ray periods landed.

    All rays landing at one periodic point have the same period (Milnor,
    Dynamics in One Complex Variable, Lemma 18.12), and f maps the rays at
    one cycle point onto those at the next.  So stage q = 1, 2, ...,
    max_period lands only the periods q*m that cycles still without an
    address need, reusing the periods landed before, and a cycle leaves
    the search at the first stage that matches it.  A cycle's failures are
    those of every period it searched.
    """
    searches = [LandingSearch(cyc, [], []) for cyc in repelling]
    table: dict[int, PeriodLandings] = {}
    for q in range(1, max_period + 1):
        todo = [ls for ls in searches if ls.invisible_candidate]
        table.update(landing_table(m, window, {q * ls.cycle.period for ls in todo}
                                   - table.keys()))
        for ls in todo:
            found = landing_search(m, ls.cycle, table[q * ls.cycle.period])
            ls.addresses = found.addresses
            ls.failures += found.failures
    return searches, sorted(table)


@dataclass
class CensusReport:
    config: dict
    map_c: complex
    map_R: float
    cycles: list[Cycle]
    searches: list[LandingSearch]
    fate: SingularFate
    n_attracting: int = 0
    n_indifferent: int = 0
    n_parabolic_suspected: int = 0
    n_repelling: int = 0
    n_invisible_candidates: int = 0
    q: int = 1
    q_effective: int = 1
    ray_periods_landed: list[int] = field(default_factory=list)
    singular_status: str = "undetermined"
    rays_land_in_window: bool = True
    warnings: list[str] = field(default_factory=list)
    trichotomy: list[dict] = field(default_factory=list)
    verdict: str = "not-applicable"

    def to_json_dict(self) -> dict:
        search_by_cycle = {id(s.cycle): s for s in self.searches}
        cycles_json = []
        for cyc in self.cycles:
            d = cyc.to_json_dict()
            if cyc.is_repelling:
                search = search_by_cycle.get(id(cyc))
                if search is not None:
                    d["landing_addresses"] = [str(a) for a in search.addresses]
                    d["invisible_candidate"] = search.invisible_candidate
            cycles_json.append(d)
        fate_json = {
            "kind": self.fate.kind,
            "horizon": self.fate.horizon,
            "max_modulus": self.fate.max_modulus,
        }
        if self.fate.address is not None:
            fate_json["address"] = str(self.fate.address)
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "map": {"family": "exponential",
                    "c": [self.map_c.real, self.map_c.imag],
                    "R": self.map_R},
            "cycles": cycles_json,
            "counts": {
                "attracting": self.n_attracting,
                "indifferent": self.n_indifferent,
                "parabolic_suspected": self.n_parabolic_suspected,
                "repelling": self.n_repelling,
                "invisible_candidates": self.n_invisible_candidates,
            },
            "q": self.q,
            "q_effective": self.q_effective,
            "ray_periods_landed": self.ray_periods_landed,
            "singular": {
                "status": self.singular_status,
                "escape": fate_json,
            },
            "hypotheses": {
                "periodic_rays_land_in_window": self.rays_land_in_window,
                "singular_escapes_along_periodic_ray":
                    self.fate.kind == "escapes-along-periodic-ray",
            },
            "trichotomy": self.trichotomy,
            "warnings": self.warnings,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_json_dict())


def dumps_canonical(doc) -> str:
    """Deterministic JSON: schema-ordered keys, repr floats, no NaN.

    Returns exactly json.dumps(doc, indent=2, allow_nan=False), which indent
    confines to the pure-Python encoder, in one walk of the document that
    formats lists of floats and of [float, float] pairs in bulk.  A document
    the walk does not take (a non-finite float, a type json does not know, a
    key that is not a str, a circular reference) is handed to json.dumps,
    which writes it or raises its own error.
    """
    out: list[str] = []
    try:
        _encode(doc, "\n", out)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(doc, indent=2, allow_nan=False)
    return "".join(out)


def _finite(text: str) -> str:
    """text, the repr of floats, unless one of them is inf or nan."""
    if "n" in text:
        raise ValueError("out of range float")
    return text


def _float_items(items, nl: str) -> str | None:
    """The items of a list of floats or of [float, float] pairs, one level
    in at newline-indent nl, as JSON text; None for any other list."""
    try:
        if set(map(type, items)) <= {list, tuple} and set(map(len, items)) == {2}:
            inner = nl + "  "
            flat = map(float.__repr__, chain.from_iterable(items))
            pairs = map(("," + inner).join, zip(flat, flat))
            return _finite("[" + inner + (nl + "]," + nl + "[" + inner).join(pairs) + nl + "]")
        return _finite(("," + nl).join(map(float.__repr__, items)))
    except TypeError:  # an item that is not a float (float.__repr__ takes subclasses)
        return None


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(o, nl: str, out: list[str]):
    """Appends the JSON text of o, nested at newline-indent nl, to out."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append(_CONSTANTS[o])
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_finite(float.__repr__(o)))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        text = _float_items(o, inner)
        if text is not None:
            out.append("[" + inner + text)
        else:
            sep = "[" + inner
            for v in o:
                out.append(sep)
                _encode(v, inner, out)
                sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            out.append(sep + encode_basestring_ascii(k) + ": ")  # TypeError unless str
            _encode(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _trichotomy_evidence(m: MapModel, cycle: Cycle, graph: RayGraph, horizon: int) -> dict:
    """choose_radius/itinerary evidence for one invisible candidate."""
    evidence: dict = {"cycle_period": cycle.period,
                      "cycle_z0": [cycle.points[0].real, cycle.points[0].imag]}
    try:
        b_regions = cycle_regions(graph, cycle)
        res = choose_radius(m, cycle, graph, b_regions, horizon)
        evidence["graph_failures"] = [[str(s), st] for s, st in graph.failures]
        evidence["radius_status"] = res.status
        evidence["follow_steps"] = res.follow_steps
        if res.r is not None:
            evidence["r"] = res.r
        if res.status == "trapped-unbounded":
            evidence["case"] = "singular orbit escapes while following the " \
                               "cycle regions (case 1/2 evidence at horizon)"
        elif res.follow_steps >= horizon:
            evidence["case"] = "singular orbit follows the cycle regions to " \
                               "the horizon (case 1 evidence, bounded)"
        else:
            evidence["case"] = "no trapped singular orbit observed at this " \
                               "horizon (numerics or window limitation)"
    except (OnArcError, PointLocationError, ValueError) as exc:
        evidence["error"] = str(exc)
    return evidence


def audit(m: MapModel, box: Box, max_period: int, window: int,
          horizon: int = DEFAULT_HORIZON, grid: int = 40,
          config: dict | None = None) -> CensusReport:
    """Full census pipeline: cycles, landing searches, counts, verdict."""
    # bad limits exit before the cycle search, not after it
    _check_tail_limits(horizon=horizon)
    _check_graph_limits(window, PROBE_GRID)
    cycles = find_cycles(m, max_period, box, grid=grid).cycles
    fate = singular_escape_status(m, horizon)

    report = CensusReport(
        config=config or {}, map_c=m.c, map_R=m.R, cycles=cycles,
        searches=[], fate=fate)
    report.n_attracting = sum(c.is_attracting for c in cycles)
    report.n_indifferent = sum(c.cls == "indifferent" for c in cycles)
    report.n_parabolic_suspected = sum(c.cls == "parabolic-suspected" for c in cycles)
    report.n_repelling = sum(c.is_repelling for c in cycles)
    report.q = len(singular_values(m))
    # every attracting or parabolic cycle absorbs a singular orbit (Bergweiler),
    # so the verdict below is the paper's inequality with both on the left
    report.q_effective = report.q - report.n_attracting - report.n_parabolic_suspected

    if fate.kind in ("escapes-along-periodic-ray", "escapes-other"):
        report.singular_status = {"escapes-along-periodic-ray":
                                  "escaping-along-periodic-ray",
                                  "escapes-other": "escaping-other"}[fate.kind]
    elif report.n_attracting or report.n_parabolic_suspected:
        report.singular_status = "in-attracting-or-parabolic-basin"

    if fate.kind == "escapes-along-periodic-ray":
        report.verdict = "not-applicable"
        report.warnings.append(
            f"singular value escapes along periodic ray {fate.address}; "
            "the census requires no such escape")
        return report

    report.searches, report.ray_periods_landed = _staged_search(
        m, [cyc for cyc in cycles if cyc.is_repelling], window, max_period)
    # cycles of one period search the same rows: one warning per address
    failed = list(dict.fromkeys(f"address {s} did not land: {status}"
                                for ls in report.searches for s, status in ls.failures))
    report.rays_land_in_window = not failed
    report.warnings.extend(failed)

    candidates = [ls.cycle for ls in report.searches if ls.invisible_candidate]
    report.n_invisible_candidates = len(candidates)

    if not report.rays_land_in_window:
        report.verdict = "not-applicable"
        report.warnings.append("landing failures in window; the separation "
                               "structure of the ray graph is not verified")
        return report

    # the ray graph depends on the period alone, so candidates of one period share it
    graphs = {p: build_ray_graph(m, p, window, box=box, grid=PROBE_GRID)
              for p in dict.fromkeys(cyc.period for cyc in candidates)}
    for cyc in candidates:
        ev = _trichotomy_evidence(m, cyc, graphs[cyc.period], horizon)
        report.trichotomy.append(ev)
        if report.singular_status == "undetermined" and \
                ev.get("follow_steps", 0) >= horizon:
            report.singular_status = f"trapped-case-1(horizon={horizon})"

    lhs = report.n_indifferent + report.n_invisible_candidates
    report.verdict = "satisfied" if lhs <= report.q_effective else "violated"
    if report.verdict == "violated":
        report.warnings.append(
            "inequality violated: treat as a bug or numerics failure; "
            "reproduction parameters are embedded in this report")
    return report
