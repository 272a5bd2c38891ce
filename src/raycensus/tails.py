"""Fundamental tails and pieces relative to a repelling cycle.

A level-n tail is known only through membership predicates: forward images
must follow the cycle's basic regions and fundamental-domain labels, ending
in a level-1 tail (unbounded slice of a fundamental domain beyond radius r).
Piece diameters are sample-based lower bounds; all trichotomy verdicts are
horizon-qualified.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .addresses import InfiniteAddress, project, shift_by
from .cycles import Cycle, _in_box
from .exponential import (
    TWO_PI,
    MapModel,
    evaluate,
    forward_orbit,
    in_fundamental_domain_exact,
    is_escaped,
    singular_values,
    strip_of,
)
from .rays import ESCAPE_THRESHOLD, _HIT_CUT, _HIT_SINGULAR, _NO_HIT, _psi_batch
from .regions import ON_ARC, OnArcError, PointLocationError, RayGraph

DEFAULT_HORIZON = 1000
RADIUS_MARGIN = 1.25
_PAIR_CAP = 65536  # point pairs held by one numpy pass of piece_diameter


class TrappedSingularOrbit(RuntimeError):
    """Singular orbit escapes while following the cycle's regions."""


@dataclass
class RadiusResult:
    status: str  # "radius" | "trapped-unbounded"
    r: float | None
    follow_steps: int            # observed n(s), capped at the horizon


@dataclass(frozen=True)
class TailContext:
    map: MapModel
    cycle: Cycle
    graph: RayGraph
    b_regions: tuple[int, ...]   # region id of z_i for i = 0..m-1
    r: float  # radius of D_r, which contains D: r >= map.R
    # tau_1 image grids of the pieces by (label, samples), the tau_1 witness
    # verdict of each label and the newest pull-back of each _pull_back slot;
    # they depend only on the fields above, which is why the context is frozen
    _image_grids: dict[tuple[int, int], tuple[complex, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _tail1_witness: dict[int, bool | OnArcError | PointLocationError] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _pullbacks: dict[tuple, tuple[int, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the level-1 tails are closed under moving right only for r > |c|
        if not self.r >= self.map.R:
            raise ValueError(f"r = {self.r!r} below R = {self.map.R!r}: D_r must contain D")


@dataclass
class TailAddressRecord:
    address: tuple[int, ...]
    exists: bool
    witness: complex | None = None
    reason: str = ""


@dataclass
class PieceEstimate:
    diameter: float
    n_samples: int
    empty: bool


@dataclass
class PieceMapCheck:
    passed: bool
    n_checked: int
    n_failed: int


def choose_radius(m: MapModel, cycle: Cycle, graph: RayGraph,
                  b_regions: tuple[int, ...], horizon: int = DEFAULT_HORIZON) -> RadiusResult:
    """Radius r with D_r containing D, the cycle, and the tracked part of P_B.

    Follows each singular value while its itinerary matches the cycle's
    regions.  If the orbit escapes while still conformant the trichotomy
    cannot be in case (3) at this horizon and a trapped/unbounded verdict is
    returned instead of a radius.  The orbit up to the horizon is read in
    windows of doubling length, so at most about twice the points the orbit
    follows are read.  Each window locates, in one call, only the points no
    earlier window located, so each distinct point is located once.  As
    dict keys, 0.0 and -0.0 are one point; no location step depends on the
    sign of a zero.

    A point that cannot be located raises, unless it lies outside the
    graph's box on an orbit that escapes within the horizon: the orbit
    then left the box while following, and it ends trapped-unbounded.
    """
    _check_tail_limits(horizon=horizon)
    mper = cycle.period
    best = max(m.R, max(abs(z) for z in cycle.points))
    follow = 0
    located: dict[complex, tuple[int, int]] = {}  # point -> (region id, status)
    for s in singular_values(m):
        try:
            rid = graph.region_near(s)
        except (OnArcError, PointLocationError):
            continue
        if rid not in b_regions:
            continue
        i0 = b_regions.index(rid)
        orbit, out = forward_orbit(m, s, horizon, ESCAPE_THRESHOLD)
        escapes = out is not None
        beyond_box = False
        tracked = lo = 1
        while tracked == lo < len(orbit):
            hi = min(2 * lo, len(orbit))
            new = list(dict.fromkeys(z for z in orbit[lo:hi] if z not in located))
            if new:
                ids, _, status = graph.regions_near(new)
                located.update(zip(new, zip(ids.tolist(), status.tolist())))
            for j in range(lo, hi):
                rw, st = located[orbit[j]]
                if rw != b_regions[(i0 + j) % mper]:
                    if rw < 0 and st != ON_ARC:
                        beyond_box = escapes and not _in_box(graph.box, orbit[j])
                        if not beyond_box:
                            raise graph.location_error(orbit[j], st)
                    break
                tracked = j + 1
            lo = hi
        if tracked > 1:
            follow = tracked - 1
        if beyond_box or (escapes and tracked == len(orbit)):  # followed until it escaped
            return RadiusResult("trapped-unbounded", None, follow)
        best = max(best, max(abs(t) for t in orbit[:tracked]))
        img = evaluate(m, orbit[tracked - 1])
        if not is_escaped(img):
            best = max(best, abs(img))
    return RadiusResult("radius", RADIUS_MARGIN * best, follow)


def cycle_regions(graph: RayGraph, cycle: Cycle) -> tuple[int, ...]:
    """Region of every cycle point, located in one call (a point on the
    graph takes the adjacent region found by compass probing)."""
    ids, _, status = graph.regions_near(cycle.points)
    for z, rid, st in zip(cycle.points, ids.tolist(), status.tolist()):
        if rid < 0:
            raise graph.location_error(z, st)
    return tuple(ids.tolist())


def make_tail_context(m: MapModel, cycle: Cycle, graph: RayGraph,
                      horizon: int = DEFAULT_HORIZON) -> TailContext:
    """TailContext for a repelling cycle whose points sit in graph regions,
    with the radius of choose_radius.

    Cycle points lying on the graph (landing points) are assigned the
    adjacent region deterministically; the construction is meant for
    interior cycle points, so downstream results for on-graph cycles are
    heuristic extensions.
    """
    if not cycle.is_repelling:
        raise ValueError("tails are defined relative to a repelling cycle")
    if graph.p % cycle.period != 0:
        raise ValueError("graph iterate p must be a multiple of the cycle period")
    b_regions = cycle_regions(graph, cycle)
    res = choose_radius(m, cycle, graph, b_regions, horizon)
    if res.status != "radius":
        raise TrappedSingularOrbit(
            f"singular orbit escapes following the cycle regions "
            f"(followed {res.follow_steps} steps)")
    return TailContext(map=m, cycle=cycle, graph=graph, b_regions=b_regions, r=res.r)


# ---------------------------------------------------------------------------
# membership predicates

def _verdict(result: bool | Exception) -> bool:
    if isinstance(result, Exception):
        raise result
    return result


def _tail1_verdicts(ctx: TailContext, label: int, points: list[complex],
                    located: tuple[np.ndarray, ...] | None = None) -> list[bool | Exception]:
    """tail1_membership of every point, or the location error it raises.

    The points in F_label are located in one call, unless `located` holds
    the ids, witnesses and statuses of regions_near for all the points, and
    the rightward segments of those in B_0 are one crossing test.

    F_label is not tested again right of a point in it.  With X = e^{Re z}
    and beta = Re(c e^{-i Im z}), |f(z)|^2 = X^2 + 2 beta X + |c|^2 exceeds
    r^2 > |c|^2 only where X > -2 beta, right of the vertex -beta, so |f|
    only grows along the rightward ray; Im z, hence the strip, and the
    direction of f(z) - c = X e^{i Im z}, hence the side of the cut, stay.
    """
    m = ctx.map
    graph = ctx.graph
    out: list[bool | Exception] = [False] * len(points)
    cand = [i for i, z in enumerate(points) if not is_escaped(z)
            and in_fundamental_domain_exact(m, z, label, radius=ctx.r)]
    if located is None:
        ids, witnesses, status = graph.regions_near([points[i] for i in cand])
    else:
        ids, witnesses, status = (a[cand] for a in located)
    in_b0 = ids == ctx.b_regions[0]
    # the crossing test runs from the located side when z sits on an arc
    start = witnesses[in_b0]
    end = start.copy()
    end.real = m.truncation + 1.0
    clear = in_b0.copy()
    clear[in_b0] = ~graph._blocked(start, end)
    for k, i in enumerate(cand):
        out[i] = graph.location_error(points[i], status[k]) if ids[k] < 0 else bool(clear[k])
    return out


def tail1_membership(ctx: TailContext, label: int, z: complex) -> bool:
    """z in the level-1 tail of `label`: the slice of F_label beyond r.

    The certificate is three tests: z is in F_label for the r-level slit
    plane (f(z) outside the closed disk of radius r and off delta_r), its
    region is B_0, and its rightward segment crosses no arc.
    """
    return _verdict(_tail1_verdicts(ctx, label, [z])[0])


def tail_membership(ctx: TailContext, address: tuple[int, ...], points: Sequence[complex],
                    lengths: Sequence[int]) -> list[bool | Exception]:
    """Per point k, whether it is in the level-n tail of address[:lengths[k]]
    (length m(n-1)+1), or the location error the point-by-point walk meets.

    Forward images must follow the cycle's regions and the address labels
    index by index, the final image passing the level-1 test.  Each orbit
    runs while it stays unescaped in the strips of its labels.  All orbit
    points, the final ones included, are located in one call and read in
    order; the final points are tested per label.
    """
    mper = ctx.cycle.period
    for n in lengths:
        if not 1 <= n <= len(address) or (n - 1) % mper != 0:
            raise ValueError(f"address length {n} is not m(n-1)+1 <= {len(address)} "
                             f"for m={mper}")
    orbits = []
    for w, n in zip(points, lengths, strict=True):
        orbit = [w]
        for label in address[:n - 1]:
            if is_escaped(w) or strip_of(w) != label:
                break
            w = evaluate(ctx.map, w)
            orbit.append(w)
        orbits.append(orbit)
    located = ctx.graph.regions_near([w for orbit in orbits for w in orbit])
    ids, status = located[0].tolist(), located[2].tolist()
    verdicts: list[bool | Exception] = [False] * len(orbits)
    finals: dict[int, tuple[list[int], list[int]]] = {}  # label -> owners, flat indices
    base = 0
    for k, (orbit, n) in enumerate(zip(orbits, lengths)):
        for i in range(len(orbit) - 1):
            if ids[base + i] != ctx.b_regions[i % mper]:
                if ids[base + i] < 0:
                    verdicts[k] = ctx.graph.location_error(orbit[i], status[base + i])
                break
        else:
            if len(orbit) == n and not is_escaped(orbit[-1]):
                owners, at = finals.setdefault(address[n - 1], ([], []))
                owners.append(k)
                at.append(base + n - 1)
        base += len(orbit)
    for label, (owners, at) in finals.items():
        tested = _tail1_verdicts(ctx, label, [orbits[k][-1] for k in owners],
                                 tuple(a[at] for a in located))
        for k, verdict in zip(owners, tested):
            verdicts[k] = verdict
    return verdicts


def _reason(verdict: bool | Exception, failed: str) -> str:
    """The record reason of a membership verdict, "" where it holds."""
    return ("on-arc" if isinstance(verdict, OnArcError) else
            "no-region" if isinstance(verdict, PointLocationError) else
            "" if verdict else failed)


def _pull_back(ctx: TailContext, key: tuple, s: InfiniteAddress, depth: int,
               start: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Every point of `start` pulled back along s.prefix(depth) in one
    _psi_batch pass, and per point the code of the first singular value
    (_HIT_SINGULAR) or branch cut (_HIT_CUT) it met, or _NO_HIT.

    For a purely periodic s of period P the newest result is kept on the
    context per key and residue of depth mod P, so callers pass the same
    `start` for every depth of one slot.  A kept depth d0 <= depth is
    continued along s.prefix(depth - d0): the last d0 entries of
    s.prefix(depth) are s.prefix(d0) and branches apply rightmost first, so
    the branch steps are the same, in the same order, and a point keeps the
    code of its first hit.  Other addresses start from scratch.
    """
    slot = None if s.preperiod else (key, s, depth % len(s.period))
    done, points, hits = ctx._pullbacks.get(slot, (0, start, _NO_HIT))
    if done > depth:
        done, points, hits = 0, start, _NO_HIT
    shifts = 1j * (TWO_PI * np.array([s.prefix(depth - done)]))
    with np.errstate(all="ignore"):  # a row that hit goes on as inf or nan
        points, new = _psi_batch(ctx.map.c, shifts, np.asarray(points, dtype=complex))
    hits = np.where(hits != _NO_HIT, hits, new)
    if slot is not None:
        ctx._pullbacks[slot] = (depth, points, hits)
    return points, hits


def tail_exists(ctx: TailContext, s: InfiniteAddress,
                levels: Sequence[int]) -> list[TailAddressRecord]:
    """Per level of `levels`, in the order given: a level-1 witness pulled
    back along the address, and whether it is in the level-n tail.

    The levels are walked in increasing order.  The tau_1 witness of a
    label is tested once per context, and for a purely periodic address the
    witness is pulled back from the newest level of the same residue
    (_pull_back).  The witnesses of all levels are then tested in one
    tail_membership call.
    """
    if any(n < 1 for n in levels):
        raise ValueError("n must be >= 1")
    mper = ctx.cycle.period
    address = project(s, max(levels, default=1), mper)
    x_w = max(ctx.map.seed_potential, ctx.r + 1.0)
    records: dict[int, TailAddressRecord] = {}
    tested: list[tuple[int, tuple[int, ...], complex]] = []  # level, labels, witness
    for n in sorted(set(levels)):
        labels = address[:mper * (n - 1) + 1]
        last = labels[-1]
        w1 = complex(x_w, TWO_PI * last)
        if last not in ctx._tail1_witness:
            try:
                ctx._tail1_witness[last] = tail1_membership(ctx, last, w1)
            except (OnArcError, PointLocationError) as exc:
                ctx._tail1_witness[last] = exc.with_traceback(None)
        reason = _reason(ctx._tail1_witness[last], "no-tail1-witness")
        if not reason:
            points, hits = _pull_back(ctx, ("witness",), s, len(labels) - 1, [w1])
            reason = {_HIT_SINGULAR: "singular-hit", _HIT_CUT: "cut-hit"}.get(hits[0], "")
        if reason:
            records[n] = TailAddressRecord(labels, False, reason=reason)
        else:
            tested.append((n, labels, complex(points[0])))
    verdicts = tail_membership(ctx, address, [w for *_, w in tested],
                               [len(labels) for _, labels, _ in tested])
    for (n, labels, witness), ok in zip(tested, verdicts):
        reason = _reason(ok, "membership-failed")
        records[n] = TailAddressRecord(labels, not reason, witness=witness, reason=reason)
    return [records[n] for n in levels]


# ---------------------------------------------------------------------------
# fundamental pieces

def _piece_image_samples(ctx: TailContext, label: int,
                         grid_side: int) -> tuple[complex, ...]:
    """Sample grid of tau_1(label) intersected with the closed disk D_r,
    less the samples on the graph.

    This is the f^{mn}-image of the level-n piece; pulling the samples back
    yields points of the piece itself.
    """
    m = ctx.map
    r = ctx.r
    x_lo = math.log(max(r - abs(m.c), 1e-6))
    x_hi = r
    y_c = TWO_PI * label
    grid = [complex(x_lo + (i + 0.5) * (x_hi - x_lo) / grid_side,
                    y_c - math.pi + (j + 0.5) * TWO_PI / grid_side)
            for i in range(grid_side) for j in range(grid_side)]
    grid = [z for z in grid if abs(z) <= r]
    return tuple(z for z, verdict in zip(grid, _tail1_verdicts(ctx, label, grid))
                 if not isinstance(verdict, OnArcError) and _verdict(verdict))


def _piece_points(ctx: TailContext, s: InfiniteAddress, n: int,
                  samples: int) -> list[complex]:
    """Sampled points of the level-n piece P_n(s); samples whose pull-back
    hits a singular value are dropped.

    The grid of tau_1(sigma^{mn} s) in D_r is sampled once per context; each
    sample is pulled back mn steps along the address labels, for a purely
    periodic address from the newest level of the same residue (_pull_back).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mn = ctx.cycle.period * n
    key = (s.entry(mn), samples)
    if key not in ctx._image_grids:
        ctx._image_grids[key] = _piece_image_samples(ctx, *key)
    points, hits = _pull_back(ctx, ("piece", samples), s, mn, ctx._image_grids[key])
    return points[hits == _NO_HIT].tolist()


def piece_diameter(ctx: TailContext, s: InfiniteAddress, n: int,
                   samples: int = 24) -> PieceEstimate:
    """Sampled diameter of the level-n piece P_n(s) (a lower bound).

    The largest pairwise distance is taken over each unordered pair once,
    in rows of about _PAIR_CAP pairs at a time, so memory stays flat in the
    number of samples (|a - b| and |b - a| are the same float).  Only points
    that can end a longest pair take part: with rho the distance to the
    mean and R its maximum, a longest pair p, q has |p - q| <= rho_p + R,
    and `lower` is one pair distance, so a point with rho + R below it (less
    a slack far above the rounding of the three terms) ends no longest
    pair.  On a circle around the mean no point is dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cloud = _piece_points(ctx, s, n, samples)
    if not cloud:
        return PieceEstimate(0.0, 0, empty=True)
    arr = np.array(cloud)
    rho = np.abs(arr - arr.mean())
    lower = np.abs(arr - arr[rho.argmax()]).max()
    arr = arr[rho + rho.max() >= lower * (1.0 - 1e-12)]
    step = max(1, _PAIR_CAP // len(arr))
    diameter = np.max([np.abs(arr[lo:lo + step, None] - arr[None, lo:]).max()
                       for lo in range(0, len(arr), step)])
    return PieceEstimate(float(diameter), len(cloud), empty=False)


def piece_mapping_check(ctx: TailContext, s: InfiniteAddress, j: int,
                        samples: int = 24) -> PieceMapCheck:
    """Checks f^m(P_j(s)) = P_{j-1}(sigma^m s) on sampled points of P_j."""
    if j < 2:
        raise ValueError("piece mapping needs j >= 2 (P_0 is undefined)")
    mper = ctx.cycle.period
    images = []
    for w in _piece_points(ctx, s, j, samples):
        for _ in range(mper):
            w = evaluate(ctx.map, w)
        images.append(w)
    inside = [w for w in images if not is_escaped(w)]
    address = project(shift_by(s, mper), j, mper)
    k = len(inside)
    verdicts = tail_membership(ctx, address, inside * 2,
                               [len(address)] * k + [len(address) - mper] * k)
    failed = len(images) - k
    checked = failed
    for hi, lo in zip(verdicts[:k], verdicts[k:]):
        error = next((v for v in (hi, lo) if isinstance(v, Exception)), None)
        if isinstance(error, OnArcError):
            continue
        if error is not None:
            raise error
        checked += 1
        if not (hi and not lo):
            failed += 1
    return PieceMapCheck(passed=(checked > 0 and failed == 0),
                         n_checked=checked, n_failed=failed)


def _check_tail_limits(**limits: int):
    for name, value in limits.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def tail_diagnostics(ctx: TailContext, s: InfiniteAddress, max_level: int,
                     samples: int = 16) -> list[dict]:
    """JSON-friendly per-level record: existence, witness, piece diameter."""
    _check_tail_limits(max_level=max_level, samples=samples)
    out = []
    for n, rec in enumerate(tail_exists(ctx, s, range(1, max_level + 1)), 1):
        entry: dict = {
            "address": list(rec.address),
            "level": n,
            "exists": rec.exists,
            "reason": rec.reason,
        }
        if rec.witness is not None:
            entry["witness"] = [rec.witness.real, rec.witness.imag]
        est = piece_diameter(ctx, s, n, samples=samples)
        entry["piece_diameter"] = est.diameter
        entry["piece_samples"] = est.n_samples
        entry["piece_empty"] = est.empty
        out.append(entry)
    return out
