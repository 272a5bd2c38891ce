"""Graph of landed rays fixed by f^p and basic-region point location.

Regions are operational objects: equivalence classes of a probe grid under
"connected by a segment that crosses no arc", refined by exact
segment-crossing tests.  All region claims are grid-relative; true connected
components of the plane minus the graph are not finitely computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .addresses import InfiniteAddress
from .cycles import Box, Cycle, _check_box
from .exponential import TWO_PI, MapModel, is_escaped
from .rays import _NO_HIT, LADDER_DEPTH, _ladder_start, _psi_batch, landing_table

SNAP_TOL = 1e-9
ARC_LAND_TOL = 1e-6  # a traced arc ends once it comes this close to its landing point
LANDING_MATCH_TOL = 1e-8  # a fixed point this close to a landing point is not interior
_X_FAR = 1e7  # horizontal extension of arcs beyond truncation
_PAIR_CAP = 8192  # point x segment pairs held by one numpy pass
_MAX_PROBES = 600  # probes a point may find blocked before location fails
_ARC_RATIO = 0.8  # potential ratio of successive samples of a traced arc
_ARC_MAX_SAMPLES = 400  # samples a traced arc may take to reach its landing point
PROBE_GRID = 120  # probe grid of the tails and trichotomy graphs

#: status of a located point: region found, on the graph, or no region
#: (not finite, or every probe tried was blocked)
LOCATED, ON_ARC, NO_REGION = 0, 1, 2

#: offsets of compass probing, in the order they are tried
_COMPASS = tuple(radius * complex(math.cos(math.pi * k / 4.0), math.sin(math.pi * k / 4.0))
                 for radius in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2) for k in range(8))


class OnArcError(ValueError):
    """Query point lies on (or within snap tolerance of) the ray graph."""


class PointLocationError(RuntimeError):
    pass


@dataclass
class Arc:
    address: InfiniteAddress
    vertices: list[complex]  # landing point first, then outward, then extension
    landing: complex


# ---------------------------------------------------------------------------

def segments_cross(a, b, c, d):
    """True where segments ab and cd share a point (touch counts).

    Elementwise over complex scalars or arrays that broadcast together.  The
    touch terms are computed only when some orientation is exactly 0, as
    each of them needs one (NaN orientations are not 0 either way).
    """
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
    cx, cy, dx, dy = c.real, c.imag, d.real, d.imag
    # sides of a and b relative to cd, and of c and d relative to ab
    ux, uy, vx, vy = dx - cx, dy - cy, bx - ax, by - ay
    d1 = ux * (ay - cy) - uy * (ax - cx)
    d2 = ux * (by - cy) - uy * (bx - cx)
    d3 = vx * (cy - ay) - vy * (cx - ax)
    d4 = vx * (dy - ay) - vy * (dx - ax)
    nonzero = (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & nonzero
    if np.all(nonzero):
        return proper
    # a touch: an end on the other segment's line, inside its bounding box
    ab_x0, ab_x1 = np.minimum(ax, bx), np.maximum(ax, bx)
    ab_y0, ab_y1 = np.minimum(ay, by), np.maximum(ay, by)
    cd_x0, cd_x1 = np.minimum(cx, dx), np.maximum(cx, dx)
    cd_y0, cd_y1 = np.minimum(cy, dy), np.maximum(cy, dy)
    touch = (((d1 == 0) & (cd_x0 <= ax) & (ax <= cd_x1) & (cd_y0 <= ay) & (ay <= cd_y1))
             | ((d2 == 0) & (cd_x0 <= bx) & (bx <= cd_x1) & (cd_y0 <= by) & (by <= cd_y1))
             | ((d3 == 0) & (ab_x0 <= cx) & (cx <= ab_x1) & (ab_y0 <= cy) & (cy <= ab_y1))
             | ((d4 == 0) & (ab_x0 <= dx) & (dx <= ab_x1) & (ab_y0 <= dy) & (dy <= ab_y1)))
    return proper | touch


def _squared_distances(z, a, b):
    """Squared distance from z to segment ab, elementwise over complex
    arrays that broadcast together."""
    x, y, ax, ay = z.real, z.imag, a.real, a.imag
    ux, uy = b.real - ax, b.imag - ay
    denom = ux * ux + uy * uy
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(((x - ax) * ux + (y - ay) * uy) / denom, 0.0, 1.0)
    px, py = ax + t * ux, ay + t * uy
    return (x - px) ** 2 + (y - py) ** 2


# ---------------------------------------------------------------------------

@dataclass
class RayGraph:
    map: MapModel
    p: int
    window: int
    box: Box
    grid: int
    arcs: list[Arc]
    failures: list[tuple[InfiniteAddress, str]]
    _segs: np.ndarray = field(default=None, repr=False)  # (n, 2): ends a, b
    _index: np.ndarray = field(default=None, repr=False)  # (2, k): cell ids, segment ids
    _region_of_probe: np.ndarray = field(default=None, repr=False)  # (grid * grid,) ids
    _representatives: list[complex] = field(default_factory=list, repr=False)

    # -- grid helpers -------------------------------------------------------
    def _cell_size(self) -> tuple[float, float]:
        xlo, xhi, ylo, yhi = self.box
        return (xhi - xlo) / self.grid, (yhi - ylo) / self.grid

    def _cells_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell of each finite point (x, y), clamped to the grid.

        The clamp comes before the integer cast: an orbit point can reach
        |z| ~ e^700, which the cast would wrap instead of clamping.
        """
        xlo, _, ylo, _ = self.box
        dx, dy = self._cell_size()
        top = self.grid - 1
        return (np.clip((x - xlo) / dx, 0, top).astype(np.int64),
                np.clip((y - ylo) / dy, 0, top).astype(np.int64))

    def _probes(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """The probe of each cell (ix[i], iy[i]): the centre of the cell."""
        xlo, _, ylo, _ = self.box
        dx, dy = self._cell_size()
        out = np.empty(len(ix), dtype=complex)
        out.real = xlo + (ix + 0.5) * dx
        out.imag = ylo + (iy + 0.5) * dy
        return out

    def _index_segments(self):
        """(cell id iy * grid + ix, segment id) pairs, stably sorted by cell:
        each segment whose bounding box meets the box is listed in the cells
        that bounding box meets and in their neighbours."""
        xlo, xhi, ylo, yhi = self.box
        a, b = self._segs.T
        x0, x1 = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
        y0, y1 = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
        keep = np.flatnonzero((x1 >= xlo) & (x0 <= xhi) & (y1 >= ylo) & (y0 <= yhi))
        # the block of cells (ix, iy) of each kept segment, lo <= (ix, iy) < hi
        lo = np.maximum(np.array(self._cells_of(x0[keep], y0[keep]), dtype=np.int32) - 1, 0)
        hi = np.minimum(np.array(self._cells_of(x1[keep], y1[keep]), dtype=np.int32) + 2, self.grid)
        width, count = hi[0] - lo[0], np.prod(hi - lo, axis=0, dtype=np.int32)
        # pair j lists segment keep[n] in cell k of its block, row by row
        n = np.repeat(np.arange(len(keep), dtype=np.int32), count)
        k = np.arange(len(n), dtype=np.int32) - (np.cumsum(count, dtype=np.int32) - count)[n]
        cell = (lo[1, n] + k // width[n]) * self.grid + lo[0, n] + k % width[n]
        order = np.argsort(cell, kind="stable")
        self._index = np.stack([cell[order], keep[n[order]].astype(np.int32)])

    # -- crossing machinery -------------------------------------------------
    def _chunks(self, n: int):
        """Slices of n points that meet every segment in about _PAIR_CAP pairs."""
        step = max(1, _PAIR_CAP // max(1, len(self._segs)))
        return (slice(lo, lo + step) for lo in range(0, n, step))

    def _interior(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """True where cell (ix[i], iy[i]) is at least one cell in from the
        edge of the grid, and the cells are wider than 2 * SNAP_TOL.

        For a point z in such a cell, the segments the index lists in z's
        cell hold every segment that can change where z is located, so the
        snap test, the own-probe test and the ring-1 tests read that list
        alone.  The index lists a segment in each cell its bounding box
        meets and in their neighbours, and a cell is monotone in its
        coordinate.  The segment from z to its own probe stays in z's cell,
        and one to a ring-1 probe within one cell of it, all inside the box,
        so a segment meeting either meets z's cell or a neighbour; so does
        a segment within SNAP_TOL of z, as the cells are wider than twice
        that.  Such a segment is listed in z's cell, with a cell to spare
        for the rounding of the float tests, whose per-pair operations are
        those of the full scan.
        """
        top = self.grid - 2
        wide = min(self._cell_size()) > 2 * SNAP_TOL
        return (ix >= 1) & (ix <= top) & (iy >= 1) & (iy <= top) & wide

    def _listed_pairs(self, cell: np.ndarray):
        """(rows, segment ids) chunks pairing each row i with cell[i] >= 0
        with every segment the index lists in cell[i], row by row.

        A chunk holds _PAIR_CAP // 4 pairs (the last one fewer), and a row's
        pairs may span two chunks.  Each pair holds its own copy of both
        segments' coordinates, which a broadcast pair of _chunks shares, so
        fewer pairs keep the peak memory where it was."""
        cells, segs = self._index
        rows = np.flatnonzero(cell >= 0)
        first = np.searchsorted(cells, cell[rows])
        count = np.searchsorted(cells, cell[rows], side="right") - first
        ends = np.cumsum(count)
        shift = first - (ends - count)  # index position less pair position
        total, step = int(count.sum()), _PAIR_CAP // 4
        for lo in range(0, total, step):
            pair = np.arange(lo, min(lo + step, total))
            row = np.searchsorted(ends, pair, side="right")
            yield rows[row], segs[pair + shift[row]]

    def _blocked(self, a: np.ndarray, b: np.ndarray, cell: np.ndarray | None = None) -> np.ndarray:
        """True where segment a[i] b[i] meets a stored segment.

        Where cell[i] >= 0, only the segments the index lists in cell[i] are
        tested; the caller vouches that they hold every segment a[i] b[i]
        can meet (see _interior).  The other rows are tested against every
        segment."""
        out = np.zeros(len(a), dtype=bool)
        if len(self._segs):
            c, d = self._segs.T
            scan = np.arange(len(a)) if cell is None else np.flatnonzero(cell < 0)
            for part in self._chunks(len(scan)):
                rows = scan[part]
                out[rows] = segments_cross(a[rows, None], b[rows, None], c, d).any(axis=1)
            if cell is not None:
                for rows, seg in self._listed_pairs(cell):
                    out[rows[segments_cross(a[rows], b[rows], c[seg], d[seg])]] = True
        return out

    def _edge_crosses(self) -> tuple[np.ndarray, np.ndarray]:
        """Crossed masks of the probe edges: right[iy, ix] for the edge from
        probe (ix, iy) to (ix + 1, iy), up[iy, ix] for the one to (ix, iy + 1).

        A segment that meets an edge from probe (ix, iy) is listed in cell
        (ix, iy), so only the pairs of the index are tested, _PAIR_CAP at a
        time; edges leaving the grid are tested too, then dropped."""
        g = self.grid
        crossed = np.zeros((2, g * g), dtype=bool)
        for lo in range(0, self._index.shape[1], _PAIR_CAP):
            cell, seg = self._index[:, lo:lo + _PAIR_CAP]
            ix, iy = cell % g, cell // g
            probe, (c, d) = self._probes(ix, iy), self._segs[seg].T
            for out, end in zip(crossed, (self._probes(ix + 1, iy), self._probes(ix, iy + 1))):
                out[cell[segments_cross(probe, end, c, d)]] = True
        right, up = crossed.reshape(2, g, g)
        return right[:, :-1], up[:-1]

    def _build_regions(self):
        g = self.grid
        right, up = self._edge_crosses()
        # runs: the pieces of each row between crossed right edges, numbered
        # in probe order, and the pairs of runs that open up edges join, less
        # those that the open up edge left of them joins already
        start = np.ones((g, g), dtype=bool)
        start[:, 1:] = right
        run = np.cumsum(start, dtype=np.int32).reshape(g, g)
        run -= 1
        joins = ~up
        joins[:, 1:] &= ~(joins[:, :-1] & ~right[:-1] & ~right[1:])
        lo, hi = run[:-1][joins], run[1:][joins]
        # hook, then shortcut until every parent is a root.  A parent is a run
        # of the same component, never above its child, so once no pair joins
        # two roots, each root is its component's least run and least probe.
        par = np.arange(run[-1, -1] + 1, dtype=np.int32)
        while not np.array_equal(pa := par[lo], pb := par[hi]):
            least = np.minimum(pa, pb)
            for ends in (pa, pb, lo, hi):
                np.minimum.at(par, ends, least)
            while not np.array_equal(jumped := par[par], par):
                par = jumped
        # region ids number the roots, that is in order of first appearance
        root = par == np.arange(len(par), dtype=np.int32)
        self._region_of_probe = (np.cumsum(root, dtype=np.int32) - 1)[par][run].ravel()
        first = np.searchsorted(run.ravel(), np.flatnonzero(root))
        self._representatives = self._probes(first % g, first // g).tolist()

    # -- queries ------------------------------------------------------------
    def distance_to_graph(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest stored segment."""
        out = np.full(len(points), math.inf)
        if len(self._segs) == 0:
            return out
        a, b = self._segs.T
        for part in self._chunks(len(points)):
            out[part] = np.sqrt(np.min(_squared_distances(points[part, None], a, b), axis=1))
        return out

    def _on_graph(self, z: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """distance_to_graph(z) < SNAP_TOL, testing z[i] only against the
        segments listed in cell[i] where cell[i] >= 0 (see _interior).

        A listed point snaps when any one pair is nearer than SNAP_TOL; as
        sqrt is monotone, that is the test sqrt(min d^2) < SNAP_TOL of
        distance_to_graph, pair for pair the same float operations."""
        out = np.zeros(len(z), dtype=bool)
        scan = np.flatnonzero(cell < 0)
        out[scan] = self.distance_to_graph(z[scan]) < SNAP_TOL
        a, b = self._segs.T
        for rows, seg in self._listed_pairs(cell):
            out[rows[np.sqrt(_squared_distances(z[rows], a[seg], b[seg])) < SNAP_TOL]] = True
        return out

    def regions_of(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Region id (-1 where none) and status of every point.

        A point within SNAP_TOL of the graph is ON_ARC; a point that is not
        finite, or whose every tried probe is blocked, has NO_REGION.  The
        cell lookup, the snap test and the crossing test to the point's own
        cell probe are numpy passes over all points, and so is each ring of
        cells searched around the points whose own probe is blocked.  The
        snap test, the own-probe test and ring 1 of a point in an _interior
        cell read only the segments the index lists in that cell; the other
        points, and rings 2 and beyond, test every segment.
        """
        z = np.asarray(points, dtype=complex).reshape(-1)
        ids = np.full(len(z), -1, dtype=np.int64)
        status = np.full(len(z), NO_REGION, dtype=np.int8)
        with np.errstate(all="ignore"):  # far orbit points overflow the squares
            idx = np.flatnonzero(np.isfinite(z))
            ix, iy = self._cells_of(z[idx].real, z[idx].imag)
            cell = np.where(self._interior(ix, iy), iy * self.grid + ix, -1)
            on_arc = self._on_graph(z[idx], cell)
            status[idx[on_arc]] = ON_ARC
            off = ~on_arc
            idx, ix, iy, cell = idx[off], ix[off], iy[off], cell[off]
            blocked = self._blocked(z[idx], self._probes(ix, iy), cell)
            ids[idx] = self._region_of_probe[iy * self.grid + ix]
            status[idx] = LOCATED
            if blocked.any():
                far = idx[blocked]
                ids[far] = self._ring_search(z[far], ix[blocked], iy[blocked], cell[blocked])
                status[far[ids[far] < 0]] = NO_REGION
        return ids, status

    def _ring_search(self, z: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                     cell: np.ndarray) -> np.ndarray:
        """Region of the nearest crossing-free probe in the rings around cell
        (cx[i], cy[i]), whose own probe is blocked, for every point z[i]; -1
        once more than _MAX_PROBES probes were blocked or the grid is
        exhausted.

        One numpy pass per ring tests the ring's probes of every point still
        searching; each point reads its own in (distance, ix, iy) order.
        Ring 1 of a point with cell[i] >= 0 is tested against the segments
        listed in that cell only (see _interior).
        """
        g = self.grid
        out = np.full(len(z), -1, dtype=np.int64)
        tried = np.ones(len(z), dtype=np.int64)  # the own-cell probe
        todo = np.arange(len(z))
        for ring in range(1, g):
            if not len(todo):
                break
            # offsets of the cells at Chebyshev distance ring; clipped below
            dx, dy = (d.ravel() for d in np.meshgrid(np.arange(-ring, ring + 1),
                                                     np.arange(-ring, ring + 1)))
            edge = np.maximum(abs(dx), abs(dy)) == ring
            dx, dy = dx[edge], dy[edge]
            own = np.repeat(todo, len(dx))
            ix = (cx[todo, None] + dx).ravel()
            iy = (cy[todo, None] + dy).ravel()
            keep = (ix >= 0) & (ix < g) & (iy >= 0) & (iy < g)
            own, ix, iy = own[keep], ix[keep], iy[keep]
            probes = self._probes(ix, iy)
            order = np.lexsort((iy, ix, np.abs(probes - z[own]), own))
            own, ix, iy, probes = own[order], ix[order], iy[order], probes[order]
            clear = ~self._blocked(z[own], probes, cell[own] if ring == 1 else None)
            # position of each probe in its point's reading order of the ring
            rank = np.arange(len(own)) - np.searchsorted(own, own)
            first = np.flatnonzero(clear)
            first = first[np.unique(own[first], return_index=True)[1]]
            hit = first[tried[own[first]] + rank[first] <= _MAX_PROBES]
            out[own[hit]] = self._region_of_probe[iy[hit] * g + ix[hit]]
            tried += np.bincount(own, minlength=len(z))
            # a point searches on while its ring had probes but none clear,
            # and fewer than the cap were blocked
            going = np.zeros(len(z), dtype=bool)
            going[own] = True
            going[own[first]] = False
            todo = np.flatnonzero(going & (tried <= _MAX_PROBES))
        return out

    def regions_near(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """regions_of with on-arc points moved off the graph by compass probing.

        Returns ids, witnesses (the point that located each id) and the
        status of each point itself.  An ON_ARC point takes the id of the
        first compass offset, in (radius, direction) order, that locates;
        one pass tests one offset for every point still unresolved.  ids are
        -1 where no region was found.
        """
        z = np.asarray(points, dtype=complex).reshape(-1)
        ids, status = self.regions_of(z)
        witnesses = z.copy()
        todo = np.flatnonzero(status == ON_ARC)
        for offset in _COMPASS:
            if len(todo) == 0:
                break
            w = z[todo] + offset
            rid, st = self.regions_of(w)
            hit = st == LOCATED
            ids[todo[hit]] = rid[hit]
            witnesses[todo[hit]] = w[hit]
            todo = todo[~hit]
        return ids, witnesses, status

    def location_error(self, z: complex, status: int) -> Exception:
        """The error a point location of z with this failed status raises.

        A finite point without a region had more than _MAX_PROBES probes
        blocked, unless the whole grid holds fewer probes.
        """
        if status == ON_ARC:
            return OnArcError(f"{z!r} lies on the ray graph")
        if is_escaped(z):
            return PointLocationError("escaped point has no region")
        if self.grid * self.grid > _MAX_PROBES:
            return PointLocationError(f"no crossing-free path from {z!r}")
        return PointLocationError(f"point location failed for {z!r}")

    def basic_region_of(self, z: complex) -> int:
        """Region id of z; OnArcError within SNAP_TOL of the graph."""
        ids, status = self.regions_of([z])
        if status[0] != LOCATED:
            raise self.location_error(z, status[0])
        return int(ids[0])

    def region_near(self, z: complex) -> int:
        """Tolerant region id of z: a point on the graph resolves to a
        deterministic side by compass probing."""
        ids, _, status = self.regions_near([z])
        if ids[0] < 0:
            raise self.location_error(z, status[0])
        return int(ids[0])

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "window": self.window,
            "depth": LADDER_DEPTH,
            "box": list(self.box),
            "grid": self.grid,
            "arcs": [{
                "address": str(arc.address),
                "landing": [arc.landing.real, arc.landing.imag],
                "polyline": [[v.real, v.imag] for v in arc.vertices],
            } for arc in self.arcs],
            "failures": [[str(s), status] for s, status in self.failures],
            "regions": [{"id": i, "representative": [r.real, r.imag]}
                        for i, r in enumerate(self._representatives)],
        }


def _trace_arcs(m: MapModel, entries: np.ndarray,
                points: np.ndarray) -> list[list[complex] | str | None]:
    """Polyline of each ray to its landing point, or why it has none.

    Ray i has the address entries entries[i, :LADDER_DEPTH + 1] and lands at
    points[i]; a ray whose point is nan did not land and is not traced
    (None).  A ray is sampled at potentials t = truncation + 10, shrinking
    by _ARC_RATIO, until a sample lies within ARC_LAND_TOL of its landing
    point.  The ladder depth of a sample depends on t only, so each t pulls
    back the rays still open in one _psi_batch pass.  A ray whose pullback
    meets the singular value or the cut is "singular-hit"; one still open
    after _ARC_MAX_SAMPLES samples is "trace-not-converged".
    """
    shifts = 1j * (TWO_PI * entries)
    rows = np.flatnonzero(~np.isnan(points))
    out: list[list[complex] | str | None] = [None] * len(points)
    for i in rows.tolist():
        out[i] = "trace-not-converged"
    samples: list[list[complex]] = [[] for _ in out]
    t = m.truncation + 10.0
    with np.errstate(all="ignore"):
        for _ in range(_ARC_MAX_SAMPLES):
            if not rows.size:
                break
            u, j = _ladder_start(t, LADDER_DEPTH)
            z, hit = _psi_batch(m.c, shifts[rows, :j], u + shifts[rows, j])
            for i in rows[hit != _NO_HIT].tolist():
                out[i] = "singular-hit"
            ok = hit == _NO_HIT
            rows, z = rows[ok], z[ok]
            for i, v in zip(rows.tolist(), z.tolist()):
                samples[i].append(v)
            landed = np.abs(z - points[rows]) <= ARC_LAND_TOL
            for i in rows[landed].tolist():
                z0, pts = complex(points[i]), samples[i][::-1]
                poly = [z0] + ([] if pts[0] == z0 else pts)
                poly.append(complex(_X_FAR, poly[-1].imag))
                out[i] = poly
            rows = rows[~landed]
            t *= _ARC_RATIO
    return out


def _check_graph_limits(window: int, grid: int):
    for name, value, least in (("window", window, 0), ("probe grid", grid, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}")


def build_ray_graph(m: MapModel, p: int, window: int,
                    box: Box = (-3.0, 3.0, -7.0, 7.0), grid: int = 200) -> RayGraph:
    """Graph of the landed rays fixed by f^p with window-bounded addresses.

    Addresses with failed landings are excluded and listed in `failures`
    (this changes region topology; consumers must treat the audit as
    poisoned when failures is nonempty).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    _check_graph_limits(window, grid)
    _check_box(box)
    arcs: list[Arc] = []
    failures: list[tuple[InfiniteAddress, str]] = []
    tables = landing_table(m, window, [d for d in range(1, p + 1) if p % d == 0]).values()
    cols = np.arange(LADDER_DEPTH + 1)
    traces = _trace_arcs(m, np.concatenate([row.words[:, cols % row.words.shape[1]]
                                            for row in tables]),
                         np.concatenate([row.points for row in tables]))
    landings = [(row.address(i), row.result(i)) for row in tables for i in range(len(row.words))]
    for (s, res), trace in zip(landings, traces):
        if not res.landed:
            failures.append((s, res.status))
        elif isinstance(trace, str):
            failures.append((s, trace))
        else:
            arcs.append(Arc(address=s, vertices=trace, landing=res.point))

    segs = [ab for arc in arcs for ab in zip(arc.vertices, arc.vertices[1:])]
    graph = RayGraph(map=m, p=p, window=window, box=box, grid=grid, arcs=arcs,
                     failures=failures, _segs=np.array(segs, dtype=complex).reshape(-1, 2))
    graph._index_segments()
    graph._build_regions()
    return graph


# ---------------------------------------------------------------------------

@dataclass
class SeparationAudit:
    regions_to_points: dict[int, list[complex]]
    landing_matches: list[complex]
    violations: list[int]  # region ids holding two or more interior points
    poisoned: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def interior_fixed_point_audit(graph: RayGraph, cycles: list[Cycle]) -> SeparationAudit:
    """Checks that no basic region holds two interior fixed points of f^p.

    Fixed points matching a landing point of the graph, or lying on the
    graph, are not interior.
    A nonempty failure list on the graph poisons the verdict (the graph may
    be missing arcs, which merges regions).
    """
    landings = [arc.landing for arc in graph.arcs]
    regions: dict[int, list[complex]] = {}
    matched: list[complex] = []
    for cyc in cycles:
        if graph.p % cyc.period != 0:
            continue
        for z in cyc.points:
            if any(abs(z - w) < LANDING_MATCH_TOL for w in landings):
                matched.append(z)
                continue
            try:
                rid = graph.basic_region_of(z)
            except OnArcError:
                continue
            regions.setdefault(rid, []).append(z)
    violations = sorted(rid for rid, pts in regions.items() if len(pts) >= 2)
    return SeparationAudit(regions_to_points=regions, landing_matches=matched,
                           violations=violations, poisoned=bool(graph.failures))
