import cmath
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from raycensus import regions
from raycensus.addresses import parse_address
from raycensus.cycles import find_cycles
from raycensus.exponential import MapModel, SingularValueHit, evaluate
from raycensus.rays import ladder_descend
from raycensus.regions import (
    LOCATED,
    NO_REGION,
    ON_ARC,
    OnArcError,
    PointLocationError,
    RayGraph,
    build_ray_graph,
    interior_fixed_point_audit,
    segments_cross,
)

M2 = MapModel(c=-2)
BOX = (-3.0, 3.0, -7.0, 7.0)

FIX_ATTRACTING = -1.8414056604369606
FIX_REPELLING = 1.1461932206205825
FIX_STRIP1 = complex(2.1310754576665873, 7.341435092197778)

theta = (math.sqrt(5) - 1) / 2
SIEGEL_C = 2j * math.pi * theta - cmath.exp(2j * math.pi * theta)


def exact_cross(*ends) -> bool:
    """Textbook segment intersection in integer arithmetic (lattice ends)."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = (
        (int(z.real), int(z.imag)) for z in ends)

    def side(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    def within(px, py, qx, qy, rx, ry):
        return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)

    s1, s2 = side(cx, cy, dx, dy, ax, ay), side(cx, cy, dx, dy, bx, by)
    s3, s4 = side(ax, ay, bx, by, cx, cy), side(ax, ay, bx, by, dx, dy)
    return ((s1 * s2 < 0 and s3 * s4 < 0)
            or (s1 == 0 and within(cx, cy, dx, dy, ax, ay))
            or (s2 == 0 and within(cx, cy, dx, dy, bx, by))
            or (s3 == 0 and within(ax, ay, bx, by, cx, cy))
            or (s4 == 0 and within(ax, ay, bx, by, dx, dy)))


@pytest.fixture(scope="module")
def graph_m2():
    return build_ray_graph(M2, 1, 1, depth=40, box=BOX, grid=120)


#: parameters of the benchmark's circle |c + 2| = 0.15 where many witness
#: points of `tails` find their own probe blocked
BENCH_CIRCLE = (complex(-2.1481219654863297, -0.02366185412148723), complex(-1.905, -0.116))


@pytest.fixture(scope="module", params=BENCH_CIRCLE, ids=str)
def graph_circle(request):
    """The graph `tails --address 0` builds at a bench-circle parameter."""
    return build_ray_graph(MapModel(c=request.param), 1, 1, depth=40, box=BOX, grid=120)


class TestSegmentsCross:
    def test_proper_crossing(self):
        assert segments_cross(-1 - 1j, 1 + 1j, -1 + 1j, 1 - 1j)

    def test_disjoint(self):
        assert not segments_cross(0j, 1 + 0j, 2j, 1 + 2j)

    def test_touching_endpoint_counts(self):
        assert segments_cross(0j, 1 + 0j, 1 + 0j, 1 + 1j)

    def test_collinear_overlap_counts(self):
        assert segments_cross(0j, 2 + 0j, 1 + 0j, 3 + 0j)

    def test_arrays_match_scalar_calls_and_exact_oracle(self):
        # lattice endpoints make collinear, touching and degenerate pairs common
        rng = np.random.default_rng(0)
        a, b, c, d = (rng.integers(-2, 3, 2000) + 1j * rng.integers(-2, 3, 2000)
                      for _ in range(4))
        scalar = [bool(segments_cross(complex(p), complex(q), complex(r), complex(s)))
                  for p, q, r, s in zip(a, b, c, d)]
        assert scalar == [exact_cross(*ends) for ends in zip(a, b, c, d)]
        assert 0 < sum(scalar) < len(scalar)
        assert segments_cross(a, b, c, d).tolist() == scalar
        # one segment against many, as point location asks
        assert segments_cross(complex(a[0]), complex(b[0]), c, d).tolist() == [
            bool(segments_cross(complex(a[0]), complex(b[0]), complex(r), complex(s)))
            for r, s in zip(c, d)]


def reference_segments_cross(a, b, c, d):
    """segments_cross with every touch term computed (the reference)."""
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
    cx, cy, dx, dy = c.real, c.imag, d.real, d.imag
    # sides of a and b relative to cd, and of c and d relative to ab
    d1 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    d2 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    d3 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    d4 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    proper = (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
              & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0))
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


def assert_same_crossings(*ends):
    """segments_cross equals the reference in shape and every entry (for
    Python scalars, a bool where the reference gives numpy's bool)."""
    with np.errstate(invalid="ignore"):  # inf - inf in the orientations
        got, want = segments_cross(*ends), reference_segments_cross(*ends)
    assert np.asarray(got).dtype == bool
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


small = st.integers(-3, 3).map(float)
special = st.sampled_from([-1.0, 0.0, 1.0, 2.0, math.inf, -math.inf, math.nan])


def segment_ends(rows):
    """Rows of end coordinates (x0, y0, x1, y1, ...) as one array per end."""
    xy = np.array(rows, dtype=float)
    z = np.empty((len(xy), xy.shape[1] // 2), dtype=complex)
    z.real, z.imag = xy[:, 0::2], xy[:, 1::2]  # x + 1j * y turns 1j * inf into nan
    return tuple(z.T)


class TestSegmentsCrossReference:
    # small integers make exact zeros common: collinear, touching, shared
    # and zero-length segments
    @given(st.lists(st.tuples(*[small] * 8), min_size=1, max_size=40))
    def test_small_integer_rows(self, rows):
        a, b, c, d = segment_ends(rows)
        assert_same_crossings(a, b, c, d)
        # one row at a time, as Python scalars: a row without a zero
        # orientation returns before the touch terms
        for ends in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()):
            assert_same_crossings(*ends)

    @given(st.lists(st.tuples(*[special] * 8), min_size=1, max_size=20))
    def test_nan_and_inf_rows(self, rows):
        a, b, c, d = segment_ends(rows)
        assert_same_crossings(a, b, c, d)
        for ends in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()):
            assert_same_crossings(*ends)

    @given(st.lists(st.tuples(*[small] * 4), min_size=1, max_size=8),
           st.lists(st.tuples(*[small] * 4), min_size=1, max_size=8))
    def test_broadcast_one_against_many(self, queries, stored):
        (a, b), (c, d) = segment_ends(queries), segment_ends(stored)
        assert_same_crossings(a[:, None], b[:, None], c, d)
        assert_same_crossings(a[0], b[0], c, d)


def probe(g, ix, iy):
    """Reference probe of cell (ix, iy): its centre, in Python floats."""
    xlo, _, ylo, _ = g.box
    dx, dy = g._cell_size()
    return complex(xlo + (ix + 0.5) * dx, ylo + (iy + 0.5) * dy)


def loop_index(g):
    """Reference cell index, built segment by segment in Python loops.

    A segment whose bounding box meets the box is listed in every cell that
    bounding box meets and in their neighbours.  Returns the sorted
    (cell id iy * grid + ix, segment id) pairs.
    """
    xlo, xhi, ylo, yhi = g.box
    a, b = g._segs.T
    x0, x1 = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
    y0, y1 = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    keep = np.flatnonzero((x1 >= xlo) & (x0 <= xhi) & (y1 >= ylo) & (y0 <= yhi))
    lo = g._cells_of(x0[keep], y0[keep])
    hi = g._cells_of(x1[keep], y1[keep])
    pairs = []
    for si, a0, b0, a1, b1 in zip(keep.tolist(), *(v.tolist() for v in lo + hi)):
        for ix in range(max(0, a0 - 1), min(g.grid, a1 + 2)):
            for iy in range(max(0, b0 - 1), min(g.grid, b1 + 2)):
                pairs.append((iy * g.grid + ix, si))
    return sorted(pairs)


def union_find_labels(g):
    """Reference labelling of g's probe grid, checking _edge_crosses on the way.

    A probe edge is open exactly when it meets no segment at all, and regions
    are the components of the open edges, numbered in probe order.  Returns
    (label of every probe, representative probe of every region).
    """
    grid = g.grid
    parent = list(range(grid * grid))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    right, up = g._edge_crosses()
    assert right.shape == (grid, grid - 1) and up.shape == (grid - 1, grid)
    for crossed, dx, dy in ((right, 1, 0), (up, 0, 1)):
        rows, cols = crossed.shape
        ends = np.array([[probe(g, ix, iy), probe(g, ix + dx, iy + dy)]
                         for iy in range(rows) for ix in range(cols)]).reshape(-1, 2)
        free = ~g._blocked(ends[:, 0], ends[:, 1])
        wrong = np.flatnonzero(crossed.ravel() == free)
        assert not len(wrong), [(i % cols, i // cols, dx, dy) for i in wrong[:5].tolist()]
        for i in np.flatnonzero(free).tolist():
            iy, ix = divmod(i, cols)
            parent[root((iy + dy) * grid + ix + dx)] = root(iy * grid + ix)
    ids: dict[int, int] = {}
    labels = [ids.setdefault(root(i), len(ids)) for i in range(grid * grid)]
    firsts = [labels.index(r) for r in range(len(ids))]
    return labels, [probe(g, i % grid, i // grid) for i in firsts]


class TestIndex:
    # in the box [0, 3]^2: segments wholly inside, partly outside, across
    # the box, on its edge, wholly outside with a bounding box that meets
    # it, wholly outside, of zero length, and far outside
    SEGMENTS = [(0.4 + 0.4j, 1.1 + 0.9j), (-1 + 1j, 1 + 1j), (2 + 2j, 5 + 5j),
                (1.5 - 2j, 1.5 + 10j), (-1e7 + 0.2j, 1e7 + 2.9j), (3 + 1j, 3 + 2j),
                (-1 + 2j, 1 + 5j), (4 + 4j, 5 + 5j), (-2 - 2j, -1 - 1j),
                (1.2 + 1.7j, 1.2 + 1.7j), (0j, 0j), (1e300 + 0j, 1e300 + 1j)]

    @pytest.mark.parametrize("grid", [1, 2, 7, 30])
    def test_pairs_equal_the_loop(self, grid):
        g = hand_graph(self.SEGMENTS, box=(0.0, 3.0, 0.0, 3.0), grid=grid)
        pairs = list(zip(*g._index.tolist()))
        assert 0 < len(pairs) and sorted(pairs) == loop_index(g)
        # sorted by cell, each cell's segments in segment order
        assert pairs == sorted(pairs)
        assert g._index.dtype == np.int32

    def test_arc_graph(self, graph_m2):
        pairs = list(zip(*graph_m2._index.tolist()))
        assert pairs == loop_index(graph_m2)

    def test_no_segments(self):
        g = hand_graph([], box=(0.0, 3.0, 0.0, 3.0), grid=5)
        assert g._segs.shape == (0, 2) and g._index.shape == (2, 0)
        assert loop_index(g) == []
        right, up = g._edge_crosses()
        assert not right.any() and not up.any()
        assert g._region_of_probe.tolist() == [0] * 25


class TestLabelling:
    # near the real axis the p=3, window-2 graph at c=-2 cuts the grid into
    # 36 regions
    @pytest.mark.parametrize("p, window, box, grid", [
        (2, 1, BOX, 40), (2, 1, BOX, 120), (3, 2, (1.2, 2.8, -1.5, 1.5), 60),
    ], ids=["40", "120", "p3-window2-60"])
    def test_probe_edges_open_iff_crossing_free(self, p, window, box, grid):
        g = build_ray_graph(M2, p, window, depth=40, box=box, grid=grid)
        labels, representatives = union_find_labels(g)
        assert g._region_of_probe.tolist() == labels
        assert g._representatives == representatives

    def test_serpentine_corridor(self):
        # a wall between each two neighbouring columns (then rows), open
        # alternately at either end: one corridor through every probe.  With
        # vertical walls every run is one probe wide and the corridor joins
        # 89,701 runs; with horizontal ones each row is one run.
        grid = 300
        walls = [(complex(x, -1), complex(x, grid - 1)) if x % 2
                 else (complex(x, 1), complex(x, grid + 1)) for x in range(1, grid)]
        for segs in (walls, [(complex(a.imag, a.real), complex(b.imag, b.real))
                             for a, b in walls]):
            g = hand_graph(segs, box=(0.0, grid, 0.0, grid), grid=grid)
            labels, representatives = union_find_labels(g)
            assert len(representatives) == 1
            assert g._region_of_probe.tolist() == labels
            assert g._representatives == representatives


class TestBuild:
    def test_three_arcs_for_window_one(self, graph_m2):
        assert len(graph_m2.arcs) == 3
        assert not graph_m2.failures
        landings = {str(a.address): a.landing for a in graph_m2.arcs}
        assert abs(landings["0"] - FIX_REPELLING) < 1e-9
        # strip +-1 fixed points (oracle values; see decisions ledger)
        assert abs(landings["1"] - FIX_STRIP1) < 1e-9
        assert abs(landings["-1"] - FIX_STRIP1.conjugate()) < 1e-9

    def test_arc_polyline_approaches_landing(self, graph_m2):
        for arc in graph_m2.arcs:
            assert arc.vertices[0] == arc.landing
            assert abs(arc.vertices[1] - arc.landing) <= 1e-6

    def test_arc_reaches_truncation_then_extends(self, graph_m2):
        for arc in graph_m2.arcs:
            assert arc.vertices[-2].real > M2.truncation
            assert arc.vertices[-1].real == 1e7
            assert arc.vertices[-1].imag == arc.vertices[-2].imag

    def test_window_zero_p2_single_arc(self):
        g = build_ray_graph(M2, 2, 0, depth=40, box=BOX, grid=40)
        assert len(g.arcs) == 1
        assert str(g.arcs[0].address) == "0"

    def test_c0_zero_ray_excluded_with_diagnostic(self):
        g = build_ray_graph(MapModel(c=0), 1, 0, depth=40, box=BOX, grid=40)
        assert len(g.arcs) == 0
        assert g.failures == [(parse_address("0"), "singular-hit")]

    @pytest.mark.parametrize("grid", [0, -5])
    def test_probe_grid_below_one_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be >= 1"):
            build_ray_graph(M2, 1, 1, depth=40, box=BOX, grid=grid)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            build_ray_graph(M2, 1, 1, depth=-3, box=BOX, grid=40)

    def test_arcs_pairwise_disjoint(self, graph_m2):
        arcs = graph_m2.arcs
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                d = min(abs(a - b) for a in arcs[i].vertices[:40:2]
                        for b in arcs[j].vertices[:40:2])
                assert d > 1e-3


def scalar_arc(m, s, z0, depth):
    """Polyline of ray s to z0, or its failure: one ladder_descend chain per
    sample, the scalar form of the batched arc tracer of build_ray_graph."""
    pts = []
    t = m.truncation + 10.0
    for _ in range(regions._ARC_MAX_SAMPLES):
        try:
            z = ladder_descend(m, s, t, depth)[0]
        except SingularValueHit:
            return "singular-hit"
        pts.append(z)
        if abs(z - z0) <= regions.ARC_LAND_TOL:
            pts.reverse()
            out = [z0] + ([] if pts[0] == z0 else pts)
            out.append(complex(regions._X_FAR, out[-1].imag))
            return out
        t *= regions._ARC_RATIO
    return "trace-not-converged"


def scalar_arcs_and_failures(m, p, window, depth):
    """(address, polyline) of each arc and (address, status) of each failure,
    in the order build_ray_graph lists them, traced by scalar_arc."""
    table = regions.landing_table(m, window, [d for d in range(1, p + 1) if p % d == 0])
    arcs, failures = [], []
    for row in table.values():
        for i in range(len(row.words)):
            s, res = row.address(i), row.result(i)
            trace = scalar_arc(m, s, res.point, depth) if res.landed else res.status
            if isinstance(trace, str):
                failures.append((s, trace))
            else:
                arcs.append((s, trace))
    return arcs, failures


#: the batched arc pullback uses numpy's complex log, the scalar chain
#: cmath.log; the two may differ in the last bits, and the contracting
#: pullback keeps that a few ulps of the vertex
ARC_ULPS = 8


def assert_same_graph_arcs(m, p, window, depth=40):
    want_arcs, want_failures = scalar_arcs_and_failures(m, p, window, depth)
    g = build_ray_graph(m, p, window, depth=depth, box=BOX, grid=3)
    assert g.failures == want_failures
    assert [arc.address for arc in g.arcs] == [s for s, _ in want_arcs]
    for arc, (_, want) in zip(g.arcs, want_arcs):
        assert len(arc.vertices) == len(want)
        assert arc.vertices[0] == arc.landing == want[0]
        got, ref = np.array(arc.vertices), np.array(want)
        assert np.all(np.abs(got - ref) <= ARC_ULPS * sys.float_info.epsilon
                      * np.maximum(1.0, np.abs(ref)))
    return g


class TestBatchedArcs:
    @pytest.mark.parametrize("c", [-2, complex(-1, 0.3), SIEGEL_C])
    @pytest.mark.parametrize("p, window", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_arcs_match_scalar_chains(self, c, p, window):
        assert_same_graph_arcs(MapModel(c=c), p, window)

    def test_singular_hit_arc(self, monkeypatch):
        # at c = 0 the ray 0 runs along the real axis into the cut, so its
        # landing fails; reported landed, its trace meets the cut instead
        table = regions.landing_table

        def all_landed(*args, **kwargs):
            out = table(*args, **kwargs)
            for row in out.values():
                failed = ~row.landed
                row.points[failed] = 0.5
                row.multipliers[failed] = 2.0
                row.status[failed] = 0
            return out

        monkeypatch.setattr(regions, "landing_table", all_landed)
        assert scalar_arc(MapModel(c=0), parse_address("0"), 0.5, 40) == "singular-hit"
        g = assert_same_graph_arcs(MapModel(c=0), 1, 1)
        assert g.failures == [(parse_address("0"), "singular-hit")]
        assert len(g.arcs) == 2

    def test_trace_not_converged_arc(self, monkeypatch):
        monkeypatch.setattr(regions, "_ARC_MAX_SAMPLES", 28)
        g = assert_same_graph_arcs(M2, 3, 2)
        assert {status for _, status in g.failures} == {"trace-not-converged"}
        assert g.arcs


class TestPointLocation:
    def test_attracting_basin_and_neighbor_share_region(self, graph_m2):
        assert graph_m2.basic_region_of(FIX_ATTRACTING + 0j) == \
            graph_m2.basic_region_of(-1.0 + 0j)

    def test_landing_point_is_on_arc(self, graph_m2):
        with pytest.raises(OnArcError):
            graph_m2.basic_region_of(FIX_REPELLING + 0j)

    def test_golden_value_5_plus_minus_3i(self, graph_m2):
        # recorded oracle output: both sides connect around the arc ends
        a = graph_m2.basic_region_of(5 + 3j)
        b = graph_m2.basic_region_of(5 - 3j)
        assert a == b

    def test_opposite_sides_of_real_arc_far_right(self, graph_m2):
        # inside the truncation range the real-axis arc separates locally:
        # crossing it directly is impossible, the connection goes around
        hi = graph_m2.basic_region_of(2.0 + 0.01j)
        lo = graph_m2.basic_region_of(2.0 - 0.01j)
        assert hi == lo == graph_m2.basic_region_of(-1.0 + 0j)

    def test_region_near_resolves_on_arc_points(self, graph_m2):
        rid = graph_m2.region_near(FIX_REPELLING + 0j)
        assert rid == graph_m2.basic_region_of(-1.0 + 0j)

    def test_region_id_stability_around_representatives(self, graph_m2):
        for region in graph_m2.to_json_dict()["regions"]:
            rid, rep = region["id"], complex(*region["representative"])
            assert graph_m2.basic_region_of(rep) == rid
            for k in range(8):
                ang = math.pi * k / 4
                w = rep + 1e-3 * complex(math.cos(ang), math.sin(ang))
                try:
                    assert graph_m2.basic_region_of(w) == rid
                except OnArcError:
                    pass

    def test_deterministic_rebuild(self):
        g1 = build_ray_graph(M2, 1, 1, depth=40, box=BOX, grid=60)
        g2 = build_ray_graph(M2, 1, 1, depth=40, box=BOX, grid=60)
        assert g1.to_json_dict()["regions"] == g2.to_json_dict()["regions"]
        for z in (-1 + 0j, 2 + 3j, 2 - 3j, 0.5 + 6.9j):
            assert g1.basic_region_of(z) == g2.basic_region_of(z)


def scalar_locate(g, z):
    """Reference point location, one point and one probe at a time.

    The snap distance is taken segment by segment in Python floats, the cell
    by int() with the clamp after it, and the ring search tries the probes
    nearest first, giving up after _MAX_PROBES blocked ones.  Returns (id,
    status).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return -1, NO_REGION
    dist = math.inf
    for a, b in g._segs.tolist():
        ux, uy = b.real - a.real, b.imag - a.imag
        denom = ux * ux + uy * uy
        t = ((z.real - a.real) * ux + (z.imag - a.imag) * uy) / (denom if denom else 1.0)
        t = min(max(t, 0.0), 1.0)
        ex, ey = z.real - (a.real + t * ux), z.imag - (a.imag + t * uy)
        dist = min(dist, math.sqrt(ex * ex + ey * ey))
    if dist < regions.SNAP_TOL:
        return -1, ON_ARC
    xlo, _, ylo, _ = g.box
    dx, dy = g._cell_size()
    cx = min(g.grid - 1, max(0, int((z.real - xlo) / dx)))
    cy = min(g.grid - 1, max(0, int((z.imag - ylo) / dy)))
    tried = 0
    for ring in range(g.grid):
        cand = sorted((abs(probe(g, ix, iy) - z), ix, iy)
                      for ix in range(cx - ring, cx + ring + 1)
                      for iy in range(cy - ring, cy + ring + 1)
                      if max(abs(ix - cx), abs(iy - cy)) == ring
                      and 0 <= ix < g.grid and 0 <= iy < g.grid)
        for _, ix, iy in cand:
            tried += 1
            hits = segments_cross(z, probe(g, ix, iy), *g._segs.T) if len(g._segs) else []
            if not np.any(hits):
                return int(g._region_of_probe[iy * g.grid + ix]), LOCATED
            if tried > regions._MAX_PROBES:
                return -1, NO_REGION
    return -1, NO_REGION


def scalar_locate_near(g, z):
    """Reference compass probing: (id, witness, status of z itself)."""
    rid, status = scalar_locate(g, z)
    if status != ON_ARC:
        return rid, complex(z), status
    for radius in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        for k in range(8):
            ang = math.pi * k / 4.0
            w = complex(z) + radius * complex(math.cos(ang), math.sin(ang))
            wid, wst = scalar_locate(g, w)
            if wst == LOCATED:
                return wid, w, ON_ARC
    return -1, complex(z), ON_ARC


def enclosure(z, half=0.05):
    """Four segments of a small square around z."""
    corners = [z + half * complex(sx, sy) for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    return [(corners[i], corners[(i + 1) % 4]) for i in range(4)]


def hand_graph(segs, box=BOX, grid=20):
    g = RayGraph(map=M2, p=1, window=0, depth=0, box=box, grid=grid, arcs=[], failures=[],
                 _segs=np.array(segs, dtype=complex).reshape(-1, 2))
    g._index_segments()
    g._build_regions()
    return g


def assert_parity(g, points):
    """regions_of and regions_near equal the references point by point
    (compared by repr, so NaN witnesses and signed zeros count)."""
    with np.errstate(all="ignore"):  # far points overflow the reference too
        ids, status = g.regions_of(points)
        assert list(zip(ids.tolist(), status.tolist())) == [scalar_locate(g, z) for z in points]
        ids, witnesses, status = g.regions_near(points)
        assert repr(list(zip(ids.tolist(), witnesses.tolist(), status.tolist()))) == \
            repr([scalar_locate_near(g, z) for z in points])


class TestBatchedLocation:
    def test_random_points(self, graph_m2):
        rng = np.random.default_rng(1)
        z = rng.uniform(-3.5, 3.5, 400) + 1j * rng.uniform(-7.5, 7.5, 400)
        assert_parity(graph_m2, z)

    def test_points_on_arcs(self, graph_m2):
        # the real axis right of the landing point is the arc of ray 0
        on_axis = [complex(x, 0.0) for x in np.linspace(FIX_REPELLING, 6.0, 40)]
        vertices = [v for arc in graph_m2.arcs for v in arc.vertices[:60:3]]
        points = [FIX_REPELLING + 0j, *on_axis, *vertices, -1.0 + 0j]
        _, status = graph_m2.regions_of(points)
        assert (status == ON_ARC).sum() >= len(on_axis) + len(vertices)
        assert_parity(graph_m2, points)

    @staticmethod
    def near_arcs(g):
        """Points just off the arcs in the box, some with their own probe
        across the arc."""
        z = np.array([a + t * (b - a) + side * 1e-3j * (b - a) / abs(b - a)
                      for a, b in g._segs.tolist() if abs(b - a) > 0
                      and abs((a + b).real / 2) < 3 and abs((a + b).imag / 2) < 7
                      for t in np.linspace(0.05, 0.95, 15) for side in (1, -1)])
        ix, iy = g._cells_of(z.real, z.imag)
        return z[g._blocked(z, g._probes(ix, iy))]

    def test_own_cell_probe_blocked(self, graph_m2):
        z = self.near_arcs(graph_m2)
        assert len(z) >= 10
        assert_parity(graph_m2, z)

    def test_probe_cap(self, graph_m2, monkeypatch):
        # the own-cell probe counts as the first one tried
        z = self.near_arcs(graph_m2)
        located = []
        for cap in range(0, 6):
            monkeypatch.setattr(regions, "_MAX_PROBES", cap)
            assert_parity(graph_m2, z)
            located.append(int((graph_m2.regions_of(z)[1] == LOCATED).sum()))
        assert located[0] == 0 and located[-1] == len(z)
        assert any(0 < n < len(z) for n in located)

    @staticmethod
    def blocked_calls(g, points, monkeypatch):
        """Number of _blocked passes one regions_of call makes."""
        calls = []
        blocked = RayGraph._blocked

        def counted(graph, a, *args):
            calls.append(len(a))
            return blocked(graph, a, *args)

        with monkeypatch.context() as patch:
            patch.setattr(RayGraph, "_blocked", counted)
            g.regions_of(points)
        return len(calls)

    @staticmethod
    def edge_graph(halves=(0.04,)):
        """Grid-6 graph of the box [0, 3]^2 with a short wall between each of
        the points and its own cell probe: points in the corner and edge
        cells, and beyond the box (clamped to an edge cell).  The walls take
        their half-lengths from `halves` in turn; 0.1 shuts a corner point
        off from every probe."""
        box = (0.0, 3.0, 0.0, 3.0)
        g = hand_graph([], box=box, grid=6)
        points = [complex(x, y) for x, y in (
            (0.1, 0.1), (2.9, 0.1), (0.1, 2.9), (2.9, 2.9),  # corners
            (1.3, 0.05), (0.05, 1.8), (2.95, 1.1), (1.6, 2.95),  # edges
            (-0.5, 1.3), (3.7, 3.9), (1.4, -2.0))]  # clamped
        walls = []
        for z, half in zip(points, itertools.cycle(halves)):
            ix, iy = g._cells_of(np.array([z.real]), np.array([z.imag]))
            q = probe(g, int(ix[0]), int(iy[0]))
            mid, across = (z + q) / 2, half * 1j * (q - z) / abs(q - z)
            walls.append((mid - across, mid + across))
        return hand_graph(walls, box=box, grid=6), points

    def test_edges_and_corners(self):
        g, points = self.edge_graph()
        ix, iy = g._cells_of(np.array(points).real, np.array(points).imag)
        assert g._blocked(np.array(points), g._probes(ix, iy)).all()
        assert {0, 5} <= set(ix.tolist()) and {0, 5} <= set(iy.tolist())
        assert_parity(g, points)
        assert (g.regions_of(points)[1] == LOCATED).all()

    def test_blocked_points_search_together(self, graph_m2, monkeypatch):
        # one pass for the own-cell probes, then one per ring while any
        # point still searches
        passes = []
        for g, points in (self.edge_graph((0.1, 0.04, 0.04)),
                          (graph_m2, self.near_arcs(graph_m2))):
            assert_parity(g, points)
            alone = [self.blocked_calls(g, [z], monkeypatch) for z in points]
            assert self.blocked_calls(g, points, monkeypatch) == max(alone)
            passes.append(max(alone))
        # two corner points exhaust all 5 rings of the grid-6 graph; ring 1
        # is enough near the arcs of graph_m2
        assert passes == [6, 2]

    def test_probe_cap_at_edges_and_corners(self, monkeypatch):
        g, points = self.edge_graph((0.04, 0.06, 0.08))
        located = []
        for cap in range(0, 6):
            monkeypatch.setattr(regions, "_MAX_PROBES", cap)
            assert_parity(g, points)
            located.append(int((g.regions_of(points)[1] == LOCATED).sum()))
            if cap == 0:  # every point stops after its first ring
                assert self.blocked_calls(g, points, monkeypatch) == 2
        assert located[0] == 0 and len(set(located)) > 2

    def test_equidistant_probes_read_by_ix_then_iy(self):
        # z is blocked from its own probe (0, 0) and as far from probe (1, 0)
        # as from probe (0, 1), which the diagonal wall puts in other regions
        g = hand_graph([(0.2 + 0.35j, 0.35 + 0.2j), (0.36 + 0.36j, 4 + 4j)],
                       box=(0.0, 3.0, 0.0, 3.0), grid=6)
        z = 0.3 + 0.3j
        by_probe = g._region_of_probe.reshape(6, 6)
        assert by_probe[0, 1] != by_probe[1, 0]
        assert_parity(g, [z])
        assert g.basic_region_of(z) == by_probe[1, 0]  # row iy = 1, column ix = 0

    @staticmethod
    def interior_count(g, points):
        """Number of points whose snap and own-probe tests read the index."""
        z = np.asarray(points, dtype=complex)
        with np.errstate(all="ignore"):
            ix, iy = g._cells_of(z.real, z.imag)
        return int((g._interior(ix, iy) & np.isfinite(z)).sum())

    def test_bench_circle_graphs(self, graph_circle):
        # every point's own probe is blocked, so ring 1 is searched
        z = self.near_arcs(graph_circle)
        assert len(z) >= 200 and self.interior_count(graph_circle, z) >= 0.8 * len(z)
        assert_parity(graph_circle, z)

    def test_cell_boundaries_and_probe_centres(self, graph_circle):
        g = graph_circle
        xlo, _, ylo, _ = g.box
        dx, dy = g._cell_size()
        steps = np.concatenate([np.arange(0, g.grid + 1, 8), np.arange(0, g.grid, 8) + 0.5])
        z = (xlo + steps[:, None] * dx + 1j * (ylo + steps[None, :] * dy)).ravel()
        assert self.interior_count(g, z) > len(z) // 2
        assert_parity(g, z)

    def test_edge_cells_and_just_outside(self, graph_circle):
        g = graph_circle
        xlo, xhi, ylo, yhi = g.box
        dx, dy = g._cell_size()
        across = []
        for lo, hi, d in ((xlo, xhi, dx), (ylo, yhi, dy)):
            across.append([np.nextafter(lo, -math.inf), lo, lo + 0.3 * d, lo + d, lo + 1.7 * d,
                           hi - 1.7 * d, hi - d, hi - 0.3 * d, hi, np.nextafter(hi, math.inf),
                           hi + 1.0])
        along = [np.linspace(ylo - 0.5, yhi + 0.5, 29), np.linspace(xlo - 0.5, xhi + 0.5, 29)]
        z = np.concatenate([(np.array(across[0])[:, None] + 1j * along[0]).ravel(),
                            (along[1][:, None] + 1j * np.array(across[1])).ravel()])
        assert 0 < self.interior_count(g, z) < len(z)
        assert_parity(g, z)

    @pytest.mark.parametrize("grid", [3, 7, 30])
    def test_segments_meeting_the_box_at_its_edge(self, grid):
        # TestIndex's segments lie on the box's edge, outside it with a
        # bounding box that meets it, across it and far from it
        g = hand_graph(TestIndex.SEGMENTS, box=(0.0, 3.0, 0.0, 3.0), grid=grid)
        lattice = np.linspace(-0.2, 3.2, 18)
        z = (lattice[:, None] + 1j * lattice[None, :]).ravel()
        near = [w + offset for a, b in TestIndex.SEGMENTS if abs(b - a) < 100
                for w in (a, (a + b) / 2, b) for offset in (5e-10, 2e-9j, 0.05 - 0.05j)]
        points = [*z, *near, 3.0 + 1.5j, 3.0 + 1e-12 + 1.5j, 2.9 + 1.5j]
        assert self.interior_count(g, points) > 0
        assert_parity(g, points)

    def test_first_clear_probe_beyond_ring_1(self, monkeypatch):
        # a small square around z, open only towards the probes of cells
        # (7, 6) and (8, 6), shuts off the probes of rings 0 and 1; probe
        # (7, 6) has a square of its own, which the index lists in none of
        # the cells next to z's, so ring 2 must test every segment
        z, h = 5.52 + 5.47j, 0.02
        corners = [z + h * complex(sx, sy) for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
        walls = [(corners[0], corners[1]), (corners[1], z + complex(h, 0.006)),
                 (z + complex(h, 0.013), corners[2]), (corners[2], corners[3]),
                 (corners[3], corners[0]), *enclosure(7.5 + 6.5j, 0.15)]
        g = hand_graph(walls, box=(0.0, 10.0, 0.0, 10.0), grid=10)
        assert self.interior_count(g, [z]) == 1
        by_probe = g._region_of_probe.reshape(10, 10)
        assert by_probe[6, 7] != by_probe[6, 8]
        assert_parity(g, [z, z + 0.001, 2.5 + 2.5j])
        # one pass for the own probe, then one for each of rings 1 to 3
        assert self.blocked_calls(g, [z], monkeypatch) == 4
        assert g.basic_region_of(z) == by_probe[6, 8]

    def test_empty_graph(self):
        g = hand_graph([], box=(0.0, 3.0, 0.0, 3.0), grid=10)
        z = (np.linspace(-0.5, 3.5, 15)[:, None] + 1j * np.linspace(-0.5, 3.5, 15)).ravel()
        assert self.interior_count(g, z) > 0
        assert_parity(g, z)
        ids, status = g.regions_of(z)
        assert (ids == 0).all() and (status == LOCATED).all()

    def test_cells_narrower_than_the_snap_tolerance(self):
        # the cells are 5e-10 wide: a segment 1.8 cells from a point can be
        # within SNAP_TOL of it without being listed in its cell, so no
        # point reads the index
        g = hand_graph([(1e-9 + 0j, 1e-9 + 1e-8j)], box=(0.0, 1e-8, 0.0, 1e-8), grid=20)
        z = [complex(1e-9 + dx, y) for dx in (-1.5e-9, -0.9e-9, 0.5e-9, 0.95e-9, 2.5e-9)
             for y in (3.3e-9, 5e-9)]
        assert self.interior_count(g, z) == 0
        assert_parity(g, z)
        assert (g.regions_of(z)[1] == ON_ARC).sum() == 6

    def test_point_alone_equals_its_batch(self, graph_circle):
        g = graph_circle
        rng = np.random.default_rng(4)
        z = np.concatenate([self.near_arcs(g)[::4], FIX_REPELLING + np.zeros(1),
                            rng.uniform(-3.5, 3.5, 40) + 1j * rng.uniform(-7.5, 7.5, 40)])
        batch = [a.tolist() for a in (*g.regions_of(z), *g.regions_near(z))]
        alone = [[a.tolist()[0] for a in (*g.regions_of([w]), *g.regions_near([w]))] for w in z]
        assert alone == [list(row) for row in zip(*batch)]

    def test_grid_exhausted_before_the_cap(self, monkeypatch):
        # 16 probes, all blocked for the two enclosed points, far below 600
        inside = [0.8 + 0.7j, 2.2 + 1.7j]
        g = hand_graph(enclosure(inside[0], 0.1) + enclosure(inside[1], 0.1),
                       box=(0.0, 3.0, 0.0, 3.0), grid=4)
        points = [inside[0], 1.5 + 1.5j, inside[1], 2.9 + 0.1j]
        assert_parity(g, points)
        assert g.regions_of(points)[1].tolist() == [NO_REGION, LOCATED, NO_REGION, LOCATED]
        # rings 1 to 3 around the cell of the first point cover the grid
        assert self.blocked_calls(g, points, monkeypatch) == 4
        with pytest.raises(PointLocationError, match="point location failed for"):
            g.basic_region_of(inside[1])

    def test_not_finite(self, graph_m2):
        nan, inf = math.nan, math.inf
        points = [complex(nan, 0), complex(0, nan), complex(inf, 0), complex(-inf, inf), 1 + 1j]
        ids, status = graph_m2.regions_of(points)
        assert status.tolist() == [NO_REGION] * 4 + [LOCATED]
        assert_parity(graph_m2, points)
        with pytest.raises(PointLocationError, match="escaped point has no region"):
            graph_m2.basic_region_of(complex(inf, 0))

    def test_far_outside_the_box(self, graph_m2):
        # a cast before the clamp would wrap these to cell 0, not grid - 1
        points = [complex(x, y) for x in (1e300, -1e300, 1e20, 50.0)
                  for y in (1e300, -1e300, 0.5, 1e10)]
        assert_parity(graph_m2, points)
        ix, iy = graph_m2._cells_of(np.array([1e300]), np.array([-1e300]))
        assert (ix[0], iy[0]) == (graph_m2.grid - 1, 0)

    def test_graph_without_segments(self):
        g = build_ray_graph(MapModel(c=0), 1, 0, depth=40, box=BOX, grid=40)
        assert len(g._segs) == 0
        rng = np.random.default_rng(2)
        z = rng.uniform(-4, 4, 50) + 1j * rng.uniform(-8, 8, 50)
        assert_parity(g, z)
        assert (g.regions_of(z)[0] == 0).all()

    @pytest.mark.parametrize("grid, message", [
        (3, "point location failed for"), (30, "no crossing-free path from")])
    def test_enclosed_point_has_no_region(self, grid, message):
        # 9 probes are exhausted before 600 are blocked; 900 are not
        z = 1.0 + 0.3j
        g = hand_graph(enclosure(z), box=(0.0, 3.0, 0.0, 3.0), grid=grid)
        assert_parity(g, [z, z + 0.01, 2.5 + 2.5j])
        with pytest.raises(PointLocationError, match=message):
            g.basic_region_of(z)
        with pytest.raises(PointLocationError, match=message):
            g.region_near(z)

    def test_chunked_equals_one_chunk(self, graph_m2, monkeypatch):
        rng = np.random.default_rng(3)
        z = np.concatenate([
            rng.uniform(-3.5, 3.5, 150) + 1j * rng.uniform(-7.5, 7.5, 150),
            [complex(x, 0.0) for x in np.linspace(1.2, 5.0, 30)]])
        whole = graph_m2.regions_near(z)
        monkeypatch.setattr(regions, "_PAIR_CAP", 7)
        assert list(graph_m2._chunks(4)) == [slice(i, i + 1) for i in range(4)]
        for a, b in zip(graph_m2.regions_near(z), whole):
            assert a.tolist() == b.tolist()

    def test_one_element_calls(self, graph_m2):
        with pytest.raises(OnArcError, match="lies on the ray graph"):
            graph_m2.basic_region_of(FIX_REPELLING + 0j)
        rid, witness, _ = scalar_locate_near(graph_m2, FIX_REPELLING)
        assert graph_m2.region_near(FIX_REPELLING + 0j) == rid
        assert graph_m2.regions_near([FIX_REPELLING + 0j])[1][0] == witness != FIX_REPELLING
        assert graph_m2.region_near(-1.0 + 0j) == graph_m2.basic_region_of(-1.0 + 0j)


def orbit_regions(graph, z, n_steps):
    """Region ids of z, f(z), ..., f^{n_steps}(z) for a bounded orbit."""
    out = []
    for _ in range(n_steps + 1):
        out.append(graph.basic_region_of(z))
        z = evaluate(M2, z)
    return out


class TestItinerary:
    def test_fixed_point_constant(self, graph_m2):
        out = orbit_regions(graph_m2, FIX_ATTRACTING + 0j, 10)
        assert len(set(out)) == 1

    def test_singular_orbit_eventually_constant(self, graph_m2):
        out = orbit_regions(graph_m2, -2 + 0j, 20)
        target = graph_m2.basic_region_of(FIX_ATTRACTING + 0j)
        assert out[-1] == target
        assert all(step == target for step in out[5:])

    def test_cycle_itinerary_periodic(self, graph_m2):
        two = [c for c in find_cycles(M2, 2, BOX, grid=30).cycles if c.period == 2]
        for cyc in two:
            if (graph_m2.regions_of(cyc.points)[1] == ON_ARC).any():
                continue
            out = orbit_regions(graph_m2, cyc.points[0], 4)
            assert out[0] == out[2] == out[4]


class TestSeparationAudit:
    def test_hyperbolic_audit_passes(self, graph_m2):
        cycles = find_cycles(M2, 1, BOX, grid=30).cycles
        audit = interior_fixed_point_audit(graph_m2, cycles)
        assert audit.ok
        assert not audit.poisoned
        # the repelling fixed point is a landing point, not interior
        assert any(abs(z - FIX_REPELLING) < 1e-8 for z in audit.landing_matches)
        interior = [z for pts in audit.regions_to_points.values() for z in pts]
        assert len(interior) == 1
        assert abs(interior[0] - FIX_ATTRACTING) < 1e-8

    def test_siegel_audit_passes(self):
        ms = MapModel(c=SIEGEL_C)
        g = build_ray_graph(ms, 1, 1, depth=40, box=BOX, grid=120)
        cycles = find_cycles(ms, 1, BOX, grid=40).cycles
        audit = interior_fixed_point_audit(g, cycles)
        assert audit.ok
        assert not audit.poisoned
        interior = [z for pts in audit.regions_to_points.values() for z in pts]
        assert len(interior) == 1
        assert abs(interior[0] - 2j * math.pi * theta) < 1e-9

    def test_empty_graph_reports_violation(self):
        # c = 0 with window 0: the only candidate arc fails (singular orbit
        # on the ray), leaving an empty graph; both fixed points of e^z in
        # the box become interior points of the single region
        m0 = MapModel(c=0)
        g0 = build_ray_graph(m0, 1, 0, depth=40, box=BOX, grid=40)
        assert not g0.arcs
        cycles = find_cycles(m0, 1, BOX, grid=40).cycles
        assert len(cycles) == 2  # 0.318 +- 1.337i
        audit = interior_fixed_point_audit(g0, cycles)
        assert audit.poisoned
        assert audit.violations


class TestExport:
    def test_json_dict_shape(self, graph_m2):
        doc = graph_m2.to_json_dict()
        assert doc["p"] == 1 and doc["window"] == 1
        assert len(doc["arcs"]) == 3
        for arc in doc["arcs"]:
            assert set(arc) == {"address", "landing", "polyline"}
        assert doc["regions"][0]["id"] == 0
