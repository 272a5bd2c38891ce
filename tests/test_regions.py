import cmath
import math

import numpy as np
import pytest

from raycensus.addresses import parse_address
from raycensus.cycles import find_cycles
from raycensus.exponential import MapModel, evaluate
from raycensus.regions import (
    OnArcError,
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

    for iy in range(grid):
        right, up = g._edge_crosses(iy)
        assert len(right) == grid - 1
        assert len(up) == (grid if iy + 1 < grid else 0)
        for crossed, dx, dy in ((right, 1, 0), (up, 0, 1)):
            for ix in range(len(crossed)):
                a, b = g._probe(ix, iy), g._probe(ix + dx, iy + dy)
                free = g._crossings_all(a, b) == 0
                assert crossed[ix] != free, (ix, iy, dx, dy)
                if free:
                    parent[root((iy + dy) * grid + ix + dx)] = root(iy * grid + ix)
    ids: dict[int, int] = {}
    labels = [ids.setdefault(root(i), len(ids)) for i in range(grid * grid)]
    firsts = [labels.index(r) for r in range(len(ids))]
    return labels, [g._probe(i % grid, i // grid) for i in firsts]


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
        # a wall between each two neighbouring columns, open alternately at
        # the top and at the bottom row: one corridor through every probe,
        # the longest path min-label propagation can meet on this grid
        grid = 40
        walls = [(complex(x, -1), complex(x, grid - 1)) if x % 2
                 else (complex(x, 1), complex(x, grid + 1)) for x in range(1, grid)]
        g = RayGraph(map=M2, p=1, window=0, depth=0, box=(0.0, grid, 0.0, grid),
                     grid=grid, arcs=[], failures=[], _segs=np.array(walls))
        g._index_segments()
        g._build_regions()
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
            if any(graph_m2.on_graph(z) for z in cyc.points):
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
