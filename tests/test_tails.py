import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from raycensus import rays, tails
from raycensus.addresses import InfiniteAddress, parse_address, project, shift_by
from raycensus.cycles import find_cycles
from raycensus.exponential import (
    MapModel,
    SingularValueHit,
    evaluate,
    in_fundamental_domain_exact,
    is_escaped,
    singular_values,
    strip_of,
)
from raycensus.rays import (
    ESCAPE_THRESHOLD,
    ladder_descend,
    landing_point,
    pullback_sequence,
)
from raycensus.regions import (
    ON_ARC,
    OnArcError,
    PointLocationError,
    RayGraph,
    build_ray_graph,
    segments_cross,
)
from raycensus.tails import (
    RadiusResult,
    TailContext,
    TrappedSingularOrbit,
    choose_radius,
    make_tail_context,
    piece_diameter,
    piece_mapping_check,
    tail1_membership,
    tail_diagnostics,
    tail_exists,
    tail_membership,
)
from test_rays import branches

M2 = MapModel(c=-2)
BOX = (-3.0, 3.0, -7.0, 7.0)
ZERO = parse_address("0")
FIX_REPELLING = 1.1461932206205825


@pytest.fixture(scope="module")
def graph_m2():
    return build_ray_graph(M2, 1, 1, box=BOX, grid=120)


@pytest.fixture(scope="module")
def ctx(graph_m2):
    rep = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles if c.is_repelling][0]
    return make_tail_context(M2, rep, graph_m2, horizon=1000)


def scalar_tail_membership(ctx, address, z):
    """tail_membership of one point against the whole address; the location
    error of the walk is raised."""
    verdict = tail_membership(ctx, address, [z], [len(address)])[0]
    if isinstance(verdict, Exception):
        raise verdict
    return verdict


class TestChooseRadius:
    def test_finite_radius_at_hyperbolic_parameter(self, graph_m2, ctx):
        res = choose_radius(M2, ctx.cycle, graph_m2, ctx.b_regions, 1000)
        assert res.status == "radius"
        # 1.25 * max(R=4, |z0|=1.146, singular-orbit moduli <= 2.0036)
        assert abs(res.r - 5.0) < 1e-9
        assert res.r > max(abs(z) for z in ctx.cycle.points)
        assert res.r >= M2.R

    def test_cycle_moduli_dominate(self, graph_m2):
        strip1 = [c for c in find_cycles(M2, 1, (-3, 3, 3, 9), grid=50).cycles
                  if c.is_repelling][0]
        g = build_ray_graph(M2, 1, 1, box=(-3, 3, -1, 9), grid=100)
        b = tuple(g.region_near(z) for z in strip1.points)
        res = choose_radius(M2, strip1, g, b, 1000)
        assert res.status == "radius"
        assert res.r >= 1.25 * abs(strip1.points[0])

    def test_c0_trapped_unbounded(self):
        # singular orbit of e^z escapes inside the region of its fixed point
        m0 = MapModel(c=0)
        g0 = build_ray_graph(m0, 1, 1, box=BOX, grid=60)
        assert len(g0.arcs) == 2  # 0-bar fails, +-1 land
        rep = [c for c in find_cycles(m0, 1, BOX, grid=40).cycles
               if c.is_repelling and c.points[0].imag > 0][0]
        b = tuple(g0.region_near(z) for z in rep.points)
        res = choose_radius(m0, rep, g0, b, 200)
        assert res.status == "trapped-unbounded"
        with pytest.raises(TrappedSingularOrbit):
            make_tail_context(m0, rep, g0, horizon=200)

    def test_each_distinct_orbit_point_located_once(self, ctx, monkeypatch):
        # the singular orbit of c=-2 falls into the attracting fixed point, so
        # its horizon + 1 points hold few distinct values
        horizon = 1000  # the horizon of the ctx fixture
        orbit = [complex(-2)]
        for _ in range(horizon):
            orbit.append(evaluate(M2, orbit[-1]))
        case = (M2, ctx.cycle, ctx.graph, ctx.b_regions, horizon)
        expected = windowed_choose_radius(*case)
        calls = []
        regions_near = RayGraph.regions_near

        def counted(graph, points):
            calls.append(len(points))
            return regions_near(graph, points)

        monkeypatch.setattr(RayGraph, "regions_near", counted)
        res = choose_radius(*case)
        assert res == expected and res.follow_steps == horizon
        assert sum(calls) <= len(set(orbit)) < 30

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_rejected(self, ctx, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            choose_radius(M2, ctx.cycle, ctx.graph, ctx.b_regions, horizon)

    def test_context_of_on_graph_cycle(self, ctx):
        # 1.14619 is the landing point of 0-bar
        assert abs(ctx.r - 5.0) < 1e-9


class TestTail1:
    def test_real_far_points(self, ctx):
        for t in (ctx.r + 1.0, 10.0, 50.0, 200.0):
            assert tail1_membership(ctx, 0, complex(t, 0.0))

    def test_small_image_fails(self, ctx):
        z = 1.5 + 0.5j
        assert abs(evaluate(M2, z)) <= ctx.r
        assert not tail1_membership(ctx, 0, z)

    def test_wrong_domain_fails(self, ctx):
        assert not tail1_membership(ctx, 1, 50 + 0j)
        assert not tail1_membership(ctx, 0, complex(50, 2 * math.pi))

    def test_wrong_region_fails(self, ctx):
        # context with B_0 forced to a different region id rejects everything
        fake = dataclasses.replace(ctx, b_regions=(ctx.b_regions[0] + 1,))
        assert not tail1_membership(fake, 0, 50 + 0j)

    def test_radius_below_R_rejected(self, ctx):
        # tail1_membership tests F_k at the point alone, which is sound only
        # where D_r contains D (r >= R >= |c| + 2)
        assert dataclasses.replace(ctx, r=M2.R).r == M2.R
        for r in (math.nextafter(M2.R, 0.0), abs(M2.c), math.nan):
            with pytest.raises(ValueError, match="D_r must contain D"):
                dataclasses.replace(ctx, r=r)


class TestTailMembership:
    def test_level_one_reduces_to_tail1(self, ctx):
        z = 50 + 0j
        assert scalar_tail_membership(ctx, (0,), z) == tail1_membership(ctx, 0, z)

    def test_level_two_pullback_witness(self, ctx):
        z = pullback_sequence(M2, ZERO, M2.seed_potential, 1)[-1]
        assert scalar_tail_membership(ctx, (0, 0), z)

    def test_cycle_point_not_in_tails(self, ctx):
        z0 = ctx.cycle.points[0]
        for n in (1, 2, 5):
            assert not scalar_tail_membership(ctx, tuple([0] * n), z0)

    def test_bad_length_rejected(self):
        m2ctx_period = 1  # m = 1 accepts any length >= 1; force m = 2
        rep2 = [c for c in find_cycles(M2, 2, BOX, grid=40).cycles
                if c.period == 2][0]
        g2 = build_ray_graph(M2, 2, 1, box=BOX, grid=60)
        ctx2 = make_tail_context(M2, rep2, g2, horizon=200)
        with pytest.raises(ValueError):
            scalar_tail_membership(ctx2, (0, 1), 50 + 0j)  # length 2 != 2(n-1)+1


class TestTailExists:
    def test_exists_and_witnesses_converge(self, ctx):
        prev = None
        levels = (1, 2, 5, 10, 20, 30)
        for n, rec in zip(levels, tail_exists(ctx, ZERO, levels)):
            assert rec.exists, (n, rec.reason)
            d = abs(rec.witness - FIX_REPELLING)
            if prev is not None:
                assert d < prev or d < 1e-12
            prev = d
        assert prev < 1e-10

    def test_level_one_any_label_with_witness(self):
        # needs a graph box containing the +-1 landing points (Im ~ 7.34):
        # otherwise the witness of label 1 sits in a box-clipped sliver
        g = build_ray_graph(M2, 1, 1, box=(-3, 3, -9, 9), grid=140)
        rep = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles
               if c.is_repelling][0]
        wide = make_tail_context(M2, rep, g, horizon=300)
        for label in (-1, 0, 1):
            [rec] = tail_exists(wide, parse_address(str(label)), [1])
            assert rec.exists, (label, rec.reason)

    def test_foreign_region_label_fails_at_level_one(self, ctx):
        # operational stand-in for a label whose domain misses B_0: force a
        # different B_0 id so no tail-1 witness is accepted
        fake = dataclasses.replace(ctx, b_regions=(ctx.b_regions[0] + 1,))
        [rec] = tail_exists(fake, ZERO, [1])
        assert not rec.exists
        assert rec.reason == "no-tail1-witness"

    def test_witness_cauchy_iff_landing(self, ctx):
        # landing address: geometric Cauchy decay, limit = landing point
        res = landing_point(M2, ZERO)
        assert res.landed
        wits = [rec.witness for rec in tail_exists(ctx, ZERO, range(1, 21))]
        diffs = [abs(a - b) for a, b in zip(wits, wits[1:])]
        for a, b in zip(diffs[3:], diffs[4:]):
            assert b < 0.7 * a or b < 1e-13
        assert abs(wits[-1] - res.point) < 1e-8

    def test_unlocatable_witness_orbit_is_no_region(self):
        # the context of `tails --c -1,0.3 --address 0,1`: the level-8 witness
        # orbit meets a point about 1e-8 from a landing vertex, in a wedge
        # between two arcs, where no basic region can be decided
        m = MapModel(c=complex(-1, 0.3))
        s = parse_address("0,1")
        res = landing_point(m, s)
        target = next(cyc for cyc in find_cycles(m, 2, BOX, grid=40).cycles
                      if cyc.is_repelling and min(abs(res.point - z) for z in cyc.points) < 1e-6)
        c = make_tail_context(m, target, build_ray_graph(m, 2, 1, box=BOX, grid=120),
                              horizon=1000)
        seventh, rec = tail_exists(c, s, [7, 8])
        assert seventh.exists
        assert (rec.exists, rec.reason) == (False, "no-region")
        assert rec.address == project(s, 8, 2)
        with pytest.raises(PointLocationError):
            scalar_tail_membership(c, rec.address, rec.witness)
        assert ref_tail_exists(c, s, 8) == rec


def _potential_for_level(n: int, out: float = 10.0) -> float:
    """Ladder potential whose sample enters tau_n: n-1 backward flow steps
    of an escaped potential (u <- ln(1+u)), so f^{n-1}(sample) is far out."""
    u = out
    for _ in range(n - 1):
        u = math.log1p(u)
    return u


class TestRayInTail:
    @staticmethod
    def sample_in_tail(ctx, t, n):
        """Tail membership at level n of the 0-ray sample at ladder potential t."""
        return scalar_tail_membership(ctx, project(ZERO, n, 1),
                                      ladder_descend(M2, ZERO, t, 80)[0])

    def test_ray_samples_pass_membership(self, ctx):
        # a sample is in tau_n from the level where its forward images pass
        # radius r; the potential is matched to the level accordingly
        for n in (1, 2, 5, 10, 20):
            t = _potential_for_level(n)
            assert self.sample_in_tail(ctx, t, n), n

    def test_nesting_at_infinity(self, ctx):
        # the same sample lies in consecutive-level tails (far-out nesting)
        for n in (1, 2, 5, 10):
            t = _potential_for_level(n)
            assert self.sample_in_tail(ctx, t, n) and self.sample_in_tail(ctx, t, n + 1)

    def test_sample_below_its_level_is_outside(self, ctx):
        # deep samples are NOT in shallow tails: f^{n-1}(z) has small image
        assert not self.sample_in_tail(ctx, 0.5, 1)


class TestPieces:
    def test_diameters_shrink(self, ctx):
        diams = {n: piece_diameter(ctx, ZERO, n, samples=16).diameter
                 for n in range(5, 16)}
        for n in range(5, 11):
            assert diams[n + 5] < diams[n]

    def test_ratio_matches_inverse_multiplier(self, ctx):
        d10 = piece_diameter(ctx, ZERO, 10, samples=20).diameter
        d11 = piece_diameter(ctx, ZERO, 11, samples=20).diameter
        assert 0.25 <= d11 / d10 <= 0.40
        assert abs(d11 / d10 - 1 / 3.1461932206205825) < 0.01

    def test_disjoint_type_label_empty(self, ctx):
        # strip 2 lies entirely outside |z| <= r = 5: no pieces at all
        est = piece_diameter(ctx, InfiniteAddress((), (2,)), 1, samples=16)
        assert est.empty
        assert est.diameter == 0.0

    def test_mapping_identity(self, ctx):
        chk = piece_mapping_check(ctx, ZERO, 6, samples=16)
        assert chk.passed
        assert chk.n_checked > 100
        assert chk.n_failed == 0

    def test_mapping_needs_j_at_least_two(self, ctx):
        with pytest.raises(ValueError):
            piece_mapping_check(ctx, ZERO, 1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_rejected(self, ctx, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            piece_diameter(ctx, ZERO, 1, samples=samples)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            piece_mapping_check(ctx, ZERO, 2, samples=samples)


class TestImageGrids:
    def test_one_grid_build_per_label_at_any_level(self, ctx, monkeypatch):
        builds = []
        sample = tails._piece_image_samples

        def counted(context, label, grid_side):
            builds.append((label, grid_side))
            return sample(context, label, grid_side)

        monkeypatch.setattr(tails, "_piece_image_samples", counted)
        for max_level in (1, 6):
            builds.clear()
            tail_diagnostics(dataclasses.replace(ctx), ZERO, max_level, samples=8)
            assert builds == [(0, 8)], max_level

    def test_warm_context_gives_fresh_results(self, ctx):
        warm = dataclasses.replace(ctx)
        piece_diameter(warm, ZERO, 3, samples=12)
        assert warm._image_grids
        for n in (1, 7):
            assert (piece_diameter(warm, ZERO, n, samples=12)
                    == piece_diameter(dataclasses.replace(ctx), ZERO, n, samples=12))
        assert (piece_mapping_check(warm, ZERO, 4, samples=12)
                == piece_mapping_check(dataclasses.replace(ctx), ZERO, 4, samples=12))

    def test_replaced_regions_start_without_grids(self, ctx):
        assert not piece_diameter(ctx, ZERO, 3, samples=12).empty
        foreign = dataclasses.replace(ctx, b_regions=(ctx.b_regions[0] + 1,))
        assert not foreign._image_grids
        assert piece_diameter(foreign, ZERO, 3, samples=12).empty


class TestDiagnostics:
    @pytest.mark.parametrize("max_level", [0, -2])
    def test_max_level_below_one_rejected(self, ctx, max_level):
        with pytest.raises(ValueError, match="max_level must be >= 1"):
            tail_diagnostics(ctx, ZERO, max_level)


class TestPeriodTwoContext:
    def test_two_cycle_tails(self):
        rep2 = [c for c in find_cycles(M2, 2, BOX, grid=40).cycles
                if c.period == 2 and c.points[0].imag > 0][0]
        g2 = build_ray_graph(M2, 2, 1, box=BOX, grid=60)
        ctx2 = make_tail_context(M2, rep2, g2, horizon=300)
        s = landing_addr = None
        for cand in ("0,1", "1,0"):
            rec = landing_point(M2, parse_address(cand))
            if rec.landed and min(abs(rec.point - z) for z in rep2.points) < 1e-6:
                s = parse_address(cand)
                break
        assert s is not None
        # tails exist along the landing address and witnesses converge
        wits = tail_exists(ctx2, s, (1, 2, 4, 8))
        assert all(w.exists for w in wits)
        target = min(rep2.points, key=lambda z: abs(z - wits[-1].witness))
        assert abs(wits[-1].witness - target) < 1e-2


# ---------------------------------------------------------------------------
# scalar references: one point and one location call at a time

def ref_tail1(ctx, label, z):
    m = ctx.map
    if is_escaped(z) or not in_fundamental_domain_exact(m, z, label, radius=ctx.r):
        return False
    rid = ctx.graph.region_near(z)
    z_loc = complex(ctx.graph.regions_near([z])[1][0])
    if rid != ctx.b_regions[0]:
        return False
    far = complex(m.truncation + 1.0, z_loc.imag)
    if np.any(segments_cross(z_loc, far, *ctx.graph._segs.T)):
        return False
    x = z.real + 0.1
    while x <= min(math.log(ctx.r + abs(m.c)) + 0.1, m.truncation):
        if not in_fundamental_domain_exact(m, complex(x, z.imag), label, radius=ctx.r):
            return False
        x += 0.1
    return True


def ref_tail_membership(ctx, address, z):
    w = z
    for i in range(len(address) - 1):
        if is_escaped(w) or strip_of(w) != address[i]:
            return False
        if ctx.graph.region_near(w) != ctx.b_regions[i % ctx.cycle.period]:
            return False
        w = evaluate(ctx.map, w)
    return not is_escaped(w) and ref_tail1(ctx, address[-1], w)


def escapes_within(m, w, steps):
    for _ in range(steps):
        w = evaluate(m, w)
        if is_escaped(w) or abs(w) > ESCAPE_THRESHOLD:
            return True
    return False


def ref_choose_radius(m, cycle, graph, b_regions, horizon):
    best = max(m.R, max(abs(z) for z in cycle.points))
    follow = 0
    for s in singular_values(m):
        try:
            rid = graph.region_near(s)
        except (OnArcError, PointLocationError):
            continue
        if rid not in b_regions:
            continue
        i0 = b_regions.index(rid)
        tracked = [s]
        w = s
        for j in range(1, horizon + 1):
            w = evaluate(m, w)
            if is_escaped(w) or abs(w) > ESCAPE_THRESHOLD:
                return RadiusResult("trapped-unbounded", None, follow)
            try:
                rw = graph.region_near(w)
            except OnArcError:
                break
            except PointLocationError:
                # beyond the box on an orbit that escapes within the horizon
                xlo, xhi, ylo, yhi = graph.box
                in_box = xlo <= w.real <= xhi and ylo <= w.imag <= yhi
                if escapes_within(m, w, horizon - j) and not in_box:
                    return RadiusResult("trapped-unbounded", None, follow)
                raise
            if rw != b_regions[(i0 + j) % cycle.period]:
                break
            tracked.append(w)
            follow = j
        best = max(best, max(abs(t) for t in tracked))
        img = evaluate(m, tracked[-1])
        if not is_escaped(img):
            best = max(best, abs(img))
    return RadiusResult("radius", 1.25 * best, follow)


def windowed_choose_radius(m, cycle, graph, b_regions, horizon):
    """choose_radius with every doubling window located in full."""
    best = max(m.R, max(abs(z) for z in cycle.points))
    follow = 0
    for s in singular_values(m):
        try:
            rid = graph.region_near(s)
        except (OnArcError, PointLocationError):
            continue
        if rid not in b_regions:
            continue
        i0 = b_regions.index(rid)
        orbit = [s]
        for _ in range(horizon):
            w = evaluate(m, orbit[-1])
            if is_escaped(w) or abs(w) > ESCAPE_THRESHOLD:
                break
            orbit.append(w)
        tracked = lo = 1
        while tracked == lo < len(orbit):
            hi = min(2 * lo, len(orbit))
            ids, _, status = graph.regions_near(orbit[lo:hi])
            for j, rw, st in zip(range(lo, hi), ids.tolist(), status.tolist()):
                if rw != b_regions[(i0 + j) % cycle.period]:
                    if rw < 0 and st != ON_ARC:
                        raise graph.location_error(orbit[j], st)
                    break
                tracked = j + 1
            lo = hi
        if tracked > 1:
            follow = tracked - 1
        if tracked == len(orbit) <= horizon:
            return RadiusResult("trapped-unbounded", None, follow)
        best = max(best, max(abs(t) for t in orbit[:tracked]))
        img = evaluate(m, orbit[tracked - 1])
        if not is_escaped(img):
            best = max(best, abs(img))
    return RadiusResult("radius", 1.25 * best, follow)


def ref_piece_mapping_check(ctx, s, j, samples):
    mper = ctx.cycle.period
    points = tails._piece_points(ctx, s, j, samples)
    sa = shift_by(s, mper)
    checked = failed = 0
    for w in points:
        for _ in range(mper):
            w = evaluate(ctx.map, w)
        if is_escaped(w):
            failed += 1
            checked += 1
            continue
        try:
            in_hi = ref_tail_membership(ctx, project(sa, j, mper), w)
            in_lo = ref_tail_membership(ctx, project(sa, j - 1, mper), w)
        except OnArcError:
            continue
        checked += 1
        if not (in_hi and not in_lo):
            failed += 1
    return tails.PieceMapCheck(checked > 0 and failed == 0, checked, failed)


def outcome(fn, *args):
    """What fn returns, or the type and message of the location error it raises."""
    try:
        return fn(*args)
    except (OnArcError, PointLocationError) as exc:
        return type(exc), str(exc)


def outcomes(verdicts):
    """Batched verdicts as outcome() reads them: a location error held as a
    value becomes its type and message."""
    return [(type(v), str(v)) if isinstance(v, Exception) else v for v in verdicts]


def enclosed_graph(centre, half=0.005, wall=False):
    """Hand-made graph of a small square around the centre: every probe is in
    region 0 and the centre is blocked from all of them.  With a wall
    through the centre, the centre lies on the graph and no compass offset
    leaves the square."""
    corners = [centre + half * complex(sx, sy) for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    segs = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]
    if wall:
        segs.append((centre - half, centre + half))
    g = RayGraph(map=M2, p=2, window=0, box=BOX, grid=20, arcs=[], failures=[],
                 _segs=np.array(segs))
    g._index_segments()
    g._build_regions()
    return g


@pytest.fixture(scope="module")
def ctx2():
    rep2 = [c for c in find_cycles(M2, 2, BOX, grid=40).cycles
            if c.period == 2 and c.points[0].imag > 0][0]
    return make_tail_context(M2, rep2, build_ray_graph(M2, 2, 1, box=BOX, grid=60),
                             horizon=300)


class TestBatchedParity:
    def test_tail_membership(self, ctx):
        rng = np.random.default_rng(4)
        points = [*tails._piece_points(ctx, ZERO, 3, 8), *tails._piece_points(ctx, ZERO, 6, 8),
                  *(rng.uniform(-1, 4, 20) + 1j * rng.uniform(-3.5, 3.5, 20)).tolist(),
                  FIX_REPELLING + 0j, 50 + 0j, complex(math.inf, 0)]
        foreign = dataclasses.replace(ctx, b_regions=(ctx.b_regions[0] + 1,))
        verdicts = []
        for context in (ctx, foreign):
            for n in (1, 2, 4, 7):
                address = project(ZERO, n, 1)
                got = [outcome(scalar_tail_membership, context, address, z) for z in points]
                assert got == [outcome(ref_tail_membership, context, address, z) for z in points]
                verdicts += got
        assert True in verdicts and False in verdicts
        # one call holding every point at every length reads the same
        lengths = [n for n in (1, 2, 4, 7) for _ in points]
        batched = [outcomes(tail_membership(context, project(ZERO, 7, 1), points * 4, lengths))
                   for context in (ctx, foreign)]
        assert batched[0] + batched[1] == verdicts

    def test_tail_membership_period_two(self, ctx2):
        s = parse_address("0,1")
        points = tails._piece_points(ctx2, s, 3, 8)[::3] + [z + 0.05 for z in ctx2.cycle.points]
        want = []
        for n in (1, 2, 3):
            address = project(s, n, 2)
            got = [outcome(scalar_tail_membership, ctx2, address, z) for z in points]
            assert got == [outcome(ref_tail_membership, ctx2, address, z) for z in points]
            want += got
        lengths = [len(project(s, n, 2)) for n in (1, 2, 3) for _ in points]
        assert outcomes(tail_membership(ctx2, project(s, 3, 2), points * 3, lengths)) == want

    def test_unlocatable_point_after_a_mismatch(self, ctx):
        z0 = 0.3 + 0.2j
        z1 = evaluate(M2, z0)
        z2 = evaluate(M2, z1)
        assert strip_of(z0) == strip_of(z1) == strip_of(z2) == 0
        for unlocatable, wall, b_regions, address, expected in (
                # a region mismatch at z0, then z1 enclosed
                (z1, False, (1,), (0, 0, 0), False),
                (z1, True, (1,), (0, 0, 0), False),
                # a strip mismatch at z1, then z2 enclosed
                (z2, False, (0,), (0, 1, 0), False),
                (z2, True, (0,), (0, 1, 0), False),
                # no mismatch before the enclosed z1: the walk meets it
                (z1, False, (0,), (0, 0, 0), PointLocationError),
                (z1, True, (0,), (0, 0, 0), OnArcError)):
            g = enclosed_graph(unlocatable, half=0.012, wall=wall)
            with pytest.raises(OnArcError if wall else PointLocationError):
                g.region_near(unlocatable)
            context = TailContext(map=M2, cycle=ctx.cycle, graph=g, b_regions=b_regions,
                                  r=ctx.r)
            got = outcome(scalar_tail_membership, context, address, z0)
            assert got == outcome(ref_tail_membership, context, address, z0)
            # at level 1 in the same call, the walk of z0 never reaches the enclosed point
            assert (outcomes(tail_membership(context, address, [z0, z0], [1, 3]))
                    == [outcome(ref_tail_membership, context, address[:1], z0), got])
            assert got is False if expected is False else got[0] is expected

    def test_choose_radius(self, ctx, graph_m2, ctx2):
        m0 = MapModel(c=0)
        g0 = build_ray_graph(m0, 1, 1, box=BOX, grid=60)
        rep0 = [c for c in find_cycles(m0, 1, BOX, grid=40).cycles
                if c.is_repelling and c.points[0].imag > 0][0]
        b0 = tuple(g0.region_near(z) for z in rep0.points)
        # c=0, p=2: the orbit 0, 1, e follows region 0, e^e lies right of
        # the box with no crossing-free probe in reach, and the next iterate
        # escapes.  With e enclosed instead, a point inside the box that
        # cannot be located raises although the orbit escapes
        g2 = build_ray_graph(m0, 2, 1, box=BOX, grid=120)
        z = landing_point(m0, parse_address("0,1")).point
        rep2 = next(c for c in find_cycles(m0, 2, BOX, grid=40).cycles
                    if c.is_repelling and min(abs(z - w) for w in c.points) < 1e-6)
        beyond_box = (m0, rep2, g2, tails.cycle_regions(g2, rep2))
        e_enclosed = (m0, rep0, enclosed_graph(evaluate(m0, evaluate(m0, 0))), (0,))
        cases = [(M2, ctx.cycle, graph_m2, ctx.b_regions),
                 (M2, ctx.cycle, graph_m2, (ctx.b_regions[0] + 1,)),
                 (M2, ctx2.cycle, ctx2.graph, ctx2.b_regions),
                 (m0, rep0, g0, b0), beyond_box, e_enclosed]
        # the singular orbit of c=-2 with its third point enclosed: met after
        # two matching steps for a fixed point, after a mismatch for a 2-cycle
        # (walled: on the graph, so the orbit stops following there)
        w2 = evaluate(M2, evaluate(M2, -2))
        g, walled = enclosed_graph(w2), enclosed_graph(w2, half=0.012, wall=True)
        cases += [(M2, ctx.cycle, walled, (0,)),
                  (M2, ctx.cycle, g, (0,)), (M2, ctx2.cycle, g, (0, 5))]
        for case in cases:
            for horizon in (1, 2, 3, 7, 60):
                assert (outcome(choose_radius, *case, horizon)
                        == outcome(ref_choose_radius, *case, horizon)), (case[3], horizon)
        assert outcome(choose_radius, *cases[-2], 3)[0] is PointLocationError
        assert outcome(choose_radius, *beyond_box, 3)[0] is PointLocationError
        assert choose_radius(*beyond_box, 60) == RadiusResult("trapped-unbounded", None, 2)
        assert outcome(choose_radius, *e_enclosed, 60)[0] is PointLocationError
        assert choose_radius(*cases[-1], 3).status == "radius"
        assert choose_radius(*cases[-3], 3).follow_steps == 1

    @pytest.mark.parametrize("j", [2, 3, 6])
    def test_piece_mapping_check(self, ctx, ctx2, j):
        assert (piece_mapping_check(ctx, ZERO, j, samples=12)
                == ref_piece_mapping_check(ctx, ZERO, j, 12))
        if j < 6:
            s = parse_address("0,1")
            assert (piece_mapping_check(ctx2, s, j, samples=10)
                    == ref_piece_mapping_check(ctx2, s, j, 10))

    def test_piece_mapping_reads_errors_in_scalar_order(self, ctx, monkeypatch):
        # per point: the level-j verdict first; an on-arc error excludes the
        # point before the level-(j-1) verdict is read, any other error raises
        on_arc, lost = OnArcError("on arc"), PointLocationError("lost")
        rows = [(True, False), (True, True), (False, False), (on_arc, lost),
                (True, on_arc), (on_arc, True)]
        monkeypatch.setattr(tails, "_piece_points", lambda *a: [1 + 0j] * len(rows))

        def batched(ctx, address, points, lengths):
            # each image twice: at level j, then at level j - 1
            assert lengths == [3] * len(rows) + [2] * len(rows)
            return [hi for hi, _ in rows] + [lo for _, lo in rows]

        monkeypatch.setattr(tails, "tail_membership", batched)
        assert piece_mapping_check(ctx, ZERO, 3) == tails.PieceMapCheck(False, 3, 2)
        rows.append((False, lost))
        with pytest.raises(PointLocationError, match="lost"):
            piece_mapping_check(ctx, ZERO, 3)

    def test_location_calls_do_not_grow_with_points(self, ctx, monkeypatch):
        warm = dataclasses.replace(ctx)
        assert piece_mapping_check(warm, ZERO, 6, samples=12).n_checked > 50
        calls = []
        regions_near = RayGraph.regions_near

        def counted(graph, points):
            calls.append(len(points))
            return regions_near(graph, points)

        monkeypatch.setattr(RayGraph, "regions_near", counted)
        piece_mapping_check(warm, ZERO, 6, samples=12)
        # the orbits, with the final points of the level-1 tests of both levels
        assert len(calls) == 1 and calls[0] > 200


# ---------------------------------------------------------------------------
# level-by-level references: every level pulled back from scratch

def ref_piece_points(ctx, s, n, samples, grids):
    """_piece_points with every sample pulled back mn steps from its tau_1
    grid; `grids` keeps the grids per (label, samples)."""
    mn = ctx.cycle.period * n
    key = (s.entry(mn), samples)
    if key not in grids:
        grids[key] = tails._piece_image_samples(ctx, *key)
    labels = s.prefix(mn)
    points = []
    for q in grids[key]:
        try:
            points.append(branches(ctx.map, labels, q))
        except SingularValueHit:
            pass
    return points


def ref_tail_exists(ctx, s, n):
    """One level on its own: a tau_1 witness tested and pulled back."""
    labels = project(s, n, ctx.cycle.period)
    last = labels[-1]
    w1 = complex(max(ctx.map.seed_potential, ctx.r + 1.0), tails.TWO_PI * last)
    try:
        if not ref_tail1(ctx, last, w1):
            return tails.TailAddressRecord(labels, False, reason="no-tail1-witness")
    except OnArcError:
        return tails.TailAddressRecord(labels, False, reason="on-arc")
    except PointLocationError:
        return tails.TailAddressRecord(labels, False, reason="no-region")
    try:
        witness = branches(ctx.map, labels[:-1], w1)
    except SingularValueHit as exc:
        return tails.TailAddressRecord(labels, False,
                                       reason="singular-hit" if not exc.on_cut else "cut-hit")
    try:
        ok = ref_tail_membership(ctx, labels, witness)
    except OnArcError:
        return tails.TailAddressRecord(labels, False, witness=witness, reason="on-arc")
    except PointLocationError:
        return tails.TailAddressRecord(labels, False, witness=witness, reason="no-region")
    return tails.TailAddressRecord(labels, ok, witness=witness,
                                   reason="" if ok else "membership-failed")


def ref_tail_diagnostics(ctx, s, max_level, samples):
    out = []
    for n in range(1, max_level + 1):
        rec = ref_tail_exists(ctx, s, n)
        entry = {"address": list(rec.address), "level": n, "exists": rec.exists,
                 "reason": rec.reason}
        if rec.witness is not None:
            entry["witness"] = [rec.witness.real, rec.witness.imag]
        est = piece_diameter(ctx, s, n, samples=samples)
        entry["piece_diameter"] = est.diameter
        entry["piece_samples"] = est.n_samples
        entry["piece_empty"] = est.empty
        out.append(entry)
    return out


@pytest.fixture(scope="module")
def wide_ctx(ctx):
    """ctx on a graph whose box holds the landing points of rays +-1, so
    labels -1 and 1 have tau_1 witnesses too."""
    g = build_ray_graph(M2, 1, 1, box=(-3, 3, -9, 9), grid=140)
    return make_tail_context(M2, ctx.cycle, g, horizon=300)


def stand_in_singular_values(monkeypatch, on_cut=False):
    """Every branch step from the half-plane Re w < 1.3, which pull-backs
    along address 0 at c = -2 reach after a few steps, hits: the batched
    step of tails records the hit code, and the scalar inverse_branch of
    the references raises SingularValueHit."""
    branch, batch = rays.inverse_branch, tails._psi_batch
    code = tails._HIT_CUT if on_cut else tails._HIT_SINGULAR

    def guarded(m, w, k):
        if w.real < 1.3:
            raise SingularValueHit(w, on_cut=on_cut)
        return branch(m, w, k)

    def guarded_batch(c, shifts, w):
        hit = np.zeros(len(w), dtype=np.int8)
        for j in range(shifts.shape[1] - 1, -1, -1):
            hit = np.where(hit != 0, hit, np.where(w.real < 1.3, code, 0))
            w, new = batch(c, shifts[:, j:j + 1], w)
            hit = np.where(hit != 0, hit, new)
        return w, hit

    monkeypatch.setattr(rays, "inverse_branch", guarded)
    monkeypatch.setattr(tails, "_psi_batch", guarded_batch)


class TestIncrementalPullBack:
    @staticmethod
    def assert_levels(ctx, s, levels, samples=8):
        grids = {}
        for n in levels:
            got = tails._piece_points(ctx, s, n, samples)
            want = ref_piece_points(ctx, s, n, samples, grids)
            assert repr(got) == repr(want), (str(s), n, samples)

    @pytest.mark.parametrize("context, address", [
        ("ctx", "0"), ("ctx2", "0,1"), ("ctx2", "1,-1"),
        ("ctx", "0,1"),  # period 2 on a fixed point: k = 2
        ("ctx", "1:0")])
    def test_levels_one_to_thirty(self, request, context, address):
        warm = dataclasses.replace(request.getfixturevalue(context))
        self.assert_levels(warm, parse_address(address), range(1, 31))
        if address == "1:0":
            assert not warm._pullbacks  # preperiodic: from scratch every time

    def test_levels_out_of_order(self, ctx):
        warm = dataclasses.replace(ctx)
        self.assert_levels(warm, ZERO, [10, 3, 11, 2, 30, 29, 30])
        self.assert_levels(warm, parse_address("0,1"), [10, 3, 9, 4, 30, 1])

    def test_sample_counts_alternating(self, ctx):
        warm = dataclasses.replace(ctx)
        for n in range(1, 31):
            self.assert_levels(warm, ZERO, [n], samples=8 if n % 2 else 11)
            self.assert_levels(warm, ZERO, [n], samples=11 if n % 2 else 8)

    def test_only_the_newest_level_is_kept(self, ctx):
        warm = dataclasses.replace(ctx)
        for n in range(1, 12):
            piece_diameter(warm, ZERO, n, samples=8)
            piece_diameter(warm, parse_address("0,1"), n, samples=8)
        depths = sorted(depth for depth, *_ in warm._pullbacks.values())
        assert depths == [10, 11, 11]  # 0 once, 0,1 once per residue

    def test_singular_hits_stay_excluded(self, ctx, monkeypatch):
        stand_in_singular_values(monkeypatch)
        warm = dataclasses.replace(ctx)
        self.assert_levels(warm, ZERO, range(1, 31))
        image_pts = warm._image_grids[(0, 8)]
        kept = [len(tails._piece_points(warm, ZERO, n, 8)) for n in range(1, 31)]
        assert kept[0] == len(image_pts) and kept[-1] == 0
        assert any(0 < k < len(image_pts) for k in kept)

    def test_real_hits_keep_their_first_code(self, ctx):
        # no stand-in: a start point at c meets the singular value and one
        # at c - 1 the branch cut; both stay hit at every later depth
        warm = dataclasses.replace(ctx)
        c = M2.c
        start = [c, c - 1, complex(3.0, 0.5)]
        for depth in range(1, 13):
            points, hits = tails._pull_back(warm, ("test",), ZERO, depth, start)
            assert hits.tolist() == [tails._HIT_SINGULAR, tails._HIT_CUT, 0]
            assert complex(points[2]) == branches(M2, ZERO.prefix(depth), start[2])
        with pytest.raises(SingularValueHit, match="singular value"):
            branches(M2, ZERO.prefix(1), start[0])
        with pytest.raises(SingularValueHit, match="branch cut"):
            branches(M2, ZERO.prefix(1), start[1])

    def test_shallower_depth_starts_from_scratch(self, ctx2):
        warm = dataclasses.replace(ctx2)
        s = parse_address("0,1")
        start = [complex(4.0, 0.25), complex(3.0, -1.0), ctx2.map.c]
        for depth in (10, 12, 4, 2, 0):
            points, hits = tails._pull_back(warm, ("test",), s, depth, start)
            want = [branches(ctx2.map, s.prefix(depth), w) for w in start[:2]]
            assert points[:2].tolist() == want
            assert hits.tolist() == [0, 0, tails._HIT_SINGULAR if depth else 0]


def _circle(centre, radius, n):
    return [centre + radius * complex(math.cos(a), math.sin(a))
            for a in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)]


_coords = st.floats(-1e3, 1e3, allow_nan=False)
_points = st.builds(complex, _coords, _coords)
_clouds = st.one_of(
    st.lists(_points, min_size=1, max_size=2),
    st.lists(_points, min_size=1, max_size=40),
    st.lists(_points, min_size=1, max_size=10).map(lambda ps: ps * 3),  # duplicates
    st.builds(lambda a, d, ts: [a + t * d for t in ts], _points, _points,  # collinear
              st.lists(_coords, min_size=1, max_size=30)),
    st.builds(_circle, _points, st.floats(1e-6, 1e3), st.integers(1, 60)),
    st.builds(lambda os, ds: [o + 1e-9 * d for o in os for d in ds],  # far clusters, ~10 ulps wide
              st.lists(st.builds(complex, st.floats(-2e6, 2e6), st.floats(-2e6, 2e6)),
                       min_size=1, max_size=3),
              st.lists(st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)),
                       min_size=1, max_size=15)),
)


class TestDiameterRows:
    @given(_clouds)
    def test_pruned_equals_all_pairs(self, cloud):
        arr = np.array(cloud)
        whole = float(np.abs(arr[:, None] - arr[None, :]).max())
        for cap in (1, 7, 1 << 20):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tails, "_PAIR_CAP", cap)
                patch.setattr(tails, "_piece_points", lambda *args: cloud)
                est = piece_diameter(None, ZERO, 1)
            assert (est.diameter, est.n_samples) == (whole, len(cloud))

    def test_rows_equal_one_matrix(self, ctx, monkeypatch):
        cloud = np.array(tails._piece_points(ctx, ZERO, 4, 16))
        assert len(cloud) > 100
        whole = float(np.abs(cloud[:, None] - cloud[None, :]).max())
        for cap in (1, 7, len(cloud) ** 2):
            monkeypatch.setattr(tails, "_PAIR_CAP", cap)
            assert piece_diameter(ctx, ZERO, 4, samples=16).diameter == whole


class TestLevelRecords:
    @staticmethod
    def assert_records(context, s, levels=range(1, 31)):
        """One tail_exists call for all levels on one warm context equals the
        reference level by level on a fresh one (repr: witness bits, address,
        reason)."""
        warm = dataclasses.replace(context)
        want = [outcome(ref_tail_exists, context, s, n) for n in levels]
        assert repr(tail_exists(warm, s, levels)) == repr(want)
        return want

    @pytest.mark.parametrize("context, address", [
        ("ctx", "0"), ("ctx2", "0,1"), ("ctx", "0,1"), ("ctx", "1:0"),
        ("wide_ctx", "0,1"), ("wide_ctx", "1,-1"), ("wide_ctx", "0,0,1")])
    def test_real_contexts(self, request, context, address):
        records = self.assert_records(request.getfixturevalue(context), parse_address(address))
        if address == "0":
            assert all(rec.exists for rec in records)
        if context == "wide_ctx":  # a fixed point is no landing point of these
            assert all(rec.exists for rec in records[:15])
            assert records[-1].reason == "membership-failed"

    def test_levels_out_of_order(self, ctx):
        self.assert_records(ctx, ZERO, [10, 3, 11, 2, 30, 29, 30])

    def test_no_tail1_witness(self, ctx):
        foreign = dataclasses.replace(ctx, b_regions=(ctx.b_regions[0] + 1,))
        records = self.assert_records(foreign, ZERO, range(1, 6))
        assert {rec.reason for rec in records} == {"no-tail1-witness"}

    @pytest.mark.parametrize("on_cut, reason", [(False, "singular-hit"), (True, "cut-hit")])
    def test_singular_hit(self, ctx, monkeypatch, on_cut, reason):
        stand_in_singular_values(monkeypatch, on_cut)
        records = self.assert_records(ctx, ZERO, range(1, 13))
        assert records[0].exists and records[-1].reason == reason

    @staticmethod
    def walled_context(ctx, centre, wall):
        """Every probe in region 0, the centre enclosed (and on the graph
        with a wall)."""
        return TailContext(map=M2, cycle=ctx.cycle, graph=enclosed_graph(centre, 0.012, wall),
                           b_regions=(0,), r=ctx.r)

    def test_on_arc(self, ctx):
        # the tau_1 witness on the graph: every level is on-arc without a witness
        w1 = complex(max(M2.seed_potential, ctx.r + 1.0), 0.0)
        records = self.assert_records(self.walled_context(ctx, w1, True), ZERO, range(1, 7))
        assert [(rec.reason, rec.witness) for rec in records] == [("on-arc", None)] * 6
        # the level-3 witness on the graph: the orbits from level 3 on meet it
        w3 = tail_exists(ctx, ZERO, [3])[0].witness
        records = self.assert_records(self.walled_context(ctx, w3, True), ZERO, range(1, 9))
        assert [rec.reason for rec in records] == ["", "", *["on-arc"] * 6]
        assert records[2].witness == w3

    def test_unlocatable_tail1_witness_is_no_region_at_every_level(self, ctx):
        # the tau_1 witness in no region: every level is no-region without a witness
        w1 = complex(max(M2.seed_potential, ctx.r + 1.0), 0.0)
        enclosed = self.walled_context(ctx, w1, False)
        records = self.assert_records(enclosed, ZERO, range(1, 4))
        assert [(rec.reason, rec.witness) for rec in records] == [("no-region", None)] * 3

    @pytest.mark.parametrize("level", [1, 3, 5])
    def test_location_error_raised_at_its_level(self, ctx, level):
        # an enclosed witness is the record of its level, and an enclosed
        # tau_1 witness (level 1) that of every level
        w = tail_exists(ctx, ZERO, [level])[0].witness
        for wall in (False, True):
            enclosed = self.walled_context(ctx, w, wall)
            want = outcome(ref_tail_diagnostics, enclosed, ZERO, 8, 6)
            assert outcome(tail_diagnostics, dataclasses.replace(enclosed), ZERO, 8, 6) == want
            if wall:
                assert want[level - 1]["reason"] == "on-arc"
            elif level == 1:
                assert {rec["reason"] for rec in want} == {"no-region"}
            else:
                assert want[level - 1]["reason"] == "no-region"

    def test_piece_error_before_a_later_record_error(self, ctx):
        # an enclosed tau_1 grid sample fails the level-1 piece before the
        # enclosed level-3 witness fails its record
        side, r = 6, ctx.r
        x_lo = math.log(r - 2.0)
        sample = complex(x_lo + (side - 0.5) * (r - x_lo) / side,
                         -math.pi + (side // 2 + 0.5) * tails.TWO_PI / side)
        w3 = tail_exists(ctx, ZERO, [3])[0].witness
        g = enclosed_graph(w3, 0.012)
        g._segs = np.concatenate([g._segs, enclosed_graph(sample, 0.012)._segs])
        g._index_segments()
        g._build_regions()
        enclosed = TailContext(map=M2, cycle=ctx.cycle, graph=g, b_regions=(0,), r=r)
        want = outcome(ref_tail_diagnostics, enclosed, ZERO, 5, side)
        assert want == (PointLocationError, f"point location failed for {sample!r}")
        assert outcome(tail_diagnostics, dataclasses.replace(enclosed), ZERO, 5, side) == want

    def test_diagnostics_match_the_walk(self, ctx, ctx2, wide_ctx):
        for context, s in ((ctx, ZERO), (ctx2, parse_address("0,1")),
                           (wide_ctx, parse_address("0,1"))):
            assert (tail_diagnostics(dataclasses.replace(context), s, 12, samples=8)
                    == ref_tail_diagnostics(dataclasses.replace(context), s, 12, 8))

    def test_one_tail1_witness_test_per_label(self, wide_ctx, monkeypatch):
        tested = []
        tail1 = tails.tail1_membership

        def counted(context, label, z):
            tested.append(label)
            return tail1(context, label, z)

        monkeypatch.setattr(tails, "tail1_membership", counted)
        tail_diagnostics(dataclasses.replace(wide_ctx), parse_address("0,1"), 9, samples=4)
        assert tested == [0, 1]

    def test_location_calls_do_not_grow_with_levels(self, ctx, monkeypatch):
        calls = []
        regions_near = RayGraph.regions_near

        def counted(graph, points):
            calls.append(len(points))
            return regions_near(graph, points)

        monkeypatch.setattr(RayGraph, "regions_near", counted)
        counts = []
        for max_level in (10, 30):
            calls.clear()
            tail_diagnostics(dataclasses.replace(ctx), ZERO, max_level, samples=8)
            counts.append(len(calls))
        # the tau_1 grid, the tau_1 witness and the witness orbits of all levels
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("context, address", [
        ("ctx", "0"), ("ctx2", "0,1"), ("wide_ctx", "0,1")])
    def test_records_do_not_depend_on_the_levels_batched_with_them(
            self, request, context, address):
        context, s = request.getfixturevalue(context), parse_address(address)
        short = tail_diagnostics(dataclasses.replace(context), s, 12)
        assert repr(short) == repr(tail_diagnostics(dataclasses.replace(context), s, 25)[:12])

    def test_bad_input_rejected_before_any_location(self, ctx, ctx2, monkeypatch):
        def unreachable(graph, points):
            raise AssertionError("a point was located")

        monkeypatch.setattr(RayGraph, "regions_near", unreachable)
        for levels in ([0], [3, 0, 5], [2, -1]):
            with pytest.raises(ValueError, match="n must be >= 1"):
                tail_exists(dataclasses.replace(ctx), ZERO, levels)
        address = project(parse_address("0,1"), 3, 2)  # length 5 at m = 2
        for lengths in ([2], [1, 3, 2], [5, 7], [0]):
            with pytest.raises(ValueError, match=r"is not m\(n-1\)\+1"):
                tail_membership(ctx2, address, [50 + 0j] * len(lengths), lengths)
        with pytest.raises(ValueError):  # a length for every point
            tail_membership(ctx2, address, [50 + 0j], [1, 3])
