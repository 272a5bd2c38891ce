import dataclasses
import math

import pytest

from raycensus import tails
from raycensus.addresses import InfiniteAddress, parse_address, project
from raycensus.cycles import find_cycles
from raycensus.exponential import MapModel, evaluate
from raycensus.rays import ladder_descend, landing_point, pullback_sequence
from raycensus.regions import build_ray_graph
from raycensus.tails import (
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

M2 = MapModel(c=-2)
BOX = (-3.0, 3.0, -7.0, 7.0)
ZERO = parse_address("0")
FIX_REPELLING = 1.1461932206205825


@pytest.fixture(scope="module")
def graph_m2():
    return build_ray_graph(M2, 1, 1, depth=40, box=BOX, grid=120)


@pytest.fixture(scope="module")
def ctx(graph_m2):
    rep = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles if c.is_repelling][0]
    return make_tail_context(M2, rep, graph_m2, horizon=1000)


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
        g = build_ray_graph(M2, 1, 1, depth=40, box=(-3, 3, -1, 9), grid=100)
        b = tuple(g.region_near(z) for z in strip1.points)
        res = choose_radius(M2, strip1, g, b, 1000)
        assert res.status == "radius"
        assert res.r >= 1.25 * abs(strip1.points[0])

    def test_c0_trapped_unbounded(self):
        # singular orbit of e^z escapes inside the region of its fixed point
        m0 = MapModel(c=0)
        g0 = build_ray_graph(m0, 1, 1, depth=40, box=BOX, grid=60)
        assert len(g0.arcs) == 2  # 0-bar fails, +-1 land
        rep = [c for c in find_cycles(m0, 1, BOX, grid=40).cycles
               if c.is_repelling and c.points[0].imag > 0][0]
        b = tuple(g0.region_near(z) for z in rep.points)
        res = choose_radius(m0, rep, g0, b, 200)
        assert res.status == "trapped-unbounded"
        with pytest.raises(TrappedSingularOrbit):
            make_tail_context(m0, rep, g0, horizon=200)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_rejected(self, ctx, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            choose_radius(M2, ctx.cycle, ctx.graph, ctx.b_regions, horizon)

    def test_context_flags_on_graph_cycle(self, ctx):
        assert ctx.cycle_on_graph  # 1.14619 is the landing point of 0-bar
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


class TestTailMembership:
    def test_level_one_reduces_to_tail1(self, ctx):
        z = 50 + 0j
        assert tail_membership(ctx, (0,), z) == tail1_membership(ctx, 0, z)

    def test_level_two_pullback_witness(self, ctx):
        z = pullback_sequence(M2, ZERO, M2.seed_potential, 1)[-1]
        assert tail_membership(ctx, (0, 0), z)

    def test_cycle_point_not_in_tails(self, ctx):
        z0 = ctx.cycle.points[0]
        for n in (1, 2, 5):
            assert not tail_membership(ctx, tuple([0] * n), z0)

    def test_bad_length_rejected(self):
        m2ctx_period = 1  # m = 1 accepts any length >= 1; force m = 2
        rep2 = [c for c in find_cycles(M2, 2, BOX, grid=40).cycles
                if c.period == 2][0]
        g2 = build_ray_graph(M2, 2, 1, depth=40, box=BOX, grid=60)
        ctx2 = make_tail_context(M2, rep2, g2, horizon=200)
        with pytest.raises(ValueError):
            tail_membership(ctx2, (0, 1), 50 + 0j)  # length 2 != 2(n-1)+1


class TestTailExists:
    def test_exists_and_witnesses_converge(self, ctx):
        prev = None
        for n in (1, 2, 5, 10, 20, 30):
            rec = tail_exists(ctx, ZERO, n)
            assert rec.exists, (n, rec.reason)
            d = abs(rec.witness - FIX_REPELLING)
            if prev is not None:
                assert d < prev or d < 1e-12
            prev = d
        assert prev < 1e-10

    def test_level_one_any_label_with_witness(self):
        # needs a graph box containing the +-1 landing points (Im ~ 7.34):
        # otherwise the witness of label 1 sits in a box-clipped sliver
        g = build_ray_graph(M2, 1, 1, depth=40, box=(-3, 3, -9, 9), grid=140)
        rep = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles
               if c.is_repelling][0]
        wide = make_tail_context(M2, rep, g, horizon=300)
        for label in (-1, 0, 1):
            rec = tail_exists(wide, parse_address(str(label)), 1)
            assert rec.exists, (label, rec.reason)

    def test_foreign_region_label_fails_at_level_one(self, ctx):
        # operational stand-in for a label whose domain misses B_0: force a
        # different B_0 id so no tail-1 witness is accepted
        fake = dataclasses.replace(ctx, b_regions=(ctx.b_regions[0] + 1,))
        rec = tail_exists(fake, ZERO, 1)
        assert not rec.exists
        assert rec.reason == "no-tail1-witness"

    def test_witness_cauchy_iff_landing(self, ctx):
        # landing address: geometric Cauchy decay, limit = landing point
        res = landing_point(M2, ZERO)
        assert res.landed
        wits = [tail_exists(ctx, ZERO, n).witness for n in range(1, 21)]
        diffs = [abs(a - b) for a, b in zip(wits, wits[1:])]
        for a, b in zip(diffs[3:], diffs[4:]):
            assert b < 0.7 * a or b < 1e-13
        assert abs(wits[-1] - res.point) < 1e-8


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
        return tail_membership(ctx, project(ZERO, n, 1), ladder_descend(M2, ZERO, t, 80)[0])

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
        g2 = build_ray_graph(M2, 2, 1, depth=40, box=BOX, grid=60)
        ctx2 = make_tail_context(M2, rep2, g2, horizon=300)
        s = landing_addr = None
        for cand in ("0,1", "1,0"):
            rec = landing_point(M2, parse_address(cand))
            if rec.landed and min(abs(rec.point - z) for z in rep2.points) < 1e-6:
                s = parse_address(cand)
                break
        assert s is not None
        # tails exist along the landing address and witnesses converge
        wits = [tail_exists(ctx2, s, n) for n in (1, 2, 4, 8)]
        assert all(w.exists for w in wits)
        target = min(rep2.points, key=lambda z: abs(z - wits[-1].witness))
        assert abs(wits[-1].witness - target) < 1e-2
