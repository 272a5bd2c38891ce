import cmath
import math

import numpy as np
import pytest

from raycensus import cycles, rays
from raycensus.cycles import classify, find_cycles
from raycensus.exponential import MapModel, evaluate
from raycensus.regions import build_ray_graph

M2 = MapModel(c=-2)
BOX = (-3.0, 3.0, -7.0, 7.0)

FIX_ATTRACTING = -1.8414056604369606
FIX_REPELLING = 1.1461932206205825
FIX_STRIP1 = complex(2.1310754576665873, 7.341435092197778)

theta = (math.sqrt(5) - 1) / 2
SIEGEL_C = 2j * math.pi * theta - cmath.exp(2j * math.pi * theta)
SIEGEL_FIX = 2j * math.pi * theta


class TestClassify:
    def test_attracting(self):
        assert classify(0.15859 + 0j)[0] == "attracting"

    def test_superattracting(self):
        assert classify(0j)[0] == "superattracting"

    def test_repelling(self):
        assert classify(3.146 + 0j)[0] == "repelling"

    def test_parabolic_suspected(self):
        assert classify(1 + 0j)[0] == "parabolic-suspected"
        assert classify(cmath.exp(2j * math.pi / 3))[0] == "parabolic-suspected"

    @pytest.mark.parametrize("tol_band", [-1.0, 1.0, 1.5, float("nan")])
    def test_meaningless_tol_band_rejected(self, tol_band):
        # a negative band once classified the repelling multiplier 1.5 as attracting
        with pytest.raises(ValueError, match="tol_band"):
            classify(1.5, tol_band)

    def test_zero_tol_band_accepted(self):
        assert classify(1.5, 0.0)[0] == "repelling"

    def test_golden_mean_is_indifferent(self):
        lam = cmath.exp(2j * math.pi * theta)
        cls, rho = classify(lam)
        assert cls == "indifferent"
        assert abs(rho - theta) < 1e-12
        # continued-fraction separation from roots of unity
        assert min(abs(lam**k - 1) for k in range(1, 65)) > 1e-2


class TestFindCyclesHyperbolic:
    def test_two_fixed_points_in_narrow_box(self):
        out = find_cycles(M2, 1, (-3, 3, -1, 1), grid=25).cycles
        assert len(out) == 2
        att, rep = out
        assert abs(att.points[0] - FIX_ATTRACTING) < 1e-10
        assert att.cls == "attracting"
        assert abs(att.multiplier - 0.15859433956303937) < 1e-8
        assert abs(rep.points[0] - FIX_REPELLING) < 1e-10
        assert rep.cls == "repelling"
        assert abs(rep.multiplier - 3.1461932206205825) < 1e-8

    def test_strip_one_fixed_point(self):
        # oracle: branch iteration + Newton; the forward residual of the
        # found point is checked directly below
        out = find_cycles(M2, 1, (-3, 3, 3, 9), grid=50).cycles
        assert len(out) == 1
        z0 = out[0].points[0]
        assert abs(z0 - FIX_STRIP1) < 1e-10
        assert out[0].cls == "repelling"
        assert abs(evaluate(M2, z0) - z0) < 1e-10

    def test_period_two_inventory(self):
        out = find_cycles(M2, 2, BOX, grid=40).cycles
        two = [c for c in out if c.period == 2]
        assert len(two) == 3
        for cyc in two:
            assert cyc.cls == "repelling"
            z0, z1 = cyc.points
            assert abs(evaluate(M2, z0) - z1) < 1e-9
            assert abs(evaluate(M2, z1) - z0) < 1e-9
            assert abs(z1 - z0) > 1e-2
        # conjugation symmetry of the real parameter: the set of 2-cycles is
        # closed under complex conjugation
        for cyc in two:
            conj_pts = [z.conjugate() for z in cyc.points]
            assert any(
                all(min(abs(w - q) for q in other.points) < 1e-8 for w in conj_pts)
                for other in two)

    def test_all_cycle_points_inside_box(self):
        out = find_cycles(M2, 2, BOX, grid=40).cycles
        for cyc in out:
            for z in cyc.points:
                assert BOX[0] <= z.real <= BOX[1]
                assert BOX[2] <= z.imag <= BOX[3]

    def test_no_duplicate_cycles_across_periods(self):
        out = find_cycles(M2, 2, BOX, grid=40).cycles
        pts = [z for c in out for z in c.points]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert abs(pts[i] - pts[j]) > 1e-6

    @pytest.mark.parametrize("c, grid, n_cycles", [(-2, 300, 16), (0, 40, 14)])
    def test_self_conjugate_period_four_cycle_listed_once(self, c, grid, n_cycles):
        # round-off flips which of the conjugate points 1.4044 -/+ 6.0209i
        # (c = -2) or 0.8084 -/+ 5.5939i (c = 0) is least; the cycle must
        # still be listed once
        out = find_cycles(MapModel(c=c), 4, BOX, grid=grid).cycles
        assert len(out) == n_cycles
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                assert a.period != b.period or \
                    min(abs(z - w) for z in a.points for w in b.points) > 1e-6

    def test_grid_refinement_monotone(self):
        coarse = find_cycles(M2, 2, BOX, grid=15).cycles
        fine = find_cycles(M2, 2, BOX, grid=30).cycles
        for c in coarse:
            assert any(f.period == c.period
                       and abs(f.points[0] - c.points[0]) < 1e-9 for f in fine)

    def test_no_collapsed_cycle_on_the_bench_circle(self):
        # polishing a rough period-3 root here lands on the attracting fixed
        # point; it must not come back as a period-3 attracting "cycle"
        c = -2 + 0.15 * cmath.exp(1j * math.radians(40.1))
        out = find_cycles(MapModel(c=c), 3, BOX).cycles
        assert [cyc.period for cyc in out if cyc.is_attracting] == [1]
        for cyc in out:
            for i in range(cyc.period):
                for j in range(i + 1, cyc.period):
                    assert abs(cyc.points[i] - cyc.points[j]) > 1e-6

    @pytest.mark.parametrize("c, attracting", [(-2, 1), (0, 0)])
    def test_inventory_to_period_three(self, c, attracting):
        out = find_cycles(MapModel(c=c), 3, BOX).cycles
        assert [cyc.period for cyc in out] == [1, 1, 2, 2, 2, 3, 3, 3, 3]
        assert sum(cyc.is_attracting for cyc in out) == attracting
        assert all(cyc.is_attracting or cyc.is_repelling for cyc in out)


class TestSiegel:
    def test_indifferent_fixed_point(self):
        out = find_cycles(MapModel(c=SIEGEL_C), 1, (-1, 2, 2, 6), grid=40).cycles
        ind = [c for c in out if c.cls == "indifferent"]
        assert len(ind) == 1
        z0 = ind[0].points[0]
        assert abs(z0 - SIEGEL_FIX) < 1e-10
        assert abs(abs(ind[0].multiplier) - 1) < 1e-10
        assert abs(ind[0].rotation - theta) < 1e-9


class TestInvariants:
    def test_multiplier_identity(self):
        # f'(z) = e^z = f(z) - c, so lambda = prod (z_{i+1} - c)
        out = find_cycles(M2, 2, BOX, grid=30).cycles
        for cyc in out:
            prod = 1 + 0j
            for z in cyc.points:
                prod *= (evaluate(M2, z) - M2.c)
            assert abs(prod - cyc.multiplier) < 1e-8 * max(1.0, abs(prod))

    def test_cycle_closure(self):
        out = find_cycles(M2, 2, BOX, grid=30).cycles
        for cyc in out:
            w = cyc.points[0]
            for _ in range(cyc.period):
                w = evaluate(M2, w)
            assert abs(w - cyc.points[0]) < 1e-10

    def test_sorted_deterministic(self):
        a = find_cycles(M2, 2, BOX, grid=30).cycles
        b = find_cycles(M2, 2, BOX, grid=30).cycles
        assert [(c.period, c.points) for c in a] == [(c.period, c.points) for c in b]
        keys = [(c.period, c.points[0].real, c.points[0].imag) for c in a]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("c, box", [
        (-2, BOX),
        (0, BOX),
        (SIEGEL_C, (-1, 2, 2, 6)),
        (-2 + 0.15 * cmath.exp(1j * math.radians(40.1)), BOX),
    ], ids=["-2", "0", "siegel", "bench-circle"])
    def test_chunked_search_equals_one_chunk(self, monkeypatch, c, box):
        # chunks of 7 split the grid's rows, so the grid order and the skip of
        # seeds near known roots run across chunk boundaries
        def bits(search):
            return [(np.array([*cyc.points, cyc.multiplier]).tobytes(), cyc.cls,
                     cyc.rotation) for cyc in search.cycles]

        whole = find_cycles(MapModel(c=c), 3, box)
        monkeypatch.setattr(cycles, "_SEED_CHUNK", 7)
        assert bits(find_cycles(MapModel(c=c), 3, box)) == bits(whole)
        # and the duplicate test compares one point pair at a time
        monkeypatch.setattr(cycles, "_PAIR_CAP", 1)
        assert bits(find_cycles(MapModel(c=c), 3, box)) == bits(whole)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            find_cycles(M2, 0, BOX)
        with pytest.raises(ValueError):
            find_cycles(M2, 1, (1, -1, 0, 2))
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError, match="tol must be > 0"):
                find_cycles(M2, 1, BOX, grid=5, tol=tol)
        # checked before the search, which may find no cycle to classify
        for tol_band in (-1.0, 1.0):
            with pytest.raises(ValueError, match="tol_band"):
                find_cycles(M2, 1, (10.0, 11.0, 0.0, 1.0), grid=1, tol_band=tol_band)

    @pytest.mark.parametrize("box, message", [
        ((-math.inf, 3, -7, 7), "finite"), ((-3, math.inf, -7, 7), "finite"),
        ((-3, 3, math.nan, 7), "finite"), ((3, -3, -7, 7), "empty box"),
        ((-3, 3, 7, -7), "empty box"), ((-3, -3, -7, 7), "empty box")])
    def test_bad_box_rejected_before_any_work(self, monkeypatch, box, message):
        def no_work(*args, **kwargs):
            raise AssertionError("landing or Newton work ran on a bad box")

        monkeypatch.setattr(cycles, "_newton_fp", no_work)
        monkeypatch.setattr(rays, "_psi_batch", no_work)
        with pytest.raises(ValueError, match=message):
            find_cycles(M2, 1, box, grid=10)
        with pytest.raises(ValueError, match=message):
            build_ray_graph(M2, 1, 1, box=box, grid=20)
