import cmath
import math

import numpy as np
import pytest

from raycensus import cycles, rays
from raycensus.addresses import enumerate_periodic, parse_address, period_of
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
# three parabolic petals: the fixed point 2*pi*i/3 has multiplier e^(2*pi*i/3)
PETAL_C = 0.5 + (2 * math.pi / 3 - math.sqrt(3) / 2) * 1j


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


class TestCycleThrough:
    """The cycle of one seed, found by find_cycles' own Newton path."""

    @pytest.mark.parametrize("c", [-2, -1 + 0.3j, SIEGEL_C], ids=["-2", "-1+0.3i", "siegel"])
    def test_landing_points_give_the_grid_cycles(self, c):
        m = MapModel(c=c)
        grid_cycles = find_cycles(m, 3, BOX, grid=40).cycles
        matched = 0
        for p in (1, 2, 3):
            for s in enumerate_periodic(1, p):
                if period_of(s) != p:
                    continue
                res = rays.landing_point(m, s)
                if not res.landed:
                    continue
                want = next((cyc for cyc in grid_cycles
                             if min(abs(res.point - z) for z in cyc.points) < 1e-9), None)
                if want is None:
                    continue
                got = cycles.cycle_through(m, res.point, p, BOX)
                assert (got.period, got.cls) == (want.period, want.cls)
                assert all(min(abs(z - w) for w in want.points) <= 1e-12 for z in got.points)
                assert all(min(abs(z - w) for w in got.points) <= 1e-12 for z in want.points)
                assert abs(got.multiplier - want.multiplier) <= 1e-9 * abs(want.multiplier)
                matched += 1
        assert matched >= 5

    def test_period_four_cycle_the_grid_40_search_misses(self):
        res = rays.landing_point(M2, parse_address("0,0,0,1"))
        assert not any(cyc.period == 4 for cyc in find_cycles(M2, 4, BOX).cycles)
        got = cycles.cycle_through(M2, res.point, 4, BOX)
        assert (got.period, got.cls) == (4, "repelling")
        fine = [cyc for cyc in find_cycles(M2, 4, BOX, grid=300).cycles if cyc.period == 4]
        assert any(all(min(abs(z - w) for w in cyc.points) <= 1e-12 for z in got.points)
                   for cyc in fine)

    def test_orbit_leaving_the_box_gives_none(self):
        res = rays.landing_point(M2, parse_address("0,1,1,1"))
        assert res.landed
        orbit = [res.point]
        for _ in range(3):
            orbit.append(evaluate(M2, orbit[-1]))
        assert max(z.imag for z in orbit) > BOX[3]
        assert cycles.cycle_through(M2, res.point, 4, BOX) is None

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="p must be"):
            cycles.cycle_through(M2, FIX_REPELLING, 0, BOX)
        with pytest.raises(ValueError, match="empty box"):
            cycles.cycle_through(M2, FIX_REPELLING, 1, (3, -3, -7, 7))


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

    @pytest.mark.parametrize("c, box, grid", [
        (-2, BOX, 40),
        (0, BOX, 40),
        (SIEGEL_C, (-1, 2, 2, 6), 40),
        (-2 + 0.15 * cmath.exp(1j * math.radians(40.1)), BOX, 40),
        (PETAL_C, BOX, 12),
    ], ids=["-2", "0", "siegel", "bench-circle", "three-petal"])
    def test_chunked_search_equals_one_chunk(self, monkeypatch, c, box, grid):
        # batches of 7 rows split the grid's rows, so the (period, seed) order
        # and the skip of seeds near known roots run across batch boundaries;
        # the other sizes end a batch at, or next to, the end of a period.
        # At the three-petal parameter the order of deduplication decides
        # which of the 103 cycles are listed
        def bits(search):
            return [(np.array([*cyc.points, cyc.multiplier]).tobytes(), cyc.cls,
                     cyc.rotation) for cyc in search.cycles]

        whole = find_cycles(MapModel(c=c), 3, box, grid=grid)
        n = grid * grid
        for rows in (7, n - 1, n, n + 1, 3 * n - 1):
            monkeypatch.setattr(cycles, "_SEED_CHUNK", rows)
            assert bits(find_cycles(MapModel(c=c), 3, box, grid=grid)) == bits(whole), rows
        # and the duplicate test compares one point pair at a time
        monkeypatch.setattr(cycles, "_PAIR_CAP", 1)
        assert bits(find_cycles(MapModel(c=c), 3, box, grid=grid)) == bits(whole)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            find_cycles(M2, 0, BOX)
        with pytest.raises(ValueError):
            find_cycles(M2, 1, (1, -1, 0, 2))

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


def _reference_find_cycles(m, max_period, box, grid=40):
    """find_cycles as one chunk that keeps every seed's root and solves each
    candidate row's polish on its own."""
    near = 10.0 * cycles.DEFAULT_TOL
    p, cell = np.divmod(np.arange(max_period * grid * grid), grid * grid)
    p = p + 1
    seeds = _grid_seeds(grid, box)[cell]
    z, ok = cycles._roots(m.c, seeds, p)
    z, p = z[ok], p[ok]
    mp = cycles._minimal_period(m.c, z, p)
    at = np.argsort(mp, kind="stable")
    zd, ok = cycles._roots(m.c, z[at], mp[at])
    z[at[ok]] = zd[ok]
    orbits = np.empty((len(z), max_period), dtype=complex)
    orbits[:, 0] = z
    for j in range(1, max_period):
        orbits[:, j] = np.exp(orbits[:, j - 1]) + m.c
    keep = (cycles._in_box(box, orbits) | (np.arange(max_period) >= mp[:, None])).all(axis=1)
    periods, orbits = mp[keep], orbits[keep]
    roots = orbits[:, 0]
    kept = {d: np.empty(0, dtype=complex) for d in range(1, max_period + 1)}
    found = []
    new = np.ones(len(roots), dtype=bool)
    for k in np.flatnonzero(new):
        if not new[k]:  # near a cycle kept since
            continue
        d = int(periods[k])
        polished, ok = cycles._roots(m.c, orbits[k, :d], d)
        if not ok.all():
            continue
        polished = polished.tolist()
        z0 = min(polished, key=lambda w: (w.real, w.imag))
        if (cycles._minimal_period(m.c, np.array([z0]), d)[0] != d
                or cycles._near(np.array([z0]), kept[d], near)[0]):
            continue
        k0 = polished.index(z0)
        pts = tuple(polished[(k0 + t) % d] for t in range(d))
        lam = complex(1.0, 0.0)
        for w in pts:
            lam *= cmath.exp(w)
        found.append(cycles.Cycle(pts, d, lam, *classify(lam)))
        kept[d] = np.append(kept[d], pts)
        new[k + 1:] &= (periods[k + 1:] != d) | ~cycles._near(roots[k + 1:], np.array(pts), near)
    return sorted(found, key=lambda c: (c.period, c.points[0].real, c.points[0].imag))


def _cycle_bits(found):
    return [(np.array([*cyc.points, cyc.multiplier]).tobytes(), cyc.period, cyc.cls,
             cyc.rotation) for cyc in found]


class TestDistinctRootsAndOnePolishBatch:
    """find_cycles solves each distinct root once and polishes in one batch,
    with the output of a search that handles every seed's row on its own."""

    @pytest.mark.parametrize("c, box, grid", [
        (-2, BOX, 40),
        (-1 + 0.3j, BOX, 40),
        (SIEGEL_C, (-1, 2, 2, 6), 40),
        (PETAL_C, BOX, 12),
        (PETAL_C, BOX, 40),
        (-1, BOX, 40),
    ], ids=["-2", "-1+0.3i", "siegel", "three-petal-12", "three-petal-40", "-1"])
    def test_equals_the_per_row_search(self, c, box, grid):
        m = MapModel(c=c)
        got = find_cycles(m, 3, box, grid=grid).cycles
        assert _cycle_bits(got) == _cycle_bits(_reference_find_cycles(m, 3, box, grid))

    @pytest.mark.parametrize("c, grid", [(-2, 40), (-1, 12), (PETAL_C, 12)],
                             ids=["-2", "-1", "three-petal"])
    def test_each_polish_entry_equals_its_own_solve(self, monkeypatch, c, grid):
        calls = []
        roots = cycles._roots

        def record(c, z, p):
            out = roots(c, z, p)
            calls.append((z, np.broadcast_to(p, z.shape), out))
            return out

        monkeypatch.setattr(cycles, "_roots", record)
        find_cycles(MapModel(c=c), 3, BOX, grid=grid)
        z, p, (polish, ok) = calls[-1]  # one chunk: seeds, re-solve, polish
        assert len(calls) == 3 and len(z) > 1 and (np.diff(p) >= 0).all()
        for i in range(len(z)):
            one, one_ok = roots(c, z[i:i + 1], int(p[i]))
            assert one.tobytes() == polish[i:i + 1].tobytes() and one_ok[0] == ok[i]

    def test_first_of_each_keeps_signed_zeros_apart_and_the_first_row(self):
        z = np.array([complex(1.0, 0.0), complex(1.0, -0.0), complex(2.0, 0.0),
                      complex(1.0, 0.0), complex(1.0, -0.0), complex(1.0, 0.0),
                      complex(-0.0, 2.0), complex(0.0, 2.0)])
        p = np.array([1, 1, 1, 1, 1, 2, 2, 2])
        assert cycles._first_of_each(z, p).tolist() == [0, 1, 2, 5, 6, 7]
        assert cycles._first_of_each(z[:0], p[:0]).tolist() == []


def _reference_fp(c, z, p):
    """cycles._fp for an int p, one numpy pass per step over every entry."""
    w = z
    d = np.ones(z.shape, dtype=complex)
    ok = np.ones(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(p):
            ok &= np.isfinite(w) & (w.real <= 600.0)
            e = np.exp(w)
            d = d * e
            w = e + c
    return w, d, ok


def _reference_newton_fp(c, z, p, max_steps):
    """cycles._newton_fp for an int p, compacting the live rows every pass."""
    z = np.array(z, dtype=complex)
    step = np.zeros(z.shape, dtype=complex)
    alive = np.ones(z.shape, dtype=bool)
    rows = np.arange(z.size)
    for _ in range(max_steps):
        zr = z[rows]
        f, d, ok = _reference_fp(c, zr, p)
        gp = d - 1.0
        ok &= ~(np.abs(gp) < 1e-30)
        with np.errstate(all="ignore"):
            st = (f - zr) / gp
        alive[rows[~ok]] = False
        rows, st = rows[ok], st[ok]
        zr = zr[ok] - st
        z[rows] = zr
        step[rows] = st
        rows = rows[~(np.abs(st) < 1e-15 * np.maximum(1.0, np.abs(zr)))]
        if not rows.size:
            break
    return z, step, alive


def _grid_seeds(grid, box=BOX):
    i, j = np.divmod(np.arange(grid * grid), grid)
    return (box[0] + (i + 0.5) * (box[1] - box[0]) / grid
            + 1j * (box[2] + (j + 0.5) * (box[3] - box[2]) / grid))


# entries that die: on entry (infinite, not a number, real part above 600),
# at a later iterate above 600 (f(log 702) = 701 at c = -1), and where
# (f^p)' = 1 exactly (0 is the parabolic fixed point of c = -1)
DYING = np.array([complex(-math.inf, 0.0), complex(0.0, math.inf), complex(math.nan, 0.0),
                  601.0, math.log(702.0), 0.0])


class TestKernelParity:
    """The per-row-period kernels equal one reference call per period, bit for bit."""

    @staticmethod
    def assert_same_bits(got, want):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def per_period(c, z, periods, max_steps=80):
        """The reference Newton run once per period, on that period's rows."""
        out = [np.empty(len(z), dtype=complex), np.empty(len(z), dtype=complex),
               np.empty(len(z), dtype=bool)]
        for p in np.unique(periods).tolist():
            at = np.flatnonzero(periods == p)
            for whole, part in zip(out, _reference_newton_fp(c, z[at], p, max_steps)):
                whole[at] = part
        return out

    @pytest.mark.parametrize("c", [-2, -1 + 0.3j, PETAL_C],
                             ids=["-2", "-1+0.3i", "three-petal"])
    def test_grid_seeds_of_three_periods(self, c):
        seeds = _grid_seeds(40)
        z = np.tile(seeds, 3)
        periods = np.repeat([1, 2, 3], len(seeds))
        self.assert_same_bits(cycles._newton_fp(c, z, periods, 80),
                              self.per_period(c, z, periods))
        for p in (1, 2, 3):
            self.assert_same_bits(cycles._fp(c, seeds, p), _reference_fp(c, seeds, p))
            self.assert_same_bits(cycles._newton_fp(c, seeds, p, 80),
                                  _reference_newton_fp(c, seeds, p, 80))

    @pytest.mark.parametrize("c", [-1, PETAL_C], ids=["-1", "three-petal"])
    def test_single_rows(self, c):
        # numpy rounds an in-place complex product of a one-entry array
        # differently from the out-of-place one.  An imaginary part of -0.0
        # gives (f^p)' a zero imaginary part of the other sign than the
        # reference's, which must not reach Newton's output
        for z in [*_grid_seeds(6), *DYING, complex(1.1461932206205825, -0.0), -0.0j]:
            for p in (1, 2, 3):
                want = _reference_newton_fp(c, np.array([z]), p, 80)
                self.assert_same_bits(cycles._newton_fp(c, np.array([z]), p, 80), want)
                self.assert_same_bits(
                    cycles._newton_fp(c, np.array([z]), np.array([p]), 80), want)

    def test_rows_that_die(self):
        seeds = _grid_seeds(5)
        n = len(DYING) + len(seeds)
        z = np.tile(np.concatenate([DYING, seeds]), 3)
        periods = np.repeat([1, 2, 3], n)
        got = cycles._newton_fp(-1, z, periods, 80)
        self.assert_same_bits(got, self.per_period(-1, z, periods))
        alive = got[2].reshape(3, n)[:, :len(DYING)]
        # log 702 dies only where f^p takes a second step
        assert alive.tolist() == [[False] * 4 + [True, False], [False] * 6, [False] * 6]
