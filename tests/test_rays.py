import cmath
import math
import sys

import numpy as np
import pytest

from raycensus import rays
from raycensus.addresses import (
    InfiniteAddress,
    enumerate_periodic,
    parse_address,
    period_of,
    primitive_words,
    shift_by,
)
from raycensus.exponential import MapModel, SingularValueHit, evaluate, is_escaped, strip_of
from raycensus.rays import (
    DEFAULT_LANDING_TOL,
    DEFAULT_MAX_ITER,
    ESCAPE_THRESHOLD,
    LandingResult,
    RoundTripError,
    default_seed,
    ladder_descend,
    land_periodic,
    landing_point,
    landing_table,
    pullback_sequence,
    singular_escape_status,
    sweep_hair,
    verify_pullback_roundtrip,
)

M2 = MapModel(c=-2)
ZERO = parse_address("0")

theta = (math.sqrt(5) - 1) / 2
SIEGEL_C = 2j * math.pi * theta - cmath.exp(2j * math.pi * theta)

# frozen oracle values (Newton on e^z - 2 - z and branch iteration; see
# test-local oracles below for their computation)
FIX_REPELLING = 1.1461932206205825
FIX_STRIP1 = complex(2.1310754576665873, 7.341435092197778)


def newton_fixed_point(c, z, p=1, iters=60):
    """Independent oracle: Newton on f^p(z) - z."""
    for _ in range(iters):
        w = z
        d = 1 + 0j
        for _ in range(p):
            e = cmath.exp(w)
            d *= e
            w = e + c
        z = z - (w - z) / (d - 1)
    return z


def branches(m, labels, w):
    """L_{labels[0]} o ... o L_{labels[-1]} applied to w (rightmost first),
    one rays.inverse_branch call per label, looked up at each call so that
    a patched branch applies."""
    for k in reversed(labels):
        w = rays.inverse_branch(m, w, k)
    return w


class TestPullback:
    def test_single_step(self):
        assert abs(pullback_sequence(M2, ZERO, 10, 1)[-1] - math.log(12)) < 1e-14

    def test_three_steps(self):
        # iterate w -> ln(w+2) three times from 10: 2.48491, 1.50074, 1.25297
        z = pullback_sequence(M2, ZERO, 10, 3)[-1]
        assert abs(z - 1.252967999310263) < 1e-12

    def test_limit_is_repelling_fixed_point(self):
        z = pullback_sequence(M2, ZERO, 10, 60)[-1]
        assert abs(z - FIX_REPELLING) < 1e-13

    def test_one_step_recursion(self):
        # zeta_{n+1}(s) = L_{s_0..s_{m-1}}(zeta_n(sigma^m s))
        s = InfiniteAddress((), (0, 1))
        zeta = complex(50, 2 * math.pi)
        for n in range(4):
            rhs = pullback_sequence(M2, shift_by(s, 2), zeta, 2 * n)[-1]
            rhs = branches(M2, (s.entry(0), s.entry(1)), rhs)
            seq = pullback_sequence(M2, s, zeta, 2 * n + 2)
            verify_pullback_roundtrip(M2, seq)
            assert abs(seq[-1] - rhs) < 1e-9 * max(1.0, abs(seq[-1]))

    def test_singular_hit_raised(self):
        with pytest.raises(SingularValueHit):
            pullback_sequence(MapModel(c=0), ZERO, 50, 10)

    def test_roundtrip_check_rejects_corrupted_chain(self):
        seq = pullback_sequence(M2, ZERO, 10, 5)
        seq[3] += 0.1
        with pytest.raises(RoundTripError):
            verify_pullback_roundtrip(M2, seq)

    def test_roundtrip_residuals_small(self):
        seq = pullback_sequence(M2, ZERO, 10, 25)
        assert verify_pullback_roundtrip(M2, seq) < 1e-12


class TestLanding:
    def test_zero_bar(self):
        res = landing_point(M2, ZERO)
        assert res.landed
        assert abs(res.point - FIX_REPELLING) < 1e-12
        assert abs(res.psi_derivative - 1 / 3.1461932206205825) < 1e-10
        assert res.itinerary_ok

    def test_one_bar(self):
        # the strip-1 fixed point of e^z - 2 (oracle: branch iteration,
        # cross-checked against Newton below)
        res = landing_point(M2, parse_address("1"))
        assert res.landed
        assert abs(res.point - FIX_STRIP1) < 1e-10
        oracle = newton_fixed_point(-2, 2.1 + 7.3j)
        assert abs(res.point - oracle) < 1e-10
        assert res.itinerary_ok

    def test_two_cycle(self):
        res = landing_point(M2, parse_address("0,1"))
        assert res.landed
        z0 = res.point
        z1 = evaluate(M2, z0)
        assert abs(evaluate(M2, z1) - z0) < 1e-9
        assert abs(z1 - z0) > 1e-2  # genuinely period 2
        # snail-lemma consistency: repelling for f^2
        assert abs(res.multiplier) > 1

    def test_landing_matches_newton_oracle_small_window(self):
        for s in enumerate_periodic(2, 2):
            res = landing_point(M2, s)
            assert res.landed, str(s)
            oracle = newton_fixed_point(-2, res.point, p=period_of(s))
            assert abs(res.point - oracle) < 1e-10
            assert abs(evaluate(M2, oracle) - oracle) > 1e-6 or period_of(s) == 1 \
                or abs(res.multiplier) > 1

    def test_landed_point_contracts(self):
        for text in ("0", "1", "-1", "0,1"):
            res = landing_point(M2, parse_address(text))
            assert res.landed
            assert abs(res.psi_derivative) < 1
            assert abs(res.multiplier) >= 1 - 1e-9

    def test_c0_singular_hit(self):
        res = landing_point(MapModel(c=0), ZERO)
        assert res.status == "singular-hit"
        assert res.detail == "cut"

    def test_preperiodic_rejected(self):
        with pytest.raises(ValueError):
            landing_point(M2, parse_address("3:0,1"))

    @pytest.mark.parametrize("text", ["100000000000000000000", "-9223372036854775809",
                                      "0,100000000000000000000"])
    def test_entry_beyond_int64_rejected(self, text):
        with pytest.raises(ValueError, match="64 bits"):
            landing_point(M2, parse_address(text))

    def test_largest_int64_entry_escapes(self):
        res = landing_point(M2, parse_address(str(2**63 - 1)))
        assert res.status == "escaped-pullback"

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 100), (-1e-10, 100), (1e-10, 0)])
    def test_meaningless_limits_rejected(self, tol, max_iter):
        with pytest.raises(ValueError):
            landing_point(M2, ZERO, tol=tol, max_iter=max_iter)
        with pytest.raises(ValueError):
            land_periodic(M2, np.array([[0]]), tol=tol, max_iter=max_iter)


def scalar_landing(m, s, tol=DEFAULT_LANDING_TOL, max_iter=DEFAULT_MAX_ITER):
    """Independent scalar reference for landing_point, one address at a time.

    Iterates the one-period inverse composition psi = L_{s_0} o ... o
    L_{s_{p-1}} through inverse_branch; on convergence the limit is
    Newton-polished on f^p(z) - z and reported together with
    psi'(z0) = 1/(f^p)'(z0).  Only the limit check, the Newton polish and
    the closure bound are shared with the numpy engine.
    """
    p = period_of(s)
    if p <= 0:
        raise ValueError("landing_point requires a purely periodic address")
    rays._check_landing_limits(tol, max_iter)
    w = default_seed(m, s)
    labels = tuple(s.entry(i) for i in range(p))
    for it in range(1, max_iter + 1):
        try:
            w_next = branches(m, labels, w)
        except SingularValueHit as exc:
            return LandingResult("singular-hit", iterations=it,
                                 detail="cut" if exc.on_cut else "singular-value")
        if abs(w_next) > ESCAPE_THRESHOLD:
            return LandingResult("escaped-pullback", iterations=it)
        if abs(w_next - w) < tol:
            w = w_next
            break
        w = w_next
    else:
        return LandingResult("not-converged", iterations=max_iter)

    z0 = complex(rays._newton_polish(m.c, np.array([w]), p, tol)[0])
    try:
        psi_z0 = branches(m, labels, z0)
    except SingularValueHit as exc:
        return LandingResult("singular-hit", iterations=it,
                             detail="cut" if exc.on_cut else "singular-value")
    if abs(psi_z0 - z0) >= tol * max(1.0, abs(z0)):
        return LandingResult("not-converged", iterations=it,
                             detail="limit is not a psi fixed point")

    orbit = [z0]
    lam = complex(1.0, 0.0)
    itinerary_ok = True
    for j in range(p):
        zj = orbit[-1]
        if strip_of(zj) != s.entry(j):
            itinerary_ok = False
        lam *= cmath.exp(zj)
        orbit.append(evaluate(m, zj))
    if is_escaped(orbit[-1]) or abs(orbit[-1] - z0) > rays._closure_bound(tol, lam, z0):
        return LandingResult("not-converged", iterations=it,
                             detail="forward orbit does not close")
    return LandingResult("landed", point=z0, psi_derivative=1.0 / lam,
                         multiplier=lam, iterations=it,
                         itinerary_ok=itinerary_ok)


def assert_same_landing(s, a, b):
    """a and b land the address s alike, up to the last bit of the logs.

    Status, detail, iterations and itinerary_ok are equal.  Points are
    within 64 eps * max(1, |z0|), since np.log and cmath.log may differ in
    the last bit; the multiplier is within 1e-12 of its size and psi'(z0)
    within 1e-12.
    """
    assert (a.status, a.detail, a.iterations, a.itinerary_ok) == \
        (b.status, b.detail, b.iterations, b.itinerary_ok), s
    if a.landed:
        assert abs(a.point - b.point) <= 64 * sys.float_info.epsilon * max(1.0, abs(a.point)), s
        assert abs(a.multiplier - b.multiplier) <= 1e-12 * abs(a.multiplier), s
        assert abs(a.psi_derivative - b.psi_derivative) <= 1e-12, s


def assert_same_columns(a, b):
    for name in ("words", "status", "detail", "iterations", "points",
                 "multipliers", "itinerary_ok"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "c"), name
    assert a.tol == b.tol


class TestBatchedLanding:
    @pytest.mark.parametrize("c", [-2, 0, complex(-1, 0.3), -1, complex(-1.85, 0.1)])
    def test_matches_landing_point(self, c):
        m = MapModel(c=c)
        # at the parabolic parameter c = -1 the rays that do not converge
        # run to max_iter; a short budget keeps those rows fast
        max_iter = 300 if c == -1 else DEFAULT_MAX_ITER
        statuses = set()
        for p in range(1, 7):
            words = primitive_words(1, p)
            table = land_periodic(m, words, max_iter=max_iter)
            assert len(table.words) == len(words)
            for i in range(len(words)):
                s, res = table.address(i), table.result(i)
                assert s.period == tuple(words[i].tolist())
                assert_same_landing(s, scalar_landing(m, s, max_iter=max_iter), res)
                statuses.add((res.status, res.detail))
        if c == 0:
            assert ("singular-hit", "cut") in statuses
        if c == -1:
            assert ("not-converged", "") in statuses

    def test_word_alone_matches_full_batch(self):
        m = MapModel(c=0)
        words = primitive_words(1, 4)
        table = land_periodic(m, words)
        for i, w in enumerate(words):
            assert_same_landing(table.address(i), land_periodic(m, w[None, :]).result(0),
                                table.result(i))

    def test_empty_batch(self):
        assert len(land_periodic(M2, np.empty((0, 2), dtype=int)).words) == 0
        # window 0, period 2: the only word 0,0 has primitive period 1
        assert primitive_words(0, 2).shape == (0, 2)
        assert len(land_periodic(M2, primitive_words(0, 2)).status) == 0
        assert len(landing_table(M2, 0, [2])[2].status) == 0

    def test_addresses_of_mixed_period_keep_their_order(self):
        addrs = enumerate_periodic(1, 2)
        table = landing_table(M2, 1, [2, 1])
        rows = [(row.address(i), row.result(i)) for row in table.values()
                for i in range(len(row.words))]
        assert [s for s, _ in rows] == addrs
        for s, res in rows:
            assert_same_landing(s, scalar_landing(M2, s), res)

    @pytest.mark.parametrize("c", [0, -2])
    def test_chunked_table_equals_one_chunk(self, monkeypatch, c):
        m = MapModel(c=c)
        whole = landing_table(m, 1, [1, 2, 3, 4])
        if c == 0:
            assert any((row.detail == rays._HIT_CUT).any() for row in whole.values())
        monkeypatch.setattr(rays, "_CHUNK_ROWS", 7)
        chunked = landing_table(m, 1, [1, 2, 3, 4])
        assert chunked.keys() == whole.keys()
        for p in whole:
            assert_same_columns(chunked[p], whole[p])

    def test_high_period_rays_land_at_attracting_parameter(self):
        # the singular value of e^z - 2 does not escape, so every periodic
        # ray lands (Rempe); the closure test must not reject the landing
        # points of strongly repelling cycles (|lambda| up to ~1e8 here)
        for p in range(1, 10):
            assert land_periodic(M2, primitive_words(1, p)).landed.all(), p
        # rejected as "forward orbit does not close" by a closure test of 10*tol
        res = landing_point(M2, parse_address("-1,1,1,1,-1,-1,-1,-1"))
        assert res.landed and abs(res.multiplier) > 1e6


class TestTraceRay:
    def test_sweep_potential_tracks_position_far_out(self):
        # |z(t) - t| -> 0 for the real ray under the ladder parameterization
        for t in (100.0, 150.0, 200.0):
            samples = sweep_hair(M2, ZERO, depth=60, t_lo=t, t_hi=t + 1, samples=2)
            assert abs(samples[0][1] - t) < 0.1

    def test_depth_convergence_geometric(self):
        # |z(N+1) - z(N)| from the same seed shrinks by better than 0.9
        # once N >= 5
        for text in ("0", "1,-1", "2,0,1", "3,-3,1"):
            s = parse_address(text)
            prev_delta = None
            for depth in range(5, 12):
                delta = max(abs(pullback_sequence(M2, s, zeta, depth + 1)[-1]
                                - pullback_sequence(M2, s, zeta, depth)[-1])
                            for zeta in (20.0, 35.0))
                if prev_delta is not None and prev_delta > 1e-14:
                    assert delta < 0.9 * prev_delta
                prev_delta = delta

    def test_monotone_potentials_and_injectivity(self):
        samples = sweep_hair(M2, ZERO, depth=60, t_lo=0.5, t_hi=200, samples=60)
        ts = [t for t, _ in samples]
        assert ts == sorted(ts)
        pts = [z for _, z in samples]
        assert len({(z.real, z.imag) for z in pts}) == len(pts)

    def test_sweep_approaches_landing_point(self):
        samples = sweep_hair(M2, ZERO, depth=60, t_lo=1e-3, t_hi=200, samples=80)
        assert abs(samples[0][1] - FIX_REPELLING) < 1e-9

    def test_sweep_far_samples_in_first_domain(self):
        from raycensus.exponential import fundamental_domain_of
        s = parse_address("1,0")
        for _, z in sweep_hair(M2, s, depth=60, t_lo=5, t_hi=200, samples=20):
            assert fundamental_domain_of(M2, z) == 1

    def test_functional_equation_exact_potentials(self):
        # f(G_s(t)) = G_{sigma s}(e^t - 1) for the ladder parameterization
        s = parse_address("0,1")
        sa = shift_by(s, 1)
        for t in (0.05, 0.3, 1.0, 3.0, 5.0):
            z = ladder_descend(M2, s, t, 60)[0]
            w = ladder_descend(M2, sa, math.exp(t) - 1.0, 60)[0]
            assert abs(evaluate(M2, z) - w) < 1e-10

    @pytest.mark.parametrize("c", [-2, complex(-1, 0.3), SIEGEL_C])
    @pytest.mark.parametrize("text, depth, t_lo, t_hi", [
        ("0", 60, 1e-3, 200.0), ("1,-1,0", 60, 1e-5, 1e3), ("0,1", 40, 0.05, 50.0),
        ("2,0,1", 3, 1e-3, 200.0), ("-1", 0, 1.0, 10.0)])
    def test_sweep_matches_ladder_descend(self, c, text, depth, t_lo, t_hi):
        # samples of each ladder depth are pulled back in one numpy pass;
        # numpy's complex log may differ from cmath.log in the last bits
        m, s = MapModel(c=c), parse_address(text)
        samples = sweep_hair(m, s, depth=depth, t_lo=t_lo, t_hi=t_hi, samples=90)
        ratio = (t_hi / t_lo) ** (1.0 / 89)
        assert [t for t, _ in samples] == [t_lo * ratio**i for i in range(90)]
        for t, z in samples:
            want = ladder_descend(m, s, t, depth)[0]
            assert abs(z - want) <= 8 * sys.float_info.epsilon * max(1.0, abs(want))

    def test_sweep_raises_the_scalar_hit(self):
        # at c = 0 the ray 0 runs along the real axis into the cut
        m = MapModel(c=0)
        with pytest.raises(SingularValueHit) as scalar:
            ladder_descend(m, ZERO, 0.01, 60)
        with pytest.raises(SingularValueHit) as batched:
            sweep_hair(m, ZERO, depth=60, t_lo=0.01, t_hi=100.0, samples=50)
        assert str(batched.value) == str(scalar.value) and batched.value.on_cut

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_hair(M2, ZERO, t_lo=5.0, t_hi=2.0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            sweep_hair(M2, ZERO, depth=-3, t_lo=5.0, t_hi=200.0)

    @pytest.mark.parametrize("samples", [1, 0])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 2"):
            sweep_hair(M2, ZERO, t_lo=5.0, t_hi=200.0, samples=samples)


class TestSingularEscape:
    def test_c0_escapes_along_zero_ray(self):
        fate = singular_escape_status(MapModel(c=0), 10)
        assert fate.kind == "escapes-along-periodic-ray"
        assert fate.address == ZERO

    def test_c_minus_2_bounded(self):
        fate = singular_escape_status(M2, 1000)
        assert fate.kind == "bounded-so-far"

    def test_siegel_bounded_at_long_horizon(self):
        theta = (math.sqrt(5) - 1) / 2
        c = 2j * math.pi * theta - cmath.exp(2j * math.pi * theta)
        fate = singular_escape_status(MapModel(c=c), 10_000)
        assert fate.kind == "bounded-so-far"
        assert fate.max_modulus <= 15

    def test_enters_d_repeatedly(self):
        # orbit of c = 7 + pi*i bounces between ~c and ~-e^7, re-entering D
        # after each large excursion without ever passing the escape threshold
        m = MapModel(c=complex(7, math.pi))
        fate = singular_escape_status(m, 50)
        assert fate.kind == "enters-D-repeatedly"
        assert fate.max_modulus > 100 * m.R
        assert fate.max_modulus < 1e5


class TestDefaultSeed:
    def test_seed_in_first_strip(self):
        s = parse_address("3")
        seed = default_seed(M2, s)
        assert seed.real == max(50.0, 2 * M2.R)
        assert seed.imag == 6 * math.pi
