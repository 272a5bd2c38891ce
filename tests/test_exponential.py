import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from raycensus import exponential
from raycensus.exponential import (
    ESCAPED,
    MapModel,
    SingularValueHit,
    evaluate,
    forward_orbit,
    fundamental_domain_of,
    in_fundamental_domain_exact,
    inverse_branch,
    is_escaped,
    singular_values,
)

TWO_PI = 2 * math.pi
M2 = MapModel(c=-2)


class TestEvaluate:
    def test_at_zero(self):
        assert evaluate(M2, 0) == -1

    def test_at_i_pi(self):
        assert abs(evaluate(M2, complex(0, math.pi)) - (-3)) < 1e-12

    def test_at_one(self):
        assert abs(evaluate(M2, 1) - (math.e - 2)) < 1e-12

    def test_overflow_sentinel(self):
        assert is_escaped(evaluate(M2, 701))
        assert is_escaped(evaluate(M2, ESCAPED))


class TestSingularValues:
    @pytest.mark.parametrize("c", [-2, complex(0.7375, 4.5588), 0])
    def test_single_asymptotic_value(self, c):
        assert singular_values(MapModel(c=c)) == [c]


class TestInverseBranch:
    def test_principal(self):
        assert abs(inverse_branch(M2, 10, 0) - math.log(12)) < 1e-14

    def test_k_one(self):
        expect = complex(math.log(12), TWO_PI)
        assert abs(inverse_branch(M2, 10, 1) - expect) < 1e-14

    def test_singular_value_hit(self):
        with pytest.raises(SingularValueHit):
            inverse_branch(M2, -2, 0)

    def test_cut_hit(self):
        with pytest.raises(SingularValueHit) as exc:
            inverse_branch(M2, -5, 0)
        assert exc.value.on_cut

    @given(st.floats(-50, 50), st.floats(-50, 50), st.integers(-10, 10))
    def test_round_trip(self, re, im, k):
        w = complex(re, im)
        if abs(w) <= M2.R:
            return
        try:
            z = inverse_branch(M2, w, k)
        except SingularValueHit:
            return  # w on the cut
        assert abs(evaluate(M2, z) - w) <= 1e-12 * max(1.0, abs(w))

    @given(st.floats(-50, 50), st.floats(-50, 50), st.integers(-9, 9))
    def test_branch_separation_two_pi(self, re, im, k):
        # separation is 2*pi at representation level (each branch rounds
        # its own imaginary part once, so allow a few ulps, no drift in k)
        w = complex(re, im)
        try:
            lo = inverse_branch(M2, w, k)
        except SingularValueHit:
            return  # w = c or w on the cut
        hi = inverse_branch(M2, w, k + 1)
        assert abs((hi.imag - lo.imag) - TWO_PI) < 1e-14
        assert hi.real == lo.real


class TestFundamentalDomain:
    def test_real_point(self):
        assert fundamental_domain_of(M2, 10) == 0

    def test_translated_point(self):
        assert fundamental_domain_of(M2, complex(10, TWO_PI)) == 1

    def test_left_of_tract(self):
        assert fundamental_domain_of(M2, -10) is None

    def test_label_consistency(self):
        rng = random.Random(3)
        for _ in range(200):
            z = complex(rng.uniform(M2.tract_threshold + 0.1, 30),
                        rng.uniform(-20, 20))
            k = fundamental_domain_of(M2, z)
            w = evaluate(M2, z)
            if is_escaped(w):
                continue
            try:
                back = inverse_branch(M2, w, k)
            except SingularValueHit:
                continue  # w on the cut
            assert fundamental_domain_of(M2, back) == k

    def test_exact_membership(self):
        # far-out real point is in F_0 for any slit radius up to |f(z)|
        assert in_fundamental_domain_exact(M2, 10.0, 0, radius=5.0)
        assert not in_fundamental_domain_exact(M2, 1.5 + 0.2j, 0, radius=5.0)
        assert not in_fundamental_domain_exact(M2, complex(10, TWO_PI), 0)

    @given(re_c=st.floats(-5, 5), im_c=st.floats(-5, 5), margin=st.floats(0, 1),
           k=st.integers(-2, 2), x=st.floats(0, 1),
           y=st.one_of(st.floats(-math.pi, math.pi),
                       st.floats(0, 1e-6).map(lambda d: math.pi - d),
                       st.floats(0, 1e-6).map(lambda d: d - math.pi)))
    def test_exact_membership_holds_to_the_right(self, re_c, im_c, margin, k, x, y):
        # why tails tests F_k at a point and not on a march right of it:
        # for r > |c|, F_k at radius r is closed under moving right
        m = MapModel(c=complex(re_c, im_c))
        r = abs(m.c) + 2.0 + margin * (58.0 - abs(m.c))
        # |f(z)| <= e^{Re z} + |c|, so F_k lies right of log(r - |c|)
        x_lo, x_end = math.log(r - abs(m.c)), math.log(r + abs(m.c)) + 0.1
        z = complex(x_lo + x * (x_end - x_lo), TWO_PI * k + y)
        assume(in_fundamental_domain_exact(m, z, k, radius=r))
        j = 1
        while z.real + 0.1 * j <= x_end:
            assert in_fundamental_domain_exact(m, complex(z.real + 0.1 * j, z.imag), k,
                                               radius=r), (z, j)
            j += 1


class TestModelValidation:
    def test_default_radius_contains_c_and_f0(self):
        for c in (-2, 0, complex(0.7375, 4.5588), 5j):
            m = MapModel(c=c)
            assert m.R == max(abs(c) + 2, abs(1 + c) + 1, math.e)
            assert abs(c) < m.R and abs(1 + c) < m.R
            assert math.log(m.R - abs(c)) > -m.R

    def test_radius_too_small_rejected(self):
        # |c| + 2 rounds to |c|, so no radius computed from c contains it;
        # the message names c, as no radius was given
        for c in (1e17, -1e17, complex(0, 1e17)):
            with pytest.raises(ValueError) as exc:
                MapModel(c=c)
            assert str(exc.value) == f"c = {c!r} too large: D must contain c and 1 + c"

    def test_radius_is_set_from_c(self):
        with pytest.raises(TypeError):
            MapModel(c=-2, R=5.0)
        m = MapModel(c=-2)
        assert m.R == 4.0
        assert dataclasses.replace(m, c=1).R == 3.0


def _full_orbit(m, z, n, radius):
    """forward_orbit without its repeat test: one evaluate per iterate."""
    orbit = [z]
    for _ in range(n):
        w = evaluate(m, orbit[-1])
        if is_escaped(w) or abs(w) > radius:
            return orbit, w
        orbit.append(w)
    return orbit, None


class TestForwardOrbit:
    # escaping (0, 0.25), a fixed point reached bit for bit (-2), orbits that
    # settle on rounding cycles (of periods 3 and 4 on x86-64 with CPython
    # 3.11), and orbits that never repeat within the horizon (Siegel,
    # three-petal parabolic)
    @pytest.mark.parametrize("c", [
        0, 0.25, -2, -1 + 0.3j, -2.25 + 2j, -1.5 + 1.5j,
        complex(0.7373688780783199, 4.558712371712457),
        complex(0.5, 1.2283696986087567)])
    @pytest.mark.parametrize("n", [1, 10, 50, 1000, 100_000])
    def test_equals_the_full_loop(self, c, n):
        m = MapModel(c=c)
        orbit, out = forward_orbit(m, m.c, n, 1e5)
        want, want_out = _full_orbit(m, m.c, n, 1e5)
        assert [repr(complex(z)) for z in orbit] == [repr(complex(z)) for z in want]
        assert repr(out) == repr(want_out)

    @pytest.mark.parametrize("c", [-2, -2.25 + 2j, -1.5 + 1.5j])
    def test_a_repeat_ends_the_evaluate_calls(self, monkeypatch, c):
        # each orbit is attracted to a cycle, so in floating point it repeats
        # bit for bit after a few dozen iterates
        seen = []
        monkeypatch.setattr(exponential, "evaluate", lambda m, z: seen.append(z) or evaluate(m, z))
        orbit, out = forward_orbit(MapModel(c=c), c, 100_000, 1e5)
        assert out is None and len(orbit) == 100_001
        assert len(seen) < 100

    def test_radius_stops_before_the_first_iterate_outside(self):
        orbit, out = forward_orbit(MapModel(c=0), 0, 10, 3.0)
        assert orbit == [0, 1, math.e] and out == evaluate(MapModel(c=0), math.e)
        assert forward_orbit(M2, 701, 3, 1e5) == ([701], ESCAPED)
