import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from raycensus.addresses import (
    AddressParseError,
    InfiniteAddress,
    enumerate_periodic,
    parse_address,
    period_of,
    primitive_words,
    project,
    shift,
    shift_by,
)

ZERO = InfiniteAddress((), (0,))

labels = st.integers(-3, 3)
periodic = st.tuples(st.lists(labels, max_size=4).map(tuple),
                     st.lists(labels, min_size=1, max_size=4).map(tuple)) \
    .map(lambda t: InfiniteAddress(*t))


class TestCanonicalForm:
    def test_power_period_reduced(self):
        assert InfiniteAddress((), (0, 1, 0, 1)).period == (0, 1)

    def test_preperiod_absorbed(self):
        s = InfiniteAddress((3, 0), (1, 0))
        assert s.preperiod == (3,)
        assert s.period == (0, 1)

    def test_full_copy_absorbed(self):
        s = InfiniteAddress((0, 1), (0, 1))
        assert s.preperiod == ()
        assert s.period in ((0, 1), (1, 0))
        # the sequence itself is unchanged
        assert [s.entry(i) for i in range(6)] == [0, 1, 0, 1, 0, 1]

    @given(periodic)
    def test_idempotent(self, s):
        again = InfiniteAddress(s.preperiod, s.period)
        assert again == s

    @given(periodic)
    def test_canonicalization_preserves_sequence(self, s):
        raw_pre = (5, -1) + s.preperiod
        raw = InfiniteAddress(raw_pre, s.period * 2)
        expect = [raw_pre[i] if i < len(raw_pre)
                  else s.period[(i - len(raw_pre)) % len(s.period)]
                  for i in range(16)]
        assert [raw.entry(i) for i in range(16)] == expect

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            InfiniteAddress((), ())


class TestShift:
    def test_fixed_address(self):
        assert shift(ZERO) == ZERO

    def test_preperiod_dropped(self):
        assert shift(InfiniteAddress((1,), (0,))) == ZERO

    def test_cyclic_rotation(self):
        assert shift(InfiniteAddress((), (0, 1))) == InfiniteAddress((), (1, 0))

    @given(periodic)
    def test_shift_matches_sequence(self, s):
        t = shift(s)
        assert [t.entry(i) for i in range(12)] == [s.entry(i + 1) for i in range(12)]

    @given(periodic.filter(lambda s: not s.preperiod))
    def test_period_invariant_under_shift(self, s):
        assert period_of(shift(s)) == period_of(s)


class TestProject:
    def test_ell_1(self):
        assert project(ZERO, 1, 1) == (0,)

    def test_ell_3_m_2(self):
        assert project(ZERO, 3, 2) == (0, 0, 0, 0, 0)

    def test_two_periodic(self):
        assert project(InfiniteAddress((), (2, 1)), 2, 2) == (2, 1, 2)

    @given(periodic, st.integers(2, 5), st.integers(1, 3))
    def test_commutes_with_shift(self, s, n, m):
        lhs = project(shift_by(s, m), n - 1, m)
        assert lhs == project(s, n, m)[m:]


class TestPeriodOf:
    def test_fixed(self):
        assert period_of(ZERO) == 1

    def test_two(self):
        assert period_of(InfiniteAddress((), (0, 1))) == 2

    def test_strictly_preperiodic(self):
        assert period_of(InfiniteAddress((3,), (0,))) == 0


class TestEnumerate:
    def test_window_zero(self):
        assert enumerate_periodic(0, 2) == [ZERO]

    def test_period_one(self):
        assert enumerate_periodic(1, 1) == [
            InfiniteAddress((), (-1,)), ZERO, InfiniteAddress((), (1,))]

    def test_period_two_count(self):
        out = enumerate_periodic(1, 2)
        assert len(out) == 9
        assert sum(1 for s in out if period_of(s) == 1) == 3
        assert sum(1 for s in out if period_of(s) == 2) == 6

    @pytest.mark.parametrize("K,p", [(k, p) for k in (0, 1, 2) for p in (1, 2, 3, 4)])
    def test_count_matches_word_enumeration(self, K, p):
        out = enumerate_periodic(K, p)
        assert len(out) == (2 * K + 1) ** p
        assert len(set(out)) == len(out)
        words = set(itertools.product(range(-K, K + 1), repeat=p))
        expanded = {tuple(s.entry(i) for i in range(p)) for s in out}
        assert expanded == words

    def test_rotations_are_distinct(self):
        out = enumerate_periodic(1, 2)
        assert InfiniteAddress((), (0, 1)) in out
        assert InfiniteAddress((), (1, 0)) in out

    def test_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_periodic(-1, 2)
        with pytest.raises(ValueError):
            enumerate_periodic(1, 0)


class TestPrimitiveWords:
    @pytest.mark.parametrize("K,p", [(k, p) for k in (0, 1, 2) for p in range(1, 7)])
    def test_rows_are_the_period_p_addresses_in_order(self, K, p):
        words = primitive_words(K, p)
        assert words.dtype == np.int8 and words.shape[1] == p
        expected = [s.period for s in enumerate_periodic(K, p) if period_of(s) == p]
        assert [tuple(w) for w in words.tolist()] == expected
        # and independently of enumerate_periodic
        assert [tuple(w) for w in words.tolist()] == [
            w for w in itertools.product(range(-K, K + 1), repeat=p)
            if InfiniteAddress((), w).period == w]

    def test_window_past_int8_keeps_its_entries(self):
        assert primitive_words(128, 1)[:, 0].tolist() == list(range(-128, 129))

    def test_window_zero_has_only_the_fixed_word(self):
        assert primitive_words(0, 1).tolist() == [[0]]
        assert primitive_words(0, 3).shape == (0, 3)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            primitive_words(-1, 2)
        with pytest.raises(ValueError):
            primitive_words(1, 0)


class TestTextSyntax:
    @pytest.mark.parametrize("text,pre,per", [
        ("0", (), (0,)),
        ("3:0,1", (3,), (0, 1)),
        ("0,1", (), (0, 1)),
        ("-1", (), (-1,)),
        (":2", (), (2,)),
    ])
    def test_parse(self, text, pre, per):
        s = parse_address(text)
        assert s == InfiniteAddress(pre, per)

    @pytest.mark.parametrize("bad", ["", "0,,1", "a", "1:", "0:1:2", ","])
    def test_parse_errors(self, bad):
        with pytest.raises(AddressParseError):
            parse_address(bad)

    @given(periodic)
    def test_round_trip(self, s):
        assert parse_address(str(s)) == s
