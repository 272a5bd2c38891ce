import cmath
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from raycensus import census
from raycensus.addresses import parse_address, period_of, shift
from raycensus.census import _staged_search, audit, dumps_canonical, landing_search
from raycensus.cycles import find_cycles
from raycensus.exponential import MapModel
from raycensus.rays import _NOT_CONVERGED, land_periodic, landing_table
from raycensus.regions import build_ray_graph
from raycensus.tails import DEFAULT_HORIZON

M2 = MapModel(c=-2)
BOX = (-3.0, 3.0, -7.0, 7.0)

theta = (math.sqrt(5) - 1) / 2
SIEGEL_C = 2j * math.pi * theta - cmath.exp(2j * math.pi * theta)

FIX_REPELLING = 1.1461932206205825
FIX_STRIP1 = complex(2.1310754576665873, 7.341435092197778)


def search(m, cycle, window, period_cap):
    """The staged landing search of audit for one cycle, up to ray period period_cap."""
    [ls], _ = _staged_search(m, [cycle], window, period_cap // cycle.period)
    return ls


def exhaustive(m, cycle, table, period_cap):
    """Addresses matched by landing_search at every multiple of the cycle period."""
    return [s for p in range(cycle.period, period_cap + 1, cycle.period)
            for s in landing_search(m, cycle, table[p]).addresses]


def one_period(addresses):
    return len({period_of(s) for s in addresses}) == 1


class TestLandingSearch:
    def test_fixed_point_found_by_zero_bar_only(self):
        rep = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles
               if c.is_repelling][0]
        ls = search(M2, rep, 1, 3)
        assert [str(a) for a in ls.addresses] == ["0"]
        assert one_period(ls.addresses)
        assert not ls.failures

    def test_strip_one_fixed_point_found_by_one_bar(self):
        rep = [c for c in find_cycles(M2, 1, (-3, 3, 3, 9), grid=50).cycles
               if c.is_repelling][0]
        assert abs(rep.points[0] - FIX_STRIP1) < 1e-9
        ls = search(M2, rep, 1, 3)
        assert [str(a) for a in ls.addresses] == ["1"]

    def test_two_cycle_rotation_pair(self):
        two = [c for c in find_cycles(M2, 2, BOX, grid=40).cycles
               if c.period == 2 and c.points[0] == min(
                   c.points, key=lambda z: (z.real, z.imag))
               and c.points[0].imag > 0]
        cyc = two[0]
        ls = search(M2, cyc, 1, 4)
        assert {str(a) for a in ls.addresses} == {"0,1", "1,0"}
        assert one_period(ls.addresses)

    def test_attracting_cycle_rejected(self):
        att = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles
               if c.is_attracting][0]
        with pytest.raises(ValueError):
            search(M2, att, 1, 2)

    def test_nearby_period_twelve_points_do_not_match(self):
        # these period-12 rays land within DEFAULT_MATCH_TOL (1e-6) of a period-3
        # cycle point, but f^3 moves their landing points by 4.9e-6 and
        # more, against a closure bound near 6e-9: they land elsewhere
        words = ["-1,0,0,-1,0,0,-1,0,0,-1,-1,1", "1,-1,0,1,-1,0,1,-1,0,1,-1,1",
                 "1,0,0,1,0,0,1,0,0,1,1,-1", "-1,1,0,-1,1,0,-1,1,0,-1,1,-1"]
        twelve = land_periodic(M2, np.array([parse_address(w).period for w in words]))
        assert twelve.landed.all()
        table = landing_table(M2, 1, [3, 6, 9])
        table[12] = twelve
        three = [c for c in find_cycles(M2, 3, BOX, grid=40).cycles if c.period == 3]
        assert len(three) == 4
        for cyc in three:
            assert min(abs(w - z) for w in twelve.points for z in cyc.points) < 1e-6
            assert not landing_search(M2, cyc, twelve).addresses
            addresses = exhaustive(M2, cyc, table, 12)
            # exactly the three rotations of one period-3 word
            assert len(addresses) == 3
            assert {shift(s) for s in addresses} == set(addresses)
            assert one_period(addresses)

    def test_period_three_census_lands_every_ray(self):
        report = audit(M2, BOX, 3, 1)
        assert report.rays_land_in_window
        assert report.warnings == []
        assert report.verdict == "satisfied"
        assert all(ls.addresses and not ls.failures for ls in report.searches)

    def test_staged_search_equals_exhaustive_search(self):
        # the audit stops each cycle's search at the first ray period that
        # lands on it; searching every multiple of the period finds nothing more
        for c in (-2, -1 + 0.3j):
            m = MapModel(c=c)
            report = audit(m, BOX, 3, 1)
            periods = {q * ls.cycle.period for ls in report.searches for q in (1, 2, 3)}
            table = landing_table(m, 1, periods)
            assert report.searches
            for ls in report.searches:
                assert ls.addresses == exhaustive(m, ls.cycle, table, 3 * ls.cycle.period)
                assert one_period(ls.addresses)

    @pytest.mark.parametrize("max_period, window, landed", [(3, 1, [1, 2, 3]),
                                                            (2, 0, [1, 2, 4])])
    def test_ray_periods_landed(self, max_period, window, landed):
        # at window 0 the 2-cycles find no period-2 word and reach the q = 2
        # stage; the matched fixed point needs no period-2 or period-3 rays
        report = audit(M2, BOX, max_period, window)
        assert report.ray_periods_landed == landed
        assert json.loads(report.to_json())["ray_periods_landed"] == landed

    def test_rows_landed_by_the_staged_search(self, monkeypatch):
        rows = []

        def counting_table(*args, **kw):
            table = landing_table(*args, **kw)
            rows.extend(len(row.words) for row in table.values())
            return table

        monkeypatch.setattr(census, "landing_table", counting_table)
        report = audit(M2, BOX, 3, 2)
        assert sum(rows) == 145
        assert all(ls.addresses for ls in report.searches)

    def test_each_landing_failure_reported_once(self, monkeypatch):
        # all three repelling 2-cycles search the period-2 rows; the failed
        # row is in each search but named in one warning
        def failing_table(*args, **kw):
            table = landing_table(*args, **kw)
            if 2 in table:
                table[2].status[0] = _NOT_CONVERGED
            return table

        monkeypatch.setattr(census, "landing_table", failing_table)
        report = audit(M2, BOX, 2, 1)
        failed = [w for w in report.warnings if "did not land" in w]
        assert failed == ["address -1,0 did not land: not-converged"]
        assert sum(len(ls.failures) for ls in report.searches) == 3
        assert not report.rays_land_in_window
        assert report.verdict == "not-applicable"

    def test_monotone_in_window_and_cap(self):
        rep = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles
               if c.is_repelling][0]
        small = search(M2, rep, 1, 2)
        large = search(M2, rep, 2, 4)
        assert set(map(str, small.addresses)) <= set(map(str, large.addresses))


@pytest.fixture(scope="module")
def hyperbolic_report():
    return audit(M2, BOX, 2, 1, horizon=1000, grid=40)


@pytest.fixture(scope="module")
def siegel_report():
    return audit(MapModel(c=SIEGEL_C), BOX, 2, 1, horizon=1000,
                 grid=40)


@pytest.fixture(scope="module")
def escaping_report():
    return audit(MapModel(c=0), BOX, 2, 1, horizon=10, grid=30)


@pytest.fixture(scope="module")
def window_zero_report():
    return audit(M2, BOX, 2, 0, grid=40)


@pytest.fixture(scope="module")
def near_parabolic_report():
    # attracting fixed point of multiplier 0.9955: the singular orbit nears it
    # too slowly to sit within 1e-6 of it for long within the horizon
    return audit(MapModel(c=-1.00001), BOX, 1, 1)


class TestAuditHyperbolic:
    @pytest.fixture
    def report(self, hyperbolic_report):
        return hyperbolic_report

    def test_verdict_satisfied(self, report):
        assert report.verdict == "satisfied"

    def test_counts(self, report):
        assert report.n_attracting == 1
        assert report.n_indifferent == 0
        assert report.n_invisible_candidates == 0
        assert report.n_repelling == 4

    def test_singular_in_basin(self, report):
        assert report.singular_status == "in-attracting-or-parabolic-basin"
        assert report.q_effective == 0
        assert report.q == 1

    def test_every_repelling_matched(self, report):
        for ls in report.searches:
            assert ls.addresses, str(ls.cycle.points[0])

    def test_hypotheses_hold(self, report):
        assert report.rays_land_in_window
        assert report.fate.kind == "bounded-so-far"

    def test_json_roundtrip(self, report):
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "satisfied"
        assert doc["counts"]["invisible_candidates"] == 0
        assert doc["schema_version"] == "3"
        assert "basin_cycle_index" not in doc["singular"]
        assert doc["ray_periods_landed"] == [1, 2]
        assert "equal_period_ok" not in json.dumps(doc)
        assert doc["hypotheses"]["periodic_rays_land_in_window"] is True
        assert len(doc["cycles"]) == len(report.cycles)
        assert [c.get("landing_addresses") for c in doc["cycles"]].count(["0"]) == 1


class TestAuditSiegel:
    @pytest.fixture
    def report(self, siegel_report):
        return siegel_report

    def test_verdict_satisfied_one_indifferent(self, report):
        assert report.verdict == "satisfied"
        assert report.n_indifferent == 1
        assert report.n_invisible_candidates == 0
        assert report.q_effective == 1

    def test_indifferent_fixed_point_location(self, report):
        ind = [c for c in report.cycles if c.cls == "indifferent"]
        assert len(ind) == 1
        assert abs(ind[0].points[0] - 2j * math.pi * theta) < 1e-10
        assert abs(abs(ind[0].multiplier) - 1) < 1e-10

    def test_no_second_indifferent(self, report):
        assert sum(c.cls == "indifferent" for c in report.cycles) == 1


class TestAuditNearParabolic:
    def test_attracting_cycle_spends_the_singular_orbit(self, near_parabolic_report):
        report = near_parabolic_report
        assert report.n_attracting == 1
        assert report.q_effective == 0
        assert report.singular_status == "in-attracting-or-parabolic-basin"
        assert report.verdict == "satisfied"


class TestPapersInequality:
    @pytest.mark.parametrize("name", ["hyperbolic_report", "siegel_report", "escaping_report",
                                      "window_zero_report", "near_parabolic_report"])
    def test_verdict_is_the_literal_count(self, request, name):
        report = request.getfixturevalue(name)
        assert report.q == 1
        assert report.q_effective == \
            report.q - report.n_attracting - report.n_parabolic_suspected
        if report.rays_land_in_window and report.fate.kind != "escapes-along-periodic-ray":
            lhs = (report.n_attracting + report.n_parabolic_suspected
                   + report.n_indifferent + report.n_invisible_candidates)
            assert report.verdict == ("satisfied" if lhs <= report.q else "violated")

    def test_q_counts_the_singular_values(self, monkeypatch):
        monkeypatch.setattr(census, "singular_values", lambda m: [m.c, m.c + 1])
        report = audit(M2, BOX, 1, 1)
        assert (report.q, report.n_attracting, report.q_effective) == (2, 1, 1)


class TestAuditEscaping:
    def test_c0_not_applicable(self, escaping_report):
        report = escaping_report
        assert report.verdict == "not-applicable"
        assert report.fate.kind == "escapes-along-periodic-ray"
        assert str(report.fate.address) == "0"
        assert report.singular_status == "escaping-along-periodic-ray"


class TestInvisibleCandidateMachinery:
    def test_window_zero_flags_candidates_and_violates(self, window_zero_report):
        # K = 0 cannot see the 2-cycles' landing addresses; the candidates
        # contradict the inequality (q_eff = 0), which the census treats as
        # a numerics/window failure shipped with reproduction parameters
        report = window_zero_report
        assert report.n_invisible_candidates == 3
        assert report.verdict == "violated"
        assert report.rays_land_in_window  # nothing searched failed to land
        assert len(report.trichotomy) == 3
        for ev in report.trichotomy:
            assert "case" in ev or "error" in ev
        assert any("reproduction" in w for w in report.warnings)

    def test_one_ray_graph_per_candidate_period(self, monkeypatch):
        # the three candidates are 2-cycles: one graph serves all of them,
        # with the evidence of a graph built for each candidate
        built = []

        def counted(*args, **kwargs):
            built.append(args[1])
            return build_ray_graph(*args, **kwargs)

        monkeypatch.setattr(census, "build_ray_graph", counted)
        report = audit(M2, BOX, 2, 0)
        assert built == [2]
        candidates = [ls.cycle for ls in report.searches if ls.invisible_candidate]
        assert [cyc.period for cyc in candidates] == [2, 2, 2]
        reference = [census._trichotomy_evidence(
            M2, cyc, build_ray_graph(M2, 2, 0, box=BOX, grid=120), DEFAULT_HORIZON)
            for cyc in candidates]
        assert report.trichotomy == reference

    def test_c0_invisible_fixed_point_when_forced(self):
        # bypass the hypothesis gate: search rays for the invisible-candidate
        # fixed point of e^z directly (0-bar hits the singular orbit; no
        # window address lands there)
        m0 = MapModel(c=0)
        reps = [c for c in find_cycles(m0, 1, BOX, grid=40).cycles
                if c.is_repelling and c.points[0].imag > 0]
        ls = search(m0, reps[0], 1, 3)
        assert ls.invisible_candidate
        assert any(status == "singular-hit" for _, status in ls.failures)


class TestReportInvariants:
    def test_conjugation_symmetry_for_real_c(self, hyperbolic_report):
        # conjugating all cycle points and negating address entries maps the
        # report onto itself
        searches = hyperbolic_report.searches

        def match(pts_a, pts_b):
            return all(min(abs(a - b) for b in pts_b) < 1e-8 for a in pts_a)

        for ls in searches:
            conj_pts = [z.conjugate() for z in ls.cycle.points]
            partner = None
            for other in searches:
                if match(conj_pts, other.cycle.points):
                    partner = other
                    break
            assert partner is not None
            negated = {str(InfiniteAddressNeg(a)) for a in ls.addresses}
            assert negated == {str(a) for a in partner.addresses}

    def test_monotone_evidence_in_window(self):
        small = audit(M2, BOX, 2, 1, grid=30)
        large = audit(M2, BOX, 2, 2, grid=30)
        assert large.n_invisible_candidates <= small.n_invisible_candidates
        for ls_small in small.searches:
            ls_large = next(
                ls for ls in large.searches
                if abs(ls.cycle.points[0] - ls_small.cycle.points[0]) < 1e-8)
            assert {str(a) for a in ls_small.addresses} <= \
                {str(a) for a in ls_large.addresses}


def InfiniteAddressNeg(a):
    from raycensus.addresses import InfiniteAddress
    return InfiniteAddress(tuple(-k for k in a.preperiod),
                           tuple(-k for k in a.period))


class TestDeterminism:
    def test_dumps_canonical_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})


finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = finite | finite.map(np.float64)
pair = st.tuples(numbers, numbers)
leaves = (st.none() | st.booleans() | st.integers() | numbers | st.text()
          | st.lists(numbers, max_size=400) | st.lists(pair.map(list) | pair, max_size=60))
keys = st.text() | st.integers() | finite | st.booleans() | st.none()
documents = st.recursive(
    leaves, lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                          | st.dictionaries(keys, kids, max_size=5)), max_leaves=25)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                              np.float64(-math.inf)])


def json_outcome(fn, doc):
    """The text fn writes for doc, or the type and message of its ValueError."""
    try:
        return fn(doc)
    except ValueError as exc:
        return type(exc), str(exc)


class TestCanonicalWriter:
    """dumps_canonical is json.dumps(doc, indent=2, allow_nan=False), byte for byte."""

    @settings(deadline=None)
    @given(documents)
    def test_equals_json_dumps(self, doc):
        assert dumps_canonical(doc) == json.dumps(doc, indent=2, allow_nan=False)

    @settings(deadline=None)
    @given(st.lists(pair.map(list), min_size=1, max_size=60), non_finite, st.data())
    def test_non_finite_in_a_pair_list_raises(self, pairs, bad, data):
        i, k = data.draw(st.integers(0, len(pairs) - 1)), data.draw(st.integers(0, 1))
        pairs[i][k] = bad
        doc = {"arcs": [{"polyline": pairs}]}
        want = json_outcome(lambda d: json.dumps(d, indent=2, allow_nan=False), doc)
        assert want[0] is ValueError
        assert json_outcome(dumps_canonical, doc) == want

    @settings(deadline=None)
    @given(documents, non_finite, st.data())
    def test_non_finite_anywhere_raises(self, doc, bad, data):
        doc = [doc, data.draw(st.sampled_from([
            bad, [1.0, bad], [[bad, 2.0]], {"x": bad}, {bad: 1}, (0.5, bad)]))]
        want = json_outcome(lambda d: json.dumps(d, indent=2, allow_nan=False), doc)
        assert want[0] is ValueError
        assert json_outcome(dumps_canonical, doc) == want

    def test_other_json_errors_are_json_dumps_errors(self):
        circular = []
        circular.append(circular)
        for doc in (circular, {"a": np.arange(3)}, {(1, 2): 3}, [np.int64(1)]):
            with pytest.raises((TypeError, ValueError)) as ours:
                dumps_canonical(doc)
            with pytest.raises(type(ours.value), match=re.escape(str(ours.value))):
                json.dumps(doc, indent=2, allow_nan=False)
