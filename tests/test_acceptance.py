"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines;
tolerances are pinned here and never loosened at runtime.
"""

import cmath
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from raycensus.addresses import (
    InfiniteAddress,
    enumerate_periodic,
    parse_address,
    period_of,
    shift_by,
)
from raycensus.census import audit
from raycensus.cycles import find_cycles
from raycensus.exponential import TWO_PI, MapModel, evaluate, inverse_branch
from raycensus.rays import (
    default_seed,
    ladder_descend,
    landing_point,
    pullback_sequence,
    singular_escape_status,
    verify_pullback_roundtrip,
)
from raycensus.regions import build_ray_graph, interior_fixed_point_audit
from raycensus.tails import make_tail_context, piece_diameter, piece_mapping_check

BOX = (-3.0, 3.0, -7.0, 7.0)
M2 = MapModel(c=-2)

theta = (math.sqrt(5) - 1) / 2
SIEGEL_C = 2j * math.pi * theta - cmath.exp(2j * math.pi * theta)
SIEGEL_FIX = 2j * math.pi * theta

# Newton oracle for the attracting fixed point of e^z - 2 (criterion 1)
ORACLE_ATTRACTING = -1.8414056604369606


# ---------------------------------------------------------------------------
# independent oracles

def newton_fixed_point_oracle(c, z, p=1, iters=80):
    """Newton on f^p(z) - z, built directly on cmath."""
    for _ in range(iters):
        w = z
        d = 1 + 0j
        for _ in range(p):
            e = cmath.exp(w)
            d *= e
            w = e + c
        denom = d - 1
        if abs(denom) < 1e-30:
            break
        z = z - (w - z) / denom
    return z


def newton_on_psi_oracle(c, labels, seed, iters=200):
    """Newton on psi(z) - z where psi is the one-period branch composition.

    psi and its derivative are assembled from cmath.log directly, independent
    of the package's pullback path.
    """

    def psi_and_derivative(w):
        d = 1 + 0j
        for k in reversed(labels):
            u = w - c
            d /= u
            w = cmath.log(u) + complex(0.0, TWO_PI * k)
        return w, d

    z = seed
    for _ in range(iters):
        pw, pd = psi_and_derivative(z)
        denom = pd - 1
        if abs(denom) < 1e-30:
            break
        step = (pw - z) / denom
        z = z - step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z


def tail_witness_sequence(m, s, depth):
    """Pullbacks of a level-1 witness seeded at the address's last label.

    witness_n = L_{s_0} .. L_{s_{n-2}} (x_w + 2 pi i s_{n-1}); convergence of
    this sequence is the tail-side characterization of landing.
    """
    x_w = m.seed_potential + 1.0
    out = []
    for n in range(1, depth + 1):
        labels = tuple(s.entry(i) for i in range(n))
        w = complex(x_w, TWO_PI * labels[-1])
        for k in reversed(labels[:-1]):  # rightmost branch first
            w = inverse_branch(m, w, k)
        out.append(w)
    return out


def is_cauchy_geometric(seq, tol=1e-8):
    diffs = [abs(a - b) for a, b in zip(seq, seq[1:])]
    if diffs[-1] > tol:
        return False
    # geometric decay on the tail (allow flat stretches at roundoff)
    for a, b in zip(diffs[5:], diffs[6:]):
        if b > max(0.95 * a, 1e-13):
            return False
    return True


def random_addresses(rng, count, window, max_period):
    out = []
    while len(out) < count:
        p = rng.randint(1, max_period)
        word = tuple(rng.randint(-window, window) for _ in range(p))
        s = InfiniteAddress((), word)
        if s not in out:
            out.append(s)
    return out


# ---------------------------------------------------------------------------

def test_criterion_1_hyperbolic_audit():
    t0 = time.time()
    report = audit(M2, BOX, 2, 1, depth=40, horizon=1000, grid=40)
    elapsed = time.time() - t0

    att = [c for c in report.cycles if c.is_attracting]
    assert len(att) == 1
    assert abs(att[0].points[0] - ORACLE_ATTRACTING) < 1e-9

    assert report.searches, "no repelling cycles found"
    for ls in report.searches:
        assert ls.addresses, f"repelling cycle {ls.cycle.points[0]} unmatched"

    assert report.n_indifferent + report.n_invisible_candidates == 0
    assert report.q == 1
    assert report.verdict == "satisfied"
    assert elapsed < 30.0
    print(f"\nCRITERION 1 PASS: hyperbolic audit satisfied in {elapsed:.2f}s; "
          f"attracting fixed point within 1e-9 of oracle; "
          f"{report.n_repelling} repelling cycles all matched")


def test_criterion_2_landing_characterization_equivalence():
    addresses = []
    for p in (1, 2, 3):
        addresses.extend(enumerate_periodic(1, p))
    assert len(addresses) == 39

    checked_newton = 0
    checked_tail = 0
    for s in addresses:
        res = landing_point(M2, s)
        p = period_of(s)
        labels = tuple(s.entry(i) for i in range(p))

        if res.landed:
            oracle = newton_on_psi_oracle(-2, labels, default_seed(M2, s))
            assert abs(res.point - oracle) < 1e-10, str(s)
            checked_newton += 1

        wits = tail_witness_sequence(M2, s, 25)
        cauchy = is_cauchy_geometric(wits)
        assert cauchy == res.landed, str(s)
        if cauchy:
            assert abs(wits[-1] - res.point) < 1e-8, str(s)
            checked_tail += 1
    print(f"\nCRITERION 2 PASS: 39 addresses; pullback vs Newton-on-psi "
          f"agree <1e-10 on {checked_newton}; tail-witness Cauchy iff landed, "
          f"limits agree <1e-8 on {checked_tail}")


@pytest.fixture(scope="module")
def tail_ctx():
    graph = build_ray_graph(M2, 1, 1, depth=40, box=BOX, grid=120)
    rep = [c for c in find_cycles(M2, 1, BOX, grid=30).cycles
           if c.is_repelling][0]
    assert abs(rep.points[0] - 1.1461932206205825) < 1e-10
    return make_tail_context(M2, rep, graph, horizon=1000)


def test_criterion_3_shrinking_of_pieces(tail_ctx):
    s = parse_address("0")
    diam = {n: piece_diameter(tail_ctx, s, n, samples=20).diameter
            for n in range(5, 26)}
    for n in range(5, 21):
        assert diam[n + 5] < diam[n], n
    lam = 3.1461932206205825
    for n in range(10, 21):
        ratio = diam[n + 1] / diam[n]
        assert 0.25 <= ratio <= 0.40, (n, ratio)
        assert abs(ratio - 1 / lam) < 0.05
    print(f"\nCRITERION 3 PASS: diam P_(n+5) < diam P_n on [5,20]; "
          f"ratios in [0.25,0.40] on [10,20] "
          f"(sample ratio {diam[16]/diam[15]:.5f}, oracle {1/lam:.5f})")


def test_criterion_4_piece_mapping_identity(tail_ctx):
    s = parse_address("0")
    total = 0
    for j in range(2, 11):
        chk = piece_mapping_check(tail_ctx, s, j, samples=18)
        assert chk.n_checked >= 200, (j, chk.n_checked)
        assert chk.n_failed == 0, (j, chk.n_failed)
        assert chk.passed
        total += chk.n_checked
    print(f"\nCRITERION 4 PASS: f^m(P_j) = P_(j-1)(sigma^m s) on 100% of "
          f"{total} valid samples across j in [2,10]")


def test_criterion_5_separation_audit():
    graph = build_ray_graph(M2, 1, 1, depth=40, box=BOX, grid=200)
    cycles = find_cycles(M2, 1, BOX, grid=40).cycles
    sep = interior_fixed_point_audit(graph, cycles)
    assert sep.ok and not sep.poisoned
    interior = [z for pts in sep.regions_to_points.values() for z in pts]
    assert len(interior) == 1
    assert abs(interior[0] - ORACLE_ATTRACTING) < 1e-8

    ms = MapModel(c=SIEGEL_C)
    graph_s = build_ray_graph(ms, 1, 1, depth=40, box=BOX, grid=200)
    cycles_s = find_cycles(ms, 1, BOX, grid=40).cycles
    sep_s = interior_fixed_point_audit(graph_s, cycles_s)
    assert sep_s.ok and not sep_s.poisoned
    interior_s = [z for pts in sep_s.regions_to_points.values() for z in pts]
    assert len(interior_s) == 1
    assert abs(interior_s[0] - SIEGEL_FIX) < 1e-9
    print("\nCRITERION 5 PASS: no basic region holds two interior fixed "
          "points; attracting (c=-2) and Siegel fixed points interior and "
          "alone at grid resolution")


def test_criterion_6_siegel_indifferent_count():
    report = audit(MapModel(c=SIEGEL_C), BOX, 2, 1, depth=40, horizon=1000,
                   grid=40)
    ind = [c for c in report.cycles if c.cls == "indifferent"]
    assert len(ind) == 1
    assert report.n_indifferent == 1
    assert abs(ind[0].points[0] - SIEGEL_FIX) < 1e-10
    assert abs(abs(ind[0].multiplier) - 1.0) < 1e-10
    assert report.verdict == "satisfied"
    assert report.n_indifferent + report.n_invisible_candidates <= report.q_effective
    print(f"\nCRITERION 6 PASS: Siegel fixed point at 2 pi i theta within "
          f"{abs(ind[0].points[0] - SIEGEL_FIX):.2e}; ||lambda|-1| = "
          f"{abs(abs(ind[0].multiplier) - 1.0):.2e}; verdict satisfied (1 <= 1)")


def test_criterion_7_hypothesis_failure_detection():
    m0 = MapModel(c=0)
    fate = singular_escape_status(m0, 10)
    assert fate.kind == "escapes-along-periodic-ray"
    assert fate.address == parse_address("0")
    report = audit(m0, BOX, 2, 1, horizon=10, grid=30)
    assert report.verdict == "not-applicable"
    print("\nCRITERION 7 PASS: c=0 singular orbit escapes along 0-bar within "
          "horizon 10; audit exits not-applicable")


def test_criterion_8_functional_equation_suite():
    rng = random.Random(20260811)
    addresses = random_addresses(rng, 20, window=2, max_period=4)
    tube_worst = 0.0
    chained_worst = 0.0
    naive_worst_valid = 0.0
    eps = 2.22e-16

    for m in (M2, MapModel(c=SIEGEL_C)):
        for s in addresses:
            # tube check at matched potentials: f(G_s(t)) = G_{sigma s}(F(t))
            sa = shift_by(s, 1)
            for t in (0.05, 0.2, 1.0, 3.0, 5.0):
                z = ladder_descend(m, s, t, 60)[0]
                w = ladder_descend(m, sa, math.exp(t) - 1.0, 60)[0]
                d = abs(evaluate(m, z) - w)
                tube_worst = max(tube_worst, d)
                assert d <= 1e-6, (m.c, str(s), t, d)

            # round trip of the pullback, n <= 25 periods
            p = period_of(s)
            zeta = default_seed(m, s)
            seq = pullback_sequence(m, s, zeta, 25 * p)
            chained_worst = max(chained_worst,
                                verify_pullback_roundtrip(m, seq))
            # naive single-shot re-expansion where double precision is
            # conditioning-valid (kappa * 64 eps below the tolerance)
            tol = 1e-8 * max(1.0, abs(zeta))
            kappa = 1.0
            fwd = None
            for n in range(1, 26):
                kappa_n = 1.0
                for w in seq[1:n * p + 1]:
                    kappa_n *= abs(evaluate(m, w) - m.c)
                if kappa_n * 64 * eps > tol:
                    break
                fwd = seq[n * p]
                for _ in range(n * p):
                    fwd = evaluate(m, fwd)
                err = abs(fwd - zeta)
                naive_worst_valid = max(naive_worst_valid, err)
                assert err <= tol, (m.c, str(s), n, err)

    assert chained_worst <= 1e-8
    print(f"\nCRITERION 8 PASS: tube distance worst {tube_worst:.2e} <= 1e-6 "
          f"(20 addresses, both parameters); chained round-trip residual "
          f"worst {chained_worst:.2e}; naive round-trip worst "
          f"{naive_worst_valid:.2e} at conditioning-valid depths")


_AUDIT_JSON = """
import sys
from raycensus.census import audit
from raycensus.exponential import MapModel
box = (-3.0, 3.0, -7.0, 7.0)
cfg = {"c": [-2.0, 0.0], "box": list(box), "max_period": 2, "window": 1}
report = audit(MapModel(c=-2), box, 2, 1, depth=40, grid=40, config=cfg)
sys.stdout.buffer.write(report.to_json().encode())
"""


def test_criterion_9_determinism():
    # the landing table is keyed by address and its periods come from a set:
    # two interpreters with different string and set hash orders must agree
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _AUDIT_JSON], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["verdict"] == "satisfied"
    print("\nCRITERION 9 PASS: audit JSON byte-identical across two "
          "interpreters with PYTHONHASHSEED 1 vs 2")
