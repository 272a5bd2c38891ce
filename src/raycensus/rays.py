"""Dynamic rays by backward iteration: tracing, pullback, landing.

Inverse-branch compositions contract toward periodic points, so the pullback
of a far-out seed along a periodic address converges exactly when the ray
lands (and to the landing point).  All statuses are finite-computation
verdicts: "not-converged" never claims non-landing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .addresses import InfiniteAddress, primitive_words
from .cycles import _newton_fp
from .exponential import (
    ESCAPED,
    OVERFLOW_RE,
    TWO_PI,
    MapModel,
    evaluate,
    forward_orbit,
    fundamental_domain_of,
    inverse_branch,
    is_escaped,
)

#: |z| beyond this is treated as escaped in forward orbits
ESCAPE_THRESHOLD = 1e5

#: ladder potentials are not exponentiated past this height
_LADDER_CAP = 600.0

#: most pullbacks of a ladder seed: ray-graph arcs, and hairs by default
LADDER_DEPTH = 40

DEFAULT_LANDING_TOL = 1e-10  # pullback step of convergence; scale of the landing tests
DEFAULT_MAX_ITER = 10_000

#: relative residual allowed at each step of a recorded pullback chain
ROUNDTRIP_TOL = 1e-8

_EPS = sys.float_info.epsilon


class RoundTripError(ArithmeticError):
    """Pullback failed its internal forward re-expansion check."""


@dataclass
class LandingResult:
    status: str  # landed | not-converged | escaped-pullback | singular-hit
    point: complex | None = None
    psi_derivative: complex | None = None
    multiplier: complex | None = None
    iterations: int = 0
    itinerary_ok: bool | None = None
    detail: str = ""

    @property
    def landed(self) -> bool:
        return self.status == "landed"


def pullback_sequence(m: MapModel, s: InfiniteAddress, zeta: complex,
                      steps: int) -> list[complex]:
    """[zeta, L_{s_{k}}..L_{s_0}-style partial pullbacks] of length steps+1.

    seq[j] = L_{s_{steps-j}} o ... o L_{s_{steps-1}} (zeta), so seq[-1] is the
    full composition L_{s_0} o ... o L_{s_{steps-1}}(zeta).
    """
    seq = [zeta]
    for i in range(steps - 1, -1, -1):
        seq.append(inverse_branch(m, seq[-1], s.entry(i)))
    return seq


def verify_pullback_roundtrip(m: MapModel, seq: list[complex]) -> float:
    """Largest stepwise forward-map residual of a recorded pullback chain.

    For each backward step the forward image must return the previous iterate
    within ROUNDTRIP_TOL * max(1, |previous|); this is the double-precision
    content of f^{nm}(zeta_n) = zeta (the one-shot residual is condition
    limited by prod |f'| and is not asserted here).
    """
    worst = 0.0
    for prev, cur in zip(seq, seq[1:]):
        img = evaluate(m, cur)
        if is_escaped(img):
            raise RoundTripError(f"re-expansion escaped at {cur!r}")
        rel = abs(img - prev) / max(1.0, abs(prev))
        worst = max(worst, rel)
        if rel > ROUNDTRIP_TOL:
            raise RoundTripError(
                f"round-trip residual {rel:.3e} exceeds {ROUNDTRIP_TOL:.1e}")
    return worst


def default_seed(m: MapModel, s: InfiniteAddress) -> complex:
    return complex(m.seed_potential, TWO_PI * s.entry(0))


def _newton_polish(c: complex, w: np.ndarray, p: int) -> np.ndarray:
    """Newton on f^p(z) - z from the pullback limits w, entry by entry.

    An entry keeps its Newton root when Newton converged (last step below
    1e-15 * max(1, |z|)) or its last step is below DEFAULT_LANDING_TOL, and
    the root lies within 1e3 * DEFAULT_LANDING_TOL * max(1, |w|) of w;
    otherwise it keeps w, as Newton failed or drifted away from the
    pullback limit.
    """
    tol = DEFAULT_LANDING_TOL
    z, step, alive = _newton_fp(c, w, p, 30)
    ok = alive & (np.abs(step) < np.maximum(tol, 1e-15 * np.maximum(1.0, np.abs(z))))
    drift = ~ok | (np.abs(z - w) > 1e3 * tol * np.maximum(1.0, np.abs(w)))
    return np.where(drift, w, z)


def landing_point(m: MapModel, s: InfiniteAddress,
                  max_iter: int = DEFAULT_MAX_ITER) -> LandingResult:
    """Landing decision for the purely periodic s: the one-row call into land_periodic."""
    if s.preperiod:
        raise ValueError("landing_point requires a purely periodic address")
    try:
        word = np.array([s.period], dtype=np.int64)
    except OverflowError:
        raise ValueError(f"address entries of {s} do not fit in 64 bits") from None
    return land_periodic(m, word, max_iter).result(0)


def _closure_bound(lam, z0):
    """Largest accepted |f^p(z0) - z0|.

    z0 is known to about eps*|z0|, and f^p multiplies that error by
    |lambda|, so the bound grows with the conditioning of f^p.
    """
    return (np.maximum(10.0 * DEFAULT_LANDING_TOL, 64.0 * _EPS * np.abs(lam))
            * np.maximum(1.0, np.abs(z0)))


# ---------------------------------------------------------------------------
# the landing engine: pullback landing along the address axis

#: status codes of the landing columns
_STATUSES = ("landed", "not-converged", "escaped-pullback", "singular-hit")
_LANDED, _NOT_CONVERGED, _ESCAPED, _SINGULAR_HIT = range(4)

#: detail codes; the first branch-cut event of a batched psi step, per row,
#: is the detail code of its singular hit
_DETAILS = ("", "singular-value", "cut", "limit is not a psi fixed point",
            "forward orbit does not close")
_NO_HIT, _HIT_SINGULAR, _HIT_CUT, _NOT_FIXED, _NOT_CLOSED = range(5)

#: rows landed per land_periodic call by landing_table; bounds the memory
#: of the batch's working arrays
_CHUNK_ROWS = 65_536


@dataclass
class PeriodLandings:
    """Landing results of many periodic addresses, as columns.

    Row i is the address whose period word is words[i].  Objects are built
    only on request, one row at a time, by address(i) and result(i).
    """

    words: np.ndarray  # (N, p) primitive words s_0 ... s_{p-1}
    status: np.ndarray  # int8 index into _STATUSES
    detail: np.ndarray  # int8 index into _DETAILS
    iterations: np.ndarray  # pullback iterations
    points: np.ndarray  # landing points; nan where the ray did not land
    multipliers: np.ndarray  # (f^p)' at the landing point; nan where not landed
    itinerary_ok: np.ndarray  # bool; False where not landed

    @property
    def landed(self) -> np.ndarray:
        return self.status == _LANDED

    def address(self, i: int) -> InfiniteAddress:
        return InfiniteAddress((), tuple(self.words[i].tolist()))

    def result(self, i: int) -> LandingResult:
        """Row i as a LandingResult, the form landing_point returns."""
        iterations = int(self.iterations[i])
        if self.status[i] != _LANDED:
            return LandingResult(_STATUSES[self.status[i]], iterations=iterations,
                                 detail=_DETAILS[self.detail[i]])
        lam = complex(self.multipliers[i])
        return LandingResult("landed", point=complex(self.points[i]),
                             psi_derivative=1.0 / lam, multiplier=lam,
                             iterations=iterations,
                             itinerary_ok=bool(self.itinerary_ok[i]))


#: the PeriodLandings columns with one entry per row
_COLUMNS = ("status", "detail", "iterations", "points", "multipliers", "itinerary_ok")


def _unlanded(words: np.ndarray) -> PeriodLandings:
    """Columns for the rows of words before any is landed: not-converged."""
    n = len(words)
    return PeriodLandings(words, np.full(n, _NOT_CONVERGED, dtype=np.int8),
                          np.zeros(n, dtype=np.int8),
                          np.zeros(n, dtype=np.int32), np.full(n, np.nan, dtype=complex),
                          np.full(n, np.nan, dtype=complex), np.zeros(n, dtype=bool))


def _psi_batch(c: complex, shifts: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi applied to each row of w, and the row's first inverse-branch failure.

    shifts[:, j] holds 2*pi*i*s_j.  Rows that fail keep being computed (as
    inf or nan); only their first failure is recorded.
    """
    hit = np.zeros(len(w), dtype=np.int8)
    for j in range(shifts.shape[1] - 1, -1, -1):
        u = w - c
        off = (u.imag == 0.0) & (u.real <= 0.0)  # at the singular value or on the cut
        if off.any():
            event = np.where(u.real == 0.0, _HIT_SINGULAR, _HIT_CUT)
            hit = np.where(off & (hit == _NO_HIT), event, hit)
        w = np.log(u) + shifts[:, j]
    return w, hit


def land_periodic(m: MapModel, words, max_iter: int = DEFAULT_MAX_ITER) -> PeriodLandings:
    """Pullback-iteration landing decisions for many purely periodic addresses.

    words is an (N, p) integer array whose rows are primitive period words
    s_0 ... s_{p-1}.  Each row iterates its one-period inverse composition
    psi = L_{s_0} o ... o L_{s_{p-1}} from the default seed until a step is
    below DEFAULT_LANDING_TOL (or a branch hits the singular value or the cut, or the
    pullback escapes, or max_iter runs out).  A converged limit is
    Newton-polished on f^p(z) - z and landed when it is a psi fixed point
    whose forward orbit closes within _closure_bound; the row records the
    multiplier (f^p)'(z0) and whether the orbit follows the word's strips.
    All of it runs in numpy along the address axis.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    words = np.asarray(words)
    if words.ndim != 2:
        raise ValueError("words must be an (N, p) array")
    out = _unlanded(words)
    n, p = words.shape
    if n == 0:
        return out
    c = m.c
    shifts = 1j * (TWO_PI * words)
    iters = out.iterations

    def fail(rows, status, detail):
        out.status[rows] = status
        out.detail[rows] = detail

    with np.errstate(all="ignore"):
        limit = np.zeros(n, dtype=complex)
        converged = np.zeros(n, dtype=bool)
        rows, sh = np.arange(n), shifts
        w = m.seed_potential + shifts[:, 0]
        for it in range(1, max_iter + 1):
            w_next, hit = _psi_batch(c, sh, w)
            iters[rows] = it
            hit_rows = hit != _NO_HIT
            fail(rows[hit_rows], _SINGULAR_HIT, hit[hit_rows])
            escaped = ~hit_rows & (np.abs(w_next) > ESCAPE_THRESHOLD)
            fail(rows[escaped], _ESCAPED, _NO_HIT)
            conv = ~hit_rows & ~escaped & (np.abs(w_next - w) < DEFAULT_LANDING_TOL)
            limit[rows[conv]] = w_next[conv]
            converged[rows[conv]] = True
            keep = ~(hit_rows | escaped | conv)
            rows, sh, w = rows[keep], sh[keep], w_next[keep]
            if not rows.size:
                break
        fail(rows, _NOT_CONVERGED, _NO_HIT)

        rows = np.flatnonzero(converged)
        w = limit[rows]
        z0 = _newton_polish(c, w, p)
        psi_z0, hit = _psi_batch(c, shifts[rows], z0)
        hit_rows = hit != _NO_HIT
        fail(rows[hit_rows], _SINGULAR_HIT, hit[hit_rows])
        not_fixed = ~hit_rows & (np.abs(psi_z0 - z0)
                                 >= DEFAULT_LANDING_TOL * np.maximum(1.0, np.abs(z0)))
        fail(rows[not_fixed], _NOT_CONVERGED, _NOT_FIXED)
        keep = ~(hit_rows | not_fixed)
        rows, z0 = rows[keep], z0[keep]

        zj = z0
        lam = np.ones(len(rows), dtype=complex)
        itinerary_ok = np.ones(len(rows), dtype=bool)
        for j in range(p):
            itinerary_ok &= np.rint(zj.imag / TWO_PI) == words[rows, j]
            e = np.exp(zj)
            lam = lam * e
            zj = np.where(np.isfinite(zj) & (zj.real <= OVERFLOW_RE), e + c, ESCAPED)
        closed = np.isfinite(zj) & (np.abs(zj - z0) <= _closure_bound(lam, z0))
        fail(rows[~closed], _NOT_CONVERGED, _NOT_CLOSED)
    rows = rows[closed]
    out.status[rows] = _LANDED
    out.points[rows] = z0[closed]
    out.multipliers[rows] = lam[closed]
    out.itinerary_ok[rows] = itinerary_ok[closed]
    return out


def landing_table(m: MapModel, window: int, periods) -> dict[int, PeriodLandings]:
    """Lands the primitive window words of each period, _CHUNK_ROWS at a time."""
    table: dict[int, PeriodLandings] = {}
    for p in sorted(set(periods)):
        words = primitive_words(window, p)
        table[p] = row = _unlanded(words)
        for lo in range(0, len(words), _CHUNK_ROWS):
            chunk = land_periodic(m, words[lo:lo + _CHUNK_ROWS])
            for name in _COLUMNS:
                getattr(row, name)[lo:lo + _CHUNK_ROWS] = getattr(chunk, name)
    return table


# ---------------------------------------------------------------------------
# tracing

def _ladder_start(t: float, depth: int) -> tuple[float, int]:
    """Height u and pullback count j of the ladder seed of potential t.

    The flow is F(u) = e^u - 1, climbed from t until the cap (or depth);
    truncating at the cap costs O(e^-cap), far below roundoff.  j depends on
    t and depth only, so every address shares it at one potential.
    """
    u = t
    j = 0
    while u <= _LADDER_CAP and j < depth:
        u = math.exp(u) - 1.0
        j += 1
    return u, j


def ladder_descend(m: MapModel, s: InfiniteAddress, t: float,
                   depth: int) -> list[complex]:
    """Pullback chain of the ladder seed at potential t, deepest point first.

    Returns [z, f(z), f^2(z), ...] up to the seed (exact to round-off, since
    the chain is built backwards through the inverse branches); z is the hair
    sample at potential t.
    """
    u, j = _ladder_start(t, depth)
    return pullback_sequence(m, s, complex(u, TWO_PI * s.entry(j)), j)[::-1]


def sweep_hair(m: MapModel, s: InfiniteAddress, depth: int = LADDER_DEPTH,
               t_lo: float = 1e-3, t_hi: float | None = None,
               samples: int = 160) -> list[tuple[float, complex]]:
    """Geometric sweep of the hair: (potential, point) pairs ordered by
    potential.

    Covers the curve from deep pullbacks (t_lo near 0) out to the seed
    height t_hi; f(sample(t)) equals the shifted-address sample at e^t - 1.
    The samples of one ladder depth are pulled back in one _psi_batch pass.
    """
    if t_hi is None:
        t_hi = m.truncation + 10.0
    # a nan fails the comparison, and an infinite ratio would sample inf
    if not (0.0 < t_lo < t_hi and math.isfinite(t_hi / t_lo)):
        raise ValueError(f"need 0 < t_lo < t_hi with t_hi / t_lo finite, got {t_lo!r}:{t_hi!r}")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ratio = (t_hi / t_lo) ** (1.0 / (samples - 1))
    ts = [t_lo * ratio**i for i in range(samples)]
    us, js = map(np.array, zip(*(_ladder_start(t, depth) for t in ts)))
    shifts = 1j * (TWO_PI * np.array([s.entry(i) for i in range(js.max() + 1)]))
    z = np.empty(samples, dtype=complex)
    hit = np.empty(samples, dtype=np.int8)
    with np.errstate(all="ignore"):
        for j in np.unique(js).tolist():
            rows = np.flatnonzero(js == j)
            z[rows], hit[rows] = _psi_batch(m.c, np.broadcast_to(shifts[:j], (rows.size, j)),
                                            us[rows] + shifts[j])
    for i in np.flatnonzero(hit).tolist():
        # the scalar chain raises the hit as SingularValueHit
        z[i] = ladder_descend(m, s, ts[i], depth)[0]
    return list(zip(ts, z.tolist()))


# ---------------------------------------------------------------------------
# singular orbit

@dataclass
class SingularFate:
    kind: str  # escapes-along-periodic-ray | escapes-other | bounded-so-far | enters-D-repeatedly
    address: InfiniteAddress | None
    horizon: int
    max_modulus: float


def _periodic_tail(labels: list[int]) -> tuple[int, ...] | None:
    """Smallest q whose repetition matches the observed label tail."""
    n = len(labels)
    if n < 2:
        return None
    for q in range(1, n // 2 + 1):
        span = max(2 * q, min(n, 4))
        tail = labels[-span:]
        if all(tail[i] == tail[i + q] for i in range(len(tail) - q)):
            return tuple(labels[-q:])
    return None


def singular_escape_status(m: MapModel, horizon: int) -> SingularFate:
    """Finite-horizon fate of the singular orbit c, f(c), f^2(c), ...

    Escape verdicts require monotone moduli past the escape threshold with an
    eventually periodic fundamental-domain label tail; every verdict is a
    statement about the first `horizon` iterates only.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    orbit, out = forward_orbit(m, m.c, horizon, ESCAPE_THRESHOLD)
    escaped = out is not None
    if escaped and not is_escaped(out):
        orbit.append(out)
    max_mod = max(abs(z) for z in orbit)

    if escaped:
        # walk back to the start of the monotone increasing tail
        k = len(orbit) - 1
        while k > 0 and abs(orbit[k]) > abs(orbit[k - 1]):
            k -= 1
        tail = orbit[k:]
        labels = [fundamental_domain_of(m, z) for z in tail]
        known = [lab for lab in labels if lab is not None]
        if len(known) >= 2 and labels[-len(known):] == known:
            word = _periodic_tail(known)
            if word is not None:
                return SingularFate("escapes-along-periodic-ray",
                                    InfiniteAddress((), word), horizon, max_mod)
        return SingularFate("escapes-other", None, horizon, max_mod)

    # bounded at this horizon: look for large excursions that return to D
    reentries = 0
    excursion = False
    for z in orbit:
        if abs(z) > 100.0 * m.R:
            excursion = True
        elif excursion and abs(z) <= m.R:
            reentries += 1
            excursion = False
    if reentries >= 2:
        return SingularFate("enters-D-repeatedly", None, horizon, max_mod)
    return SingularFate("bounded-so-far", None, horizon, max_mod)
