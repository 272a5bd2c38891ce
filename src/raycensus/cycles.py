"""Periodic orbits by Newton search over seed grids, with stability classes.

Cremer/Siegel/parabolic cannot be separated numerically; indifferent cycles
are reported with a rotation-number estimate and parabolic is only ever
"suspected" (lambda^k near 1 for small k).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exponential import MapModel, _check_tolerance

Box = tuple[float, float, float, float]  # (re_lo, re_hi, im_lo, im_hi)

DEFAULT_TOL = 1e-12
DEFAULT_TOL_BAND = 1e-6
_PARABOLIC_MAX_K = 64

#: (period, seed) rows per numpy batch of find_cycles; bounds the batch's
#: working memory.  The grid-40, period-3 search (4,800 rows) is one batch
_SEED_CHUNK = 8192
#: point pairs per numpy comparison of find_cycles' duplicate test
_PAIR_CAP = 65_536


def _check_box(box: Box):
    """Rejects a box with a bound that is not finite, or with no interior."""
    xlo, xhi, ylo, yhi = box
    if not all(map(math.isfinite, box)):
        raise ValueError("box bounds must be finite")
    if not (xlo < xhi and ylo < yhi):
        raise ValueError("empty box")


def _in_box(box: Box, z):
    """Whether z lies in the closed box, elementwise for numpy arrays."""
    xlo, xhi, ylo, yhi = box
    return (xlo <= z.real) & (z.real <= xhi) & (ylo <= z.imag) & (z.imag <= yhi)


@dataclass(frozen=True)
class Cycle:
    points: tuple[complex, ...]
    period: int
    multiplier: complex
    cls: str  # attracting | superattracting | repelling | indifferent | parabolic-suspected
    rotation: float | None = None  # arg(lambda)/2pi when indifferent

    @property
    def is_repelling(self) -> bool:
        return self.cls == "repelling"

    @property
    def is_attracting(self) -> bool:
        return self.cls in ("attracting", "superattracting")

    def to_json_dict(self) -> dict:
        d = {
            "period": self.period,
            "points": [[z.real, z.imag] for z in self.points],
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "class": self.cls,
        }
        if self.rotation is not None:
            d["rotation"] = self.rotation
        return d


def _check_tol_band(tol_band: float):
    if not 0.0 <= tol_band < 1.0:
        raise ValueError("tol_band must be >= 0 and < 1")


def classify(lam: complex, tol_band: float = DEFAULT_TOL_BAND) -> tuple[str, float | None]:
    """|lambda|-based stability class; returns (class, rotation estimate)."""
    _check_tol_band(tol_band)
    r = abs(lam)
    if r < 1.0 - tol_band:
        return ("superattracting", None) if lam == 0 else ("attracting", None)
    if r > 1.0 + tol_band:
        return "repelling", None
    for k in range(1, _PARABOLIC_MAX_K + 1):
        if abs(lam**k - 1.0) <= tol_band:
            return "parabolic-suspected", None
    rho = cmath.phase(lam) / (2.0 * math.pi)
    return "indifferent", rho % 1.0


def _fp(c: complex, z: np.ndarray, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f^p(z), (f^p)'(z), ok) for each entry of z.

    p is an int, or one period per entry in ascending order.  ok is False
    where an iterate is not finite, or has real part above 600, before it is
    mapped; the values of such entries are meaningless.
    """
    with np.errstate(all="ignore"):
        return _iterate(c, z, _starts(np.full(z.shape, p)))


def _starts(p: np.ndarray) -> list[int]:
    """For each step k >= 1 of f^p, the first entry that takes it (p ascending)."""
    return np.searchsorted(p, np.arange(1, p[-1] if p.size else 1), side="right").tolist()


def _iterate(c: complex, z: np.ndarray, starts: list[int]):
    """_fp without its error state; step k >= 1 maps the entries from starts[k - 1] on."""
    # a finite iterate with Re <= 600 maps to a finite one; products stay out
    # of place, as numpy rounds in-place ones of one-entry arrays differently
    ok = np.isfinite(z) & (z.real <= 600.0)
    d = np.exp(z)
    w = d + c
    for s in starts:
        ok[s:] &= w[s:].real <= 600.0
        e = np.exp(w[s:])
        d[s:] = d[s:] * e
        w[s:] = e + c
    return w, d, ok


def _newton_fp(c: complex, z: np.ndarray, p,
               max_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton on f^p(z) - z from each entry of z: (z, last step, alive).

    An entry stops after its first step below 1e-15 * max(1, |z|), or after
    max_steps.  It dies (alive False, z kept from before the failed step) on
    an overflow of f^p or where |(f^p)' - 1| < 1e-30.  p is as in _fp.
    """
    z = np.array(z, dtype=complex)
    step = np.zeros(z.shape, dtype=complex)
    alive = np.ones(z.shape, dtype=bool)
    rows, zr, sr, p = np.arange(z.size), z, step, np.full(z.shape, p)
    starts = _starts(p)
    with np.errstate(all="ignore"):
        for _ in range(max_steps):
            f, d, ok = _iterate(c, zr, starts)
            gp = d - 1.0
            ok &= ~(np.abs(gp) < 1e-30)
            st = (f - zr) / gp
            zn = zr - st
            go = ok & ~(np.abs(st) < 1e-15 * np.maximum(1.0, np.abs(zn)))
            if not go.all():  # an entry stops or dies: store every entry, keep the live
                z[rows], step[rows] = np.where(ok, zn, zr), np.where(ok, st, sr)
                alive[rows[~ok]] = False
                rows, zn, st = rows[go], zn[go], st[go]
                p = p[go]
                starts = _starts(p)
            zr, sr = zn, st
            if not rows.size:
                break
    z[rows], step[rows] = zr, sr
    return z, step, alive


def _roots(c: complex, z: np.ndarray, p, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton roots of f^p(z) - z from seeds z: (roots, ok).

    ok is True where Newton survived and the residual is within 100 * tol.
    """
    z, _, ok = _newton_fp(c, z, p, 80)
    f, _, finite = _fp(c, z, p)
    ok &= finite & (np.abs(f - z) <= 100.0 * tol * np.maximum(1.0, np.abs(z)))
    return z, ok


def _minimal_period(c: complex, z: np.ndarray, p, tol: float) -> np.ndarray:
    """Per entry, the least divisor d of p (as in _fp) with f^d(z) within 10 * tol of z."""
    p = np.full(z.shape, p)
    mp = p.copy()
    for d in range(np.max(p, initial=1) - 1, 0, -1):  # the least divisor is set last
        at = np.flatnonzero((p % d == 0) & (p > d))
        f, _, ok = _fp(c, z[at], d)
        mp[at[ok & (np.abs(f - z[at]) < 10.0 * tol * np.maximum(1.0, np.abs(z[at])))]] = d
    return mp


def _first_of_each(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Ascending rows that hold the first of each bit-identical (z, p) pair.

    Keyed on bits, so 0.0 and -0.0 stay apart, as they do for _fp.
    """
    keys = (z.imag.view(np.int64), z.real.view(np.int64), p)
    at = np.lexsort(keys)  # stable: each group keeps its row order
    first = np.zeros(len(at), dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[at[1:]] != key[at[:-1]]
    return np.sort(at[first])


def _chunk_roots(c: complex, seeds: np.ndarray, p: np.ndarray, box: Box,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(periods, orbits) of the seeds whose root's orbit lies in box, in seed order.

    p holds each seed's period in ascending order.  Each root is re-solved at
    its minimal period; row k of orbits starts at the root and is
    meaningful in its first periods[k] columns.
    """
    z, ok = _roots(c, seeds, p, tol)
    z, p = z[ok], p[ok]
    # a root found from several seeds has one fate: keep its first row
    at = _first_of_each(z, p)
    z, p = z[at], p[at]
    mp = _minimal_period(c, z, p, tol)
    at = np.argsort(mp, kind="stable")
    zd, ok = _roots(c, z[at], mp[at], tol)
    z[at[ok]] = zd[ok]  # a failed re-solve keeps the root
    # no overflow guard needed: _roots checked every iterate of each root
    width = np.max(p, initial=1)
    orbits = np.empty((len(z), width), dtype=complex)
    orbits[:, 0] = z
    with np.errstate(all="ignore"):
        for j in range(1, width):
            orbits[:, j] = np.exp(orbits[:, j - 1]) + c
    keep = (_in_box(box, orbits) | (np.arange(width) >= mp[:, None])).all(axis=1)
    return mp[keep], orbits[keep]


def _near(z: np.ndarray, pts: np.ndarray, dist: float) -> np.ndarray:
    """Per entry of z, whether some entry of pts lies closer than dist."""
    out = np.zeros(len(z), dtype=bool)
    step = max(1, _PAIR_CAP // max(1, len(pts)))
    for lo in range(0, len(z), step):
        out[lo:lo + step] = (np.abs(z[lo:lo + step, None] - pts) < dist).any(axis=1)
    return out


def _search(c: complex, seeds: np.ndarray, p: np.ndarray, box: Box, tol: float,
            tol_band: float, kept: dict[int, np.ndarray]) -> list[Cycle]:
    """The new cycles through the Newton roots from seeds at periods p (ascending).

    kept holds every point of the cycles found so far, by period, for each
    period up to the largest of p; a root near one of them is not new, and
    the points of each new cycle are added.  Round-off can change which
    point of a cycle is least, so no single representative point is enough.
    """
    near = 10.0 * max(tol, 1e-12)
    periods, orbits = _chunk_roots(c, seeds, p, box, tol)
    roots = orbits[:, 0]
    new = np.ones(len(roots), dtype=bool)
    for d, pts in kept.items():
        at = np.flatnonzero(periods == d)
        new[at] = ~_near(roots[at], pts, near)
    # polish every orbit point of every candidate row in one batch, the
    # rows by ascending period; row k's points start at start[k]
    cand = np.flatnonzero(new)
    cand = cand[np.argsort(periods[cand], kind="stable")]
    pp = periods[cand]
    cols = np.arange(orbits.shape[1])
    polish, polish_ok = _roots(c, orbits[cand][cols < pp[:, None]], np.repeat(pp, pp), tol)
    start = np.zeros(len(roots), dtype=int)
    start[cand] = np.cumsum(pp) - pp
    cycles: list[Cycle] = []
    k = -1  # new turns False at rows near a cycle kept earlier in this batch
    while (ahead := np.flatnonzero(new[k + 1:])).size:
        k += 1 + int(ahead[0])
        mp = int(periods[k])
        at = slice(start[k], start[k] + mp)
        if not polish_ok[at].all():
            continue
        polished = polish[at].tolist()
        z0 = min(polished, key=lambda w: (w.real, w.imag))
        # polishing can collapse a rough orbit onto a cycle of a
        # dividing period, which that period's pass reports
        if (_minimal_period(c, np.array([z0]), mp, tol)[0] != mp
                or _near(np.array([z0]), kept[mp], near)[0]):
            continue
        k0 = polished.index(z0)
        pts = tuple(polished[(k0 + t) % mp] for t in range(mp))
        lam = complex(1.0, 0.0)
        for w in pts:
            lam *= cmath.exp(w)
        cls, rho = classify(lam, tol_band)
        cycles.append(Cycle(pts, mp, lam, cls, rho))
        kept[mp] = np.append(kept[mp], pts)
        new[k + 1:] &= ((periods[k + 1:] != mp)
                        | ~_near(roots[k + 1:], np.array(pts), near))
    return cycles


@dataclass
class CycleSearch:
    cycles: list[Cycle]


def find_cycles(m: MapModel, max_period: int, box: Box, grid: int = 40,
                tol: float = DEFAULT_TOL, tol_band: float = DEFAULT_TOL_BAND) -> CycleSearch:
    """Newton search for all cycles of period <= max_period inside `box`.

    Only cycles whose entire orbit lies in the box are kept (completeness is
    box-relative).  Output is sorted by (period, Re z0, Im z0) with z0 the
    lexicographically least cycle point, so results are deterministic.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    _check_tolerance("tol", tol)
    _check_tol_band(tol_band)
    _check_box(box)
    xlo, xhi, ylo, yhi = box

    cycles: list[Cycle] = []
    kept = {p: np.empty(0, dtype=complex) for p in range(1, max_period + 1)}
    n_seeds, n_rows = grid * grid, max_period * grid * grid
    for lo in range(0, n_rows, _SEED_CHUNK):
        # rows in (period, seed) order, so kept grows as with one batch per period
        p, cell = np.divmod(np.arange(lo, min(lo + _SEED_CHUNK, n_rows)), n_seeds)
        i, j = np.divmod(cell, grid)
        seeds = np.empty(len(i), dtype=complex)
        seeds.real = xlo + (i + 0.5) * (xhi - xlo) / grid
        seeds.imag = ylo + (j + 0.5) * (yhi - ylo) / grid
        cycles += _search(m.c, seeds, p + 1, box, tol, tol_band, kept)

    cycles.sort(key=lambda c: (c.period, c.points[0].real, c.points[0].imag))
    return CycleSearch(cycles=cycles)


def cycle_through(m: MapModel, z: complex, p: int, box: Box) -> Cycle | None:
    """The cycle that find_cycles' Newton path finds from the one seed z at period p.

    None when Newton from z fails, or the cycle's orbit leaves the box, or
    its polish fails.  The cycle's period is the least that z repeats at.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    _check_box(box)
    kept = {d: np.empty(0, dtype=complex) for d in range(1, p + 1)}
    found = _search(m.c, np.array([z], dtype=complex), np.array([p]), box,
                    DEFAULT_TOL, DEFAULT_TOL_BAND, kept)
    return found[0] if found else None
