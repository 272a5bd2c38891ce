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

#: seeds per numpy batch of find_cycles; bounds the batch's working memory
_SEED_CHUNK = 4096
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


def _fp(c: complex, z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f^p(z), (f^p)'(z), ok) for each entry of z.

    ok is False where an iterate is not finite, or has real part above 600,
    before it is mapped; the values of such entries are meaningless.
    """
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


def _newton_fp(c: complex, z: np.ndarray, p: int,
               max_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton on f^p(z) - z from each entry of z: (z, last step, alive).

    An entry stops after its first step below 1e-15 * max(1, |z|), or after
    max_steps.  It dies (alive False, z kept from before the failed step) on
    an overflow of f^p or where |(f^p)' - 1| < 1e-30.
    """
    z = np.array(z, dtype=complex)
    step = np.zeros(z.shape, dtype=complex)
    alive = np.ones(z.shape, dtype=bool)
    rows = np.arange(z.size)
    for _ in range(max_steps):
        zr = z[rows]
        f, d, ok = _fp(c, zr, p)
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


def _roots(c: complex, z: np.ndarray, p: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton roots of f^p(z) - z from seeds z: (roots, ok).

    ok is True where Newton survived and the residual is within 100 * tol.
    """
    z, _, ok = _newton_fp(c, z, p, 80)
    f, _, finite = _fp(c, z, p)
    ok &= finite & (np.abs(f - z) <= 100.0 * tol * np.maximum(1.0, np.abs(z)))
    return z, ok


def _minimal_period(c: complex, z: np.ndarray, p: int, tol: float) -> np.ndarray:
    """Per entry, the least divisor d of p with f^d(z) within 10 * tol of z."""
    mp = np.full(z.shape, p)
    for d in range(p - 1, 0, -1):  # descending, so the least divisor is set last
        if p % d:
            continue
        f, _, ok = _fp(c, z, d)
        mp[ok & (np.abs(f - z) < 10.0 * tol * np.maximum(1.0, np.abs(z)))] = d
    return mp


def _chunk_roots(c: complex, seeds: np.ndarray, p: int, box: Box,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(periods, orbits) of the seeds whose root's orbit lies in box, in seed order.

    Each root is re-solved at its minimal period; row k of orbits starts at
    the root and is meaningful in its first periods[k] columns.
    """
    z, ok = _roots(c, seeds, p, tol)
    z = z[ok]
    mp = _minimal_period(c, z, p, tol)
    for d in range(1, p + 1):  # not np.unique, which imports numpy.ma (~1 MB)
        at = np.flatnonzero(mp == d)
        zd, ok = _roots(c, z[at], d, tol)
        z[at[ok]] = zd[ok]  # a failed re-solve keeps the root
    # no overflow guard needed: _roots checked every iterate of each root
    orbits = np.empty((len(z), p), dtype=complex)
    orbits[:, 0] = z
    with np.errstate(all="ignore"):
        for j in range(1, p):
            orbits[:, j] = np.exp(orbits[:, j - 1]) + c
    keep = (_in_box(box, orbits) | (np.arange(p) >= mp[:, None])).all(axis=1)
    return mp[keep], orbits[keep]


def _near(z: np.ndarray, pts: np.ndarray, dist: float) -> np.ndarray:
    """Per entry of z, whether some entry of pts lies closer than dist."""
    out = np.zeros(len(z), dtype=bool)
    step = max(1, _PAIR_CAP // max(1, len(pts)))
    for lo in range(0, len(z), step):
        out[lo:lo + step] = (np.abs(z[lo:lo + step, None] - pts) < dist).any(axis=1)
    return out


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
    # every point of the cycles kept, by period.  A root is new unless it
    # lies near one of them: round-off can change which point of a cycle
    # is least, so no single representative point is enough
    kept = {p: np.empty(0, dtype=complex) for p in range(1, max_period + 1)}
    near = 10.0 * max(tol, 1e-12)

    n_seeds = grid * grid
    for p in range(1, max_period + 1):
        for lo in range(0, n_seeds, _SEED_CHUNK):
            i, j = np.divmod(np.arange(lo, min(lo + _SEED_CHUNK, n_seeds)), grid)
            seeds = np.empty(len(i), dtype=complex)
            seeds.real = xlo + (i + 0.5) * (xhi - xlo) / grid
            seeds.imag = ylo + (j + 0.5) * (yhi - ylo) / grid
            periods, orbits = _chunk_roots(m.c, seeds, p, box, tol)
            roots = orbits[:, 0]
            new = np.ones(len(roots), dtype=bool)
            for d in range(1, p + 1):
                at = np.flatnonzero(periods == d)
                new[at] = ~_near(roots[at], kept[d], near)
            for k in np.flatnonzero(new).tolist():
                if not new[k]:  # near a cycle kept earlier in this chunk
                    continue
                mp = int(periods[k])
                # polish every orbit point individually
                polished, ok = _roots(m.c, orbits[k, :mp], mp, tol)
                if not ok.all():
                    continue
                polished = polished.tolist()
                z0 = min(polished, key=lambda w: (w.real, w.imag))
                # polishing can collapse a rough orbit onto a cycle of a
                # dividing period, which that period's pass reports
                if (_minimal_period(m.c, np.array([z0]), mp, tol)[0] != mp
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

    cycles.sort(key=lambda c: (c.period, c.points[0].real, c.points[0].imag))
    return CycleSearch(cycles=cycles)
