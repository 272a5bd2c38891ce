"""Periodic orbits by Newton search over seed grids, with stability classes.

Cremer/Siegel/parabolic cannot be separated numerically; indifferent cycles
are reported with a rotation-number estimate and parabolic is only ever
"suspected" (lambda^k near 1 for small k).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .exponential import MapModel, evaluate, is_escaped

Box = tuple[float, float, float, float]  # (re_lo, re_hi, im_lo, im_hi)

DEFAULT_TOL = 1e-12
DEFAULT_TOL_BAND = 1e-6
_PARABOLIC_MAX_K = 64


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


def _orbit(m: MapModel, z: complex, p: int) -> list[complex] | None:
    pts = [z]
    for _ in range(p - 1):
        w = evaluate(m, pts[-1])
        if is_escaped(w):
            return None
        pts.append(w)
    return pts


def _fp_and_derivative(m: MapModel, z: complex, p: int) -> tuple[complex, complex] | None:
    """(f^p(z), (f^p)'(z)) or None on overflow."""
    w = z
    d = complex(1.0, 0.0)
    for _ in range(p):
        if w.real > 600.0 or is_escaped(w):
            return None
        e = cmath.exp(w)
        d *= e
        w = e + m.c
    return w, d


def _newton_steps(m: MapModel, z: complex, p: int,
                  max_steps: int) -> tuple[complex, complex] | None:
    """Newton on f^p(z) - z: (z, last step), or None on overflow or (f^p)' = 1.

    Stops after the first step below 1e-15 * max(1, |z|), or after max_steps.
    """
    for _ in range(max_steps):
        res = _fp_and_derivative(m, z, p)
        if res is None:
            return None
        g = res[0] - z
        gp = res[1] - 1.0
        if abs(gp) < 1e-30:
            return None
        step = g / gp
        z = z - step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z, step


def _newton(m: MapModel, z: complex, p: int, tol: float) -> complex | None:
    """Newton root of f^p(z) - z whose residual is within 100 * tol."""
    res = _newton_steps(m, z, p, 80)
    if res is None:
        return None
    z = res[0]
    res = _fp_and_derivative(m, z, p)
    if res is None or abs(res[0] - z) > 100.0 * tol * max(1.0, abs(z)):
        return None
    return z


def _minimal_period(m: MapModel, z: complex, p: int, tol: float) -> int:
    for d in range(1, p):
        if p % d:
            continue
        res = _fp_and_derivative(m, z, d)
        if res is not None and abs(res[0] - z) < 10.0 * tol * max(1.0, abs(z)):
            return d
    return p


def _in_box(z: complex, box: Box) -> bool:
    return box[0] <= z.real <= box[1] and box[2] <= z.imag <= box[3]


@dataclass
class CycleSearch:
    cycles: list[Cycle]
    warnings: list[str]


def find_cycles(m: MapModel, max_period: int, box: Box, grid: int = 40,
                tol: float = DEFAULT_TOL, tol_band: float = DEFAULT_TOL_BAND,
                verify_coverage: bool = False) -> CycleSearch:
    """Newton search for all cycles of period <= max_period inside `box`.

    Only cycles whose entire orbit lies in the box are kept (completeness is
    box-relative).  Output is sorted by (period, Re z0, Im z0) with z0 the
    lexicographically least cycle point, so results are deterministic.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    _check_tol_band(tol_band)
    xlo, xhi, ylo, yhi = box
    if not (xlo < xhi and ylo < yhi):
        raise ValueError("empty box")

    cycles: list[Cycle] = []
    reps: list[tuple[int, complex]] = []  # (period, z0) for dedup
    known_roots: list[complex] = []

    def already_found(period: int, z0: complex) -> bool:
        return any(p == period and abs(z0 - r) < 10.0 * max(tol, 1e-12)
                   for p, r in reps)

    for p in range(1, max_period + 1):
        for i in range(grid):
            for j in range(grid):
                seed = complex(xlo + (i + 0.5) * (xhi - xlo) / grid,
                               ylo + (j + 0.5) * (yhi - ylo) / grid)
                if any(abs(seed - r) < 1e-3 for r in known_roots):
                    continue
                z = _newton(m, seed, p, tol)
                if z is None:
                    continue
                mp = _minimal_period(m, z, p, tol)
                z = _newton(m, z, mp, tol) or z
                orbit = _orbit(m, z, mp)
                if orbit is None or not all(_in_box(w, box) for w in orbit):
                    continue
                z0 = min(orbit, key=lambda w: (w.real, w.imag))
                if already_found(mp, z0):
                    continue
                # polish every orbit point individually
                polished = []
                ok = True
                for w in orbit:
                    pw = _newton(m, w, mp, tol)
                    if pw is None:
                        ok = False
                        break
                    polished.append(pw)
                if not ok:
                    continue
                z0 = min(polished, key=lambda w: (w.real, w.imag))
                # polishing can collapse a rough orbit onto a cycle of a
                # dividing period, which that period's pass reports
                if _minimal_period(m, z0, mp, tol) != mp or already_found(mp, z0):
                    continue
                k0 = polished.index(z0)
                pts = tuple(polished[(k0 + t) % mp] for t in range(mp))
                lam = complex(1.0, 0.0)
                for w in pts:
                    lam *= cmath.exp(w)
                cls, rho = classify(lam, tol_band)
                cycles.append(Cycle(pts, mp, lam, cls, rho))
                reps.append((mp, z0))
                known_roots.append(z)

    cycles.sort(key=lambda c: (c.period, c.points[0].real, c.points[0].imag))
    warnings: list[str] = []
    if verify_coverage and grid >= 2:
        coarse = find_cycles(m, max_period, box, grid=grid // 2, tol=tol,
                             tol_band=tol_band, verify_coverage=False)
        if len(cycles) < len(coarse.cycles):
            warnings.append(
                f"coverage: {len(cycles)} cycles at grid {grid} but "
                f"{len(coarse.cycles)} at grid {grid // 2}")
    return CycleSearch(cycles=cycles, warnings=warnings)
