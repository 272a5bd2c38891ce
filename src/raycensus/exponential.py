"""Exponential map family f(z) = e^z + c: geometry, forward map, inverse branches.

The slit plane used for inverse branches is C minus the closed disk D of
radius R and the cut delta = {w : w - c negative real}.  With that cut every
inverse branch is an elementary logarithm

    L_k(w) = Log(w - c) + 2*pi*i*k

and the fundamental domains are labeled by the integer k = round(Im z / 2pi)
inside the tract.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: Re z beyond this is treated as escaped (double exp overflows near e^709).
OVERFLOW_RE = 700.0

#: sentinel for orbits that left double range
ESCAPED = complex(math.inf, math.inf)

#: f(z) this close to the branch cut counts as on it in exact F_k membership
CUT_SNAP = 1e-9


class SingularValueHit(Exception):
    """Inverse branch requested at the singular value or on the branch cut."""

    def __init__(self, w: complex, on_cut: bool = False):
        self.w = w
        self.on_cut = on_cut
        where = "branch cut" if on_cut else "singular value"
        super().__init__(f"inverse branch undefined: {w!r} on {where}")


def is_escaped(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


def _default_radius(c: complex) -> float:
    # D must contain S(f) = {c} and f(0) = 1 + c with margin.
    return max(abs(c) + 2.0, abs(1.0 + c) + 1.0, math.e)


@dataclass(frozen=True)
class MapModel:
    """f(z) = e^z + c with its tract geometry.

    R is the radius of the disk D centered at 0 containing S(f) and f(0).
    """

    c: complex
    R: float = 0.0

    def __post_init__(self):
        for name, value in (("c", self.c), ("R", self.R)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.R <= 0.0:
            object.__setattr__(self, "R", _default_radius(self.c))
        if abs(self.c) >= self.R or abs(1.0 + self.c) >= self.R:
            raise ValueError("R too small: D must contain c and 1 + c")
        if math.log(self.R - abs(self.c)) <= -self.R:
            raise ValueError("R too small: cut curve would meet the tract")

    @property
    def tract_threshold(self) -> float:
        """Re z above this guarantees |f(z)| > R (half-plane tract test)."""
        return math.log(self.R + abs(self.c))

    @property
    def seed_potential(self) -> float:
        """Default backward-iteration seed height t0."""
        return max(50.0, 2.0 * self.R)

    @property
    def truncation(self) -> float:
        """Re beyond which ray arcs are extended horizontally."""
        return max(2.0 * self.R, 100.0)


def _check_tolerance(name: str, value: float):
    """ValueError unless the tolerance is a finite number above 0."""
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def evaluate(m: MapModel, z: complex) -> complex:
    """Forward map e^z + c; escaped sentinel instead of overflow garbage."""
    if is_escaped(z) or z.real > OVERFLOW_RE:
        return ESCAPED
    return cmath.exp(z) + m.c


def forward_orbit(m: MapModel, z: complex, n: int,
                  radius: float) -> tuple[list[complex], complex | None]:
    """(orbit, out): z and its next n iterates, up to the first iterate that
    is escaped or has modulus above radius.

    out is that iterate, which orbit leaves out, or None if there is none.
    Once an iterate repeats an earlier one bit for bit the orbit is periodic,
    and the rest of it is filled in by repetition without calling evaluate.
    """
    orbit, seen = [z], {}  # iterate bits -> index
    while len(orbit) <= n:
        w = evaluate(m, orbit[-1])
        if is_escaped(w) or abs(w) > radius:
            return orbit, w
        i = seen.setdefault(struct.pack("dd", w.real, w.imag), len(orbit))
        if i < len(orbit):
            rest, cycle = n + 1 - len(orbit), orbit[i:]
            orbit += (cycle * (rest // len(cycle) + 1))[:rest]
            break
        orbit.append(w)
    return orbit, None


def singular_values(m: MapModel) -> list[complex]:
    """The exponential family has the single asymptotic value c."""
    return [m.c]


def inverse_branch(m: MapModel, w: complex, k: int) -> complex:
    """L_k(w) = Log(w - c) + 2*pi*i*k.

    Raises SingularValueHit for w = c and for w on the cut, with on_cut set
    (the cut side Im = +pi would otherwise be selected).
    """
    u = w - m.c
    if u == 0.0:
        raise SingularValueHit(w)
    if u.imag == 0.0:
        if u.real < 0.0:
            raise SingularValueHit(w, on_cut=True)
        u = complex(u.real, 0.0)  # normalize -0.0 so the +pi side is taken
    return cmath.log(u) + complex(0.0, TWO_PI * k)


def strip_of(z: complex) -> int:
    """Index of the horizontal strip Im in (2pi k - pi, 2pi k + pi]."""
    return round(z.imag / TWO_PI)


def fundamental_domain_of(m: MapModel, z: complex) -> int | None:
    """Label k of the fundamental domain containing z, or None.

    Uses the sufficient half-plane test Re z > ln(R + |c|), which guarantees
    |f(z)| > R; exact membership is only needed by the tails module.
    """
    if is_escaped(z):
        return None
    if z.real > m.tract_threshold:
        return strip_of(z)
    return None


def in_fundamental_domain_exact(m: MapModel, z: complex, k: int,
                                radius: float | None = None) -> bool:
    """Exact membership z in F_k for the slit plane at `radius` (default R).

    z in F_k iff f(z) lies outside the closed disk of that radius, off the
    cut, and z sits in strip k.
    """
    r = m.R if radius is None else radius
    if is_escaped(z) or strip_of(z) != k:
        return False
    w = evaluate(m, z)
    if is_escaped(w):
        return True  # |f(z)| enormous, certainly > r; strip already checked
    if abs(w) <= r:
        return False
    u = w - m.c
    if u.real < 0.0 and abs(u.imag) <= CUT_SNAP:
        return False  # on (or snapped to) the cut
    return True
