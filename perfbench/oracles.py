"""Independent oracles for checking pipeline output.

Nothing here imports raycensus.  Each value is recomputed with cmath from
the definitions: f(z) = e^z + c, and the inverse branches
L_k(w) = Log(w - c) + 2*pi*i*k whose compositions pull rays back.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi


class OracleError(ArithmeticError):
    """An oracle could not produce its value for this input."""


def attracting_fixed_point(c: complex) -> complex:
    """The fixed point of e^z + c that attracts the singular value c.

    Follows the orbit of c, then polishes with Newton on e^z + c - z.
    """
    z = c
    try:
        for _ in range(500):
            z = cmath.exp(z) + c
        for _ in range(50):
            e = cmath.exp(z)
            step = (e + c - z) / (e - 1.0)
            z -= step
            if abs(step) <= 1e-16 * max(1.0, abs(z)):
                break
        e = cmath.exp(z)
    except (OverflowError, ZeroDivisionError) as exc:
        raise OracleError(f"no attracting fixed point for c={c!r}: {exc}") from None
    if abs(e) >= 1.0 or abs(e + c - z) > 1e-14 * max(1.0, abs(z)):
        raise OracleError(f"no attracting fixed point for c={c!r}")
    return z


def _psi(c: complex, word: tuple[int, ...], z: complex) -> tuple[complex, complex]:
    """psi(z) = L_{word[0]} o ... o L_{word[-1]}(z) and psi'(z)."""
    d = complex(1.0, 0.0)
    for k in reversed(word):
        u = z - c
        d /= u
        z = cmath.log(u) + complex(0.0, TWO_PI * k)
    return z, d


def ray_landing_point(c: complex, word: tuple[int, ...]) -> complex:
    """Landing point of the periodic ray with period `word`: Newton on psi(z) - z.

    psi contracts towards the landing point, so a few pullbacks of a point far
    out in strip word[0] bring Newton into its basin.
    """
    z = complex(60.0, TWO_PI * word[0])
    try:
        for _ in range(40):
            z, _ = _psi(c, word, z)
        for _ in range(60):
            v, d = _psi(c, word, z)
            step = (v - z) / (d - 1.0)
            z -= step
            if abs(step) <= 1e-15 * max(1.0, abs(z)):
                return z
    except (ValueError, ZeroDivisionError) as exc:
        raise OracleError(f"psi Newton failed for {word}: {exc}") from None
    raise OracleError(f"psi Newton did not converge for {word}")

