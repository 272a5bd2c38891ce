"""Shift space of fundamental-domain labels.

Addresses are eventually periodic integer sequences in canonical form:
the period is primitive (not a power of a shorter word) and the preperiod
is minimal (trailing entries matching the period are absorbed by rotation),
which makes the representation unique and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AddressParseError(ValueError):
    pass


def _primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[d:] + word[:d]:
            return word[:d]
    return word


@dataclass(frozen=True)
class InfiniteAddress:
    """Eventually periodic address: preperiod then period repeated forever."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        pre = tuple(self.preperiod)
        per = _primitive_root(tuple(self.period))
        # absorb trailing preperiod entries into the cycle
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    # -- basic access ------------------------------------------------------
    def entry(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.entry(i) for i in range(n))

    @property
    def max_abs_entry(self) -> int:
        return max(map(abs, self.preperiod + self.period))

    # -- textual form: "pre:period", comma separated -----------------------
    def __str__(self) -> str:
        per = ",".join(str(k) for k in self.period)
        if not self.preperiod:
            return per
        pre = ",".join(str(k) for k in self.preperiod)
        return f"{pre}:{per}"

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"InfiniteAddress({self})"


def parse_address(text: str) -> InfiniteAddress:
    """Parse the CLI address syntax, e.g. "0", "0,1", "3:0,1"."""

    def ints(part: str, what: str) -> tuple[int, ...]:
        items = part.split(",")
        out = []
        for item in items:
            item = item.strip()
            if not item:
                raise AddressParseError(f"empty entry in {what}: {text!r}")
            try:
                out.append(int(item))
            except ValueError:
                raise AddressParseError(f"bad integer {item!r} in {text!r}") from None
        return tuple(out)

    text = text.strip()
    if not text:
        raise AddressParseError("empty address")
    if text.count(":") > 1:
        raise AddressParseError(f"more than one ':' in {text!r}")
    if ":" in text:
        pre_part, per_part = text.split(":")
        pre = ints(pre_part, "preperiod") if pre_part else ()
        return InfiniteAddress(pre, ints(per_part, "period"))
    return InfiniteAddress((), ints(text, "period"))


def shift(s: InfiniteAddress) -> InfiniteAddress:
    """Drop the first entry (sigma)."""
    if s.preperiod:
        return InfiniteAddress(s.preperiod[1:], s.period)
    return InfiniteAddress((), s.period[1:] + s.period[:1])


def shift_by(s: InfiniteAddress, n: int) -> InfiniteAddress:
    for _ in range(n):
        s = shift(s)
    return s


def project(s: InfiniteAddress, n: int, m: int) -> tuple[int, ...]:
    """First ell_n = m(n-1)+1 entries (finite tail address of level n)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return s.prefix(m * (n - 1) + 1)


def period_of(s: InfiniteAddress) -> int:
    """Minimal p with sigma^p(s) = s, or 0 if s is not shift-fixed."""
    if s.preperiod:
        return 0
    return len(s.period)


def primitive_words(window: int, p: int) -> np.ndarray:
    """The primitive words of length p with entries in [-K, K], one per row.

    Rows are in lexicographic order: the base-(2K+1) digits of
    0 ... (2K+1)^p - 1, less the rows that equal a rotation of themselves
    by a proper divisor of p.  The array is int8 while the window fits.
    """
    if window < 0 or p < 1:
        raise ValueError("window must be >= 0 and p >= 1")
    base = 2 * window + 1
    codes = np.arange(base**p, dtype=np.int64)
    words = np.empty((len(codes), p), dtype=np.int8 if window < 128 else np.int64)
    for j in range(p - 1, -1, -1):
        codes, digit = np.divmod(codes, base)
        words[:, j] = digit - window
    keep = np.ones(len(words), dtype=bool)
    for d in range(1, p):
        if p % d == 0:
            keep &= ~np.all(words == np.roll(words, d, axis=1), axis=1)
    return words[keep]


def enumerate_periodic(window: int, p: int) -> list[InfiniteAddress]:
    """All canonical periodic addresses of period dividing p, entries in [-K, K].

    Words of length p biject with these addresses ((2K+1)^p of them);
    cyclic rotations are distinct addresses.  They come by primitive
    period, then lexicographically.
    """
    if window < 0 or p < 1:
        raise ValueError("window must be >= 0 and p >= 1")
    return [InfiniteAddress((), tuple(word))
            for d in range(1, p + 1) if p % d == 0
            for word in primitive_words(window, d).tolist()]
