"""Sparse l1 sequence arithmetic with certified tail bounds.

The ambient space is l1 over the nonnegative integers: the norm is additive
on the positive cone, so the total-mass functional (sum of coordinates)
coincides with the norm there.  Truncation of an infinite sequence is made
rigorous by carrying an explicit upper bound on the l1 mass of every
coordinate that was dropped; quantities derived from a truncated sequence
are then reported as intervals (`Bracket`) instead of bare floats.

All values are immutable and every operation is a pure function, so the
types are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "Bracket",
    "PosSeq",
    "SignedSeq",
    "mass",
    "pair_psi",
    "leq",
    "axpy",
    "FLUSH_THRESHOLD",
]

# Entries smaller than this are folded into the tail bound to avoid
# denormal drift.
FLUSH_THRESHOLD = 1e-300


@dataclass(frozen=True)
class Bracket:
    """Certified interval [lo, hi] containing an exact quantity."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("Bracket endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"Bracket requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Bracket") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lo - other.hi, self.hi - other.lo)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo:.12g}, {self.hi:.12g}]"


def _canonical_entries(entries: Mapping[int, float]) -> tuple[dict[int, float], float]:
    """Validate entries, flushing sub-threshold values into a tail credit."""
    clean: dict[int, float] = {}
    flushed = 0.0
    for k, v in entries.items():
        kk = int(k)
        if kk < 0:
            raise ValueError(f"negative index {k} not allowed")
        fv = float(v)
        if math.isnan(fv) or math.isinf(fv):
            raise ValueError(f"entry at {k} is not finite: {v}")
        if fv < 0.0:
            raise ValueError(f"entry at {k} is negative: {v}")
        if fv == 0.0:
            continue
        if fv < FLUSH_THRESHOLD:
            flushed += fv
            continue
        clean[kk] = fv
    return clean, flushed


@dataclass(frozen=True)
class PosSeq:
    """Finitely supported nonnegative sequence with a certified tail bound.

    ``entries`` maps index -> strictly positive value; ``tail_bound`` is an
    upper bound on the l1 mass of all truncated-away coordinates, so the
    exact mass lies in [sum(entries), sum(entries) + tail_bound].
    """

    entries: dict[int, float] = field(default_factory=dict)
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        clean, flushed = _canonical_entries(self.entries)
        tb = float(self.tail_bound) + flushed
        if math.isnan(tb) or tb < 0.0:
            raise ValueError(f"tail_bound must be >= 0, got {self.tail_bound}")
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "tail_bound", tb)

    @staticmethod
    def zero() -> "PosSeq":
        return PosSeq({}, 0.0)

    @staticmethod
    def basis(k: int, weight: float = 1.0) -> "PosSeq":
        return PosSeq({k: weight}, 0.0)

    @staticmethod
    def from_array(arr: np.ndarray, offset: int = 0) -> "PosSeq":
        """The nonzero entries of a dense window, entry i stored at offset + i."""
        nz = np.nonzero(arr)[0]
        return PosSeq({offset + int(i): float(arr[i]) for i in nz}, 0.0)

    def get(self, k: int) -> float:
        return self.entries.get(k, 0.0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    @property
    def is_zero(self) -> bool:
        return not self.entries and self.tail_bound == 0.0

    def head_sum(self) -> float:
        """Exact sum of the stored entries (lower edge of the mass bracket)."""
        return math.fsum(self.entries.values())


def mass(u: PosSeq) -> Bracket:
    """Total mass of ``u`` as a certified interval; equals the norm on the cone."""
    s = u.head_sum()
    return Bracket(s, s + u.tail_bound)


def leq(u: PosSeq, v: PosSeq) -> bool | None:
    """Certified entrywise order test: True, False, or None (= unknown).

    ``None`` is returned when a positive tail bound prevents a certified
    answer in either direction.
    """
    # Certified violation: some coordinate of u exceeds everything v could
    # hold there (v's value is exact on its support; elsewhere at most its
    # whole tail bound).
    for k, uk in u.entries.items():
        vk_max = v.entries.get(k, v.tail_bound)
        if uk > vk_max:
            return False
    # Certified domination requires u to have no hidden mass.
    if u.tail_bound == 0.0:
        if all(uk <= v.entries.get(k, 0.0) for k, uk in u.entries.items()):
            return True
        return None
    return None


def axpy(alpha: float, u: PosSeq, v: PosSeq) -> PosSeq:
    """alpha*u + v for alpha >= 0, with linear tail propagation."""
    if alpha < 0:
        raise ValueError("axpy expects alpha >= 0; use SignedSeq arithmetic for signed work")
    if alpha == 0:
        return v
    acc = dict(v.entries)
    for k, uk in u.entries.items():
        acc[k] = acc.get(k, 0.0) + alpha * uk
    return PosSeq(acc, alpha * u.tail_bound + v.tail_bound)


@dataclass(frozen=True)
class SignedSeq:
    """Difference of two cone elements, kept with disjoint supports.

    In l1 the decomposition u = plus - minus with disjoint supports is the
    minimal one, so no inflation constant enters any estimate.  Tail bounds
    never cancel: they stay attached to their side.
    """

    plus: PosSeq
    minus: PosSeq

    def __post_init__(self) -> None:
        common = set(self.plus.entries) & set(self.minus.entries)
        if not common:
            return
        p = dict(self.plus.entries)
        m = dict(self.minus.entries)
        for k in common:
            net = p[k] - m[k]
            del p[k], m[k]
            if net > 0:
                p[k] = net
            elif net < 0:
                m[k] = -net
        object.__setattr__(self, "plus", PosSeq(p, self.plus.tail_bound))
        object.__setattr__(self, "minus", PosSeq(m, self.minus.tail_bound))

    def get(self, k: int) -> float:
        return self.plus.get(k) - self.minus.get(k)


def pair_psi(u: SignedSeq) -> Bracket:
    """Pairing of ``u`` with the mass functional, by interval arithmetic."""
    return mass(u.plus) - mass(u.minus)
