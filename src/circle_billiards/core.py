"""Rotation parameters of rational circular billiards.

A point bouncing inside a circle advances by a fixed angle between
consecutive reflections.  When that angle is (p/q) * 2*pi with gcd(p, q) = 1
the orbit closes after q chords and p turns around the circle; the traced
figure is the star polygon {q/p}.  Every other module takes the validated
pair (p, q) from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

# Region totals grow like p*q + 1; this guard keeps denominators in a range
# where every count is cheap exact integer arithmetic.
MAX_Q = 10**6


class ParameterError(ValueError):
    """An input outside the supported range."""


@dataclass(frozen=True)
class RotationParameter:
    """Reduced rotation fraction p/q.

    m and r are derived from the pair: they split the denominator as
    q = m*p + r with 0 <= r < p and control the block structure of the
    division sequence.  Instances are immutable and safe to share.
    """

    p: int
    q: int

    @property
    def m(self) -> int:
        return self.q // self.p

    @property
    def r(self) -> int:
        return self.q % self.p


def _require_ints(**values) -> None:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"{name} must be an int, got {value!r}")


def make_rotation(p_in: int, q_in: int) -> RotationParameter:
    """Build a validated parameter from a (not necessarily reduced) fraction.

    The input is reduced by its gcd.  The reduced fraction must satisfy
    p/q < 1/2: larger fractions describe the same figures traced clockwise
    (or, at exactly 1/2, a retraced diameter) and are rejected.
    """
    _require_ints(p=p_in, q=q_in)
    if p_in < 1:
        raise ParameterError(f"p must be a positive integer, got {p_in}")
    if q_in < 1:
        raise ParameterError(f"q must be a positive integer, got {q_in}")
    if q_in > MAX_Q:
        raise ParameterError(f"q must be at most {MAX_Q}, got {q_in}")
    g = math.gcd(p_in, q_in)
    p = p_in // g
    q = q_in // g
    if 2 * p >= q:
        raise ParameterError(
            f"{p_in}/{q_in} reduces to {p}/{q}: out of supported range (p/q < 1/2 required)"
        )
    return RotationParameter(p=p, q=q)


def coprime_rotations(q_max: int) -> Iterator[RotationParameter]:
    """All valid parameters with q <= q_max, ordered by (q, p); q_max is in 3..MAX_Q."""
    _require_ints(q_max=q_max)
    if q_max < 3:
        raise ParameterError(f"q_max must be at least 3, got {q_max}")
    if q_max > MAX_Q:
        raise ParameterError(f"q_max must be at most {MAX_Q}, got {q_max}")
    return (
        make_rotation(p, q)
        for q in range(3, q_max + 1)
        for p in range(1, (q - 1) // 2 + 1)
        if math.gcd(p, q) == 1
    )
