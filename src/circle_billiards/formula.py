"""Closed-form generators for the circle-division sequence f_0..f_q.

f_n is the number of regions the disc is cut into after the first n chords
of the closed trajectory.  The counts start at f_0 = 1 (undivided disc) and
end at f_q = p*q + 1.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass

from .core import ParameterError, RotationParameter, _require_ints, make_rotation


class SequenceSource(enum.Enum):
    """Which generator produced a division sequence."""

    GENERAL_FORMULA = "GeneralFormula"
    SPECIAL_CLOSED_FORM = "SpecialClosedForm"
    ORACLE = "Oracle"


@dataclass(frozen=True)
class DivisionSequence:
    """The exact region counts f_0..f_q; ``increments`` is derived from them.

    Construction enforces the structural invariants every correct sequence
    satisfies: f_0 = 1, f_q = p*q + 1, and each chord adds between 1 and
    2p - 1 regions.
    """

    param: RotationParameter
    values: tuple[int, ...]
    source: SequenceSource

    def __post_init__(self) -> None:
        p, q = self.param.p, self.param.q
        if len(self.values) != q + 1:
            raise ValueError(f"need q+1 values, got {len(self.values)}")
        if self.values[0] != 1:
            raise ValueError(f"f_0 must be 1, got {self.values[0]}")
        if self.values[-1] != p * q + 1:
            raise ValueError(f"f_q must be {p * q + 1}, got {self.values[-1]}")
        top = 2 * p - 1
        steps = self.increments
        if min(steps) < 1 or max(steps) > top:
            n, d = next((n, d) for n, d in enumerate(steps, 1) if not 1 <= d <= top)
            raise ValueError(f"increment {d} at step {n} outside 1..{top}")

    @functools.cached_property
    def increments(self) -> tuple[int, ...]:
        """f_n - f_(n-1) for n = 1..q: the regions added by each chord."""
        return tuple(map(operator.sub, self.values[1:], self.values))

    @classmethod
    def from_increments(
        cls,
        param: RotationParameter,
        increments: list[int],
        source: SequenceSource,
    ) -> "DivisionSequence":
        """The sequence f_0 = 1, f_n = 1 + increments[0] + ... + increments[n-1]."""
        return cls(param, tuple(itertools.accumulate(increments, initial=1)), source)


def total_regions(param: RotationParameter) -> int:
    """Regions after the full orbit: p*q + 1."""
    return param.p * param.q + 1


def euler_counts(param: RotationParameter) -> tuple[int, int, int]:
    """(vertices, edges, faces) of the completed orbit's planar subdivision.

    q reflection points plus q*(p-1) interior crossings give v = p*q; each
    crossing splits two chords and the boundary splits into q arcs, giving
    e = 2*p*q; faces follow from f = 1 + e - v with the outer face dropped.
    """
    v = param.p * param.q
    e = 2 * param.p * param.q
    return v, e, 1 + e - v


def _general_increments(param: RotationParameter) -> list[int]:
    p, m, r = param.p, param.m, param.r
    if p == 1:
        # Convex polygon: chords never cross, each adds one region.
        return [1] * param.q
    steps = [1] * m
    steps.append(2)
    for k in range(2, p):
        plateau = m - 1 + (k * r) // p - ((k - 1) * r) // p
        steps.extend([2 * k - 1] * plateau)
        steps.append(2 * k)
    steps.extend([2 * p - 1] * (m - 1 + r - ((p - 1) * r) // p))
    return steps


def general_sequence(param: RotationParameter) -> DivisionSequence:
    """Division sequence from the round-by-round increment schedule.

    A chord drawn between the (k-1)-th and k-th pass of the start vertex
    crosses 2k - 2 earlier chords and therefore adds 2k - 1 regions; the
    chord completing the k-th pass crosses one more and adds 2k.  The
    plateau lengths follow from q = m*p + r: round k holds
    m - 1 + floor(k*r/p) - floor((k-1)*r/p) constant-increment chords.
    The closing chord ends exactly on the start vertex instead of crossing
    a further chord, so the last round keeps the odd increment 2p - 1
    throughout and holds m - 1 + r - floor((p-1)*r/p) chords.
    """
    steps = _general_increments(param)
    return DivisionSequence.from_increments(param, steps, SequenceSource.GENERAL_FORMULA)


def special_sequence(p: int) -> DivisionSequence:
    """Closed form for the family q = 2p + 1.

    f_n = 2 - [n = 0] - [n = q] + n*(n-1)/2: apart from the first chord and
    the closing chord every increment equals n - 1, the arithmetic series.
    The bracket corrections account for the undivided disc and for the
    closing chord landing on the start vertex.
    """
    _require_ints(p=p)
    if p < 1:
        raise ParameterError(f"p must be a positive integer, got {p}")
    q = 2 * p + 1
    param = make_rotation(p, q)
    values = tuple(2 + n * (n - 1) // 2 - (n in (0, q)) for n in range(q + 1))
    return DivisionSequence(param, values, SequenceSource.SPECIAL_CLOSED_FORM)


def r1_sequence(param: RotationParameter) -> DivisionSequence:
    """Simplified schedule for r = 1, where every floor correction vanishes.

    Increments are +1 x m, +2, then for k = 2..p-1 a plateau of
    +(2k-1) x (m-1) followed by +2k, then +(2p-1) x m.  Output is identical
    to general_sequence on the same parameter.
    """
    if param.r != 1:
        raise ParameterError(f"r = 1 required, got r = {param.r} for {param.p}/{param.q}")
    p, m = param.p, param.m
    steps = [1] * m + [2]
    for k in range(2, p):
        steps.extend([2 * k - 1] * (m - 1))
        steps.append(2 * k)
    steps.extend([2 * p - 1] * m)
    return DivisionSequence.from_increments(param, steps, SequenceSource.GENERAL_FORMULA)
