"""Closed-form generators for the circle-division sequence f_0..f_q.

f_n is the number of regions the disc is cut into after the first n chords
of the closed trajectory.  The counts start at f_0 = 1 (undivided disc) and
end at f_q = p*q + 1.  All arithmetic is exact integer arithmetic.  Each
generator returns a plain DivisionSequence; which form made it is the
caller's to know.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .core import ParameterError, RotationParameter, _require_ints, make_rotation


@dataclass(frozen=True)
class DivisionSequence:
    """The exact region counts f_0..f_q and the increments f_n - f_(n-1).

    ``__post_init__`` enforces the structural invariants every correct
    sequence satisfies: f_0 = 1, f_q = p*q + 1, and each chord adds between
    1 and 2p - 1 regions.  ``from_increments`` keeps the increments it is
    given, and those are what is checked.  The sequence keeps no note of its
    generator, so two sequences are equal exactly when their values are.
    """

    param: RotationParameter
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        # An empty tuple fails the length check before its ends are read.
        ends = self.values or (None,)
        _check_ends(self.param, len(self.values), ends[0], ends[-1])
        top = 2 * self.param.p - 1
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
        cls, param: RotationParameter, increments: list[int]
    ) -> "DivisionSequence":
        """f_0 = 1, f_n = f_(n-1) + increments[n-1]; ``__post_init__`` checks them as given."""
        steps = tuple(increments)
        values = tuple(itertools.accumulate(steps, initial=1))
        # Frozen: fill the dict directly, so the cached `increments` is `steps`, not re-derived.
        seq = cls.__new__(cls)
        seq.__dict__.update(param=param, values=values, increments=steps)
        seq.__post_init__()
        return seq


def _check_ends(
    param: RotationParameter, n_values: int, first: int | None, last: int | None
) -> None:
    """Raise unless n_values = q + 1, f_0 = first is 1 and f_q = last is p*q + 1.

    The one wording of these invariants, for a DivisionSequence and for the
    increment counts `billiard seq` writes from.
    """
    p, q = param.p, param.q
    if n_values != q + 1:
        raise ValueError(f"need q+1 values, got {n_values}")
    if first != 1:
        raise ValueError(f"f_0 must be 1, got {first}")
    if last != p * q + 1:
        raise ValueError(f"f_q must be {p * q + 1}, got {last}")


def _check_counts(param: RotationParameter, counts: list[int]) -> int:
    """DivisionSequence's invariants read from increment counts in O(p); returns f_q.

    counts[d - 1] chords add d regions.  With 2p - 1 counts, none negative,
    every step lies in 1..2p - 1 by construction; the counts then fix the
    length and f_q of the sequence they expand to, which starts at f_0 = 1.
    """
    top = 2 * param.p - 1
    if len(counts) != top:
        raise ValueError(f"need {top} increment counts, got {len(counts)}")
    if min(counts) < 0:
        d = next(d for d, c in enumerate(counts, 1) if c < 0)
        raise ValueError(f"count {counts[d - 1]} of increment {d} is negative")
    total = 1 + sum(map(operator.mul, itertools.count(1), counts))
    _check_ends(param, 1 + sum(counts), 1, total)
    return total


def _expand(counts: list[int]) -> list[int]:
    """The steps counts stand for: counts[d - 1] copies of d, for d = 1, 2, ..."""
    steps = []
    for d, c in enumerate(counts, 1):
        # Near p = q/2 most runs hold one chord: appending skips a list each.
        if c == 1:
            steps.append(d)
        else:
            steps += [d] * c
    return steps


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


def _general_counts(param: RotationParameter) -> list[int]:
    """counts[d - 1]: how many chords add d regions, for d = 1..2p - 1.

    The plateau schedule of ``general_sequence`` as one round loop: round 1
    holds m chords of +1, and each round k = 2..p opens with the one chord
    +(2k - 2) that closes round k - 1, then holds its plateau of +(2k - 1).
    The increments never decrease, so these counts fix the whole sequence.
    """
    p, m, r = param.p, param.m, param.r
    counts = [m]
    done = 0  # floor((k - 1) * r / p): 0 for k = 2, since r < p
    for k in range(2, p + 1):
        now = k * r // p
        counts += (1, m - 1 + now - done)
        done = now
    return counts


def general_sequence(param: RotationParameter) -> DivisionSequence:
    """Division sequence from the round-by-round increment schedule.

    A chord drawn between the (k-1)-th and k-th pass of the start vertex
    crosses 2k - 2 earlier chords and therefore adds 2k - 1 regions; the
    chord completing the k-th pass crosses one more and adds 2k.  The
    plateau lengths follow from q = m*p + r: round 1 holds m chords and
    round k = 2..p holds m - 1 + floor(k*r/p) - floor((k-1)*r/p).  The
    closing chord ends exactly on the start vertex instead of crossing a
    further chord, so no chord +2p completes round p, and the last round is
    the loop's k = p term, holding m - 1 + r - floor((p-1)*r/p) chords since
    floor(p*r/p) = r.  For p = 1 (a convex polygon) the loop is empty and
    all q chords add one region.
    """
    return DivisionSequence.from_increments(param, _expand(_general_counts(param)))


def special_sequence(p: int) -> DivisionSequence:
    """Closed form for the family q = 2p + 1.

    f_n = 2 - [n = 0] - [n = q] + n*(n-1)/2: apart from the first chord and
    the closing chord every increment equals n - 1, the arithmetic series.
    The bracket corrections account for the undivided disc and for the
    closing chord landing on the start vertex.
    """
    # make_rotation rejects p < 1; a non-int p would fail at 2 * p + 1 first.
    _require_ints(p=p)
    q = 2 * p + 1
    param = make_rotation(p, q)
    values = tuple(2 + n * (n - 1) // 2 - (n in (0, q)) for n in range(q + 1))
    return DivisionSequence(param, values)


def _r1_counts(param: RotationParameter) -> list[int]:
    """The plateau schedule at r = 1 as increment counts: the one owner of the r = 1 form.

    The round loop of _general_counts at r = 1, where every floor
    correction vanishes: +1 x m, then for k = 2..p the one chord +(2k-2)
    and a plateau of +(2k-1) x (m - 1 + floor(k/p) - floor((k-1)/p)), which
    is m - 1 for k < p and m at k = p.  A pair with r != 1 raises
    ParameterError.
    """
    if param.r != 1:
        raise ParameterError(f"r = 1 required, got r = {param.r} for {param.p}/{param.q}")
    p, m = param.p, param.m
    return [m, 1] + [m - 1, 1] * (p - 2) + [m]


def r1_sequence(param: RotationParameter) -> DivisionSequence:
    """Simplified schedule for r = 1, where every floor correction vanishes.

    The values of the counts _r1_counts states (a pair with r != 1 raises
    ParameterError there).  Output is identical to general_sequence on the
    same parameter; verify_pair's r1_form compares the two schedules as
    counts.
    """
    return DivisionSequence.from_increments(param, _expand(_r1_counts(param)))
