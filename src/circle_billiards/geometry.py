"""Numeric realization of the trajectory: vertices, chords, crossings, rings.

Crossing detection is purely combinatorial (cyclic interleaving of vertex
indices), so the region counts built on it are exact.  Floating point only
enters for coordinates, ring radii and rendering.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass

from .core import RotationParameter

# Crossings must sit this close to their exact place (a Euclidean distance,
# capped at half the gap to each adjacent ring).
RING_TOLERANCE = 1e-9


class RingAssignmentError(RuntimeError):
    """An interior crossing lies off the exact place its chords fix.

    chord_a is the step index of the earlier chord of the first such crossing.
    """

    def __init__(self, message: str, chord_a: int) -> None:
        super().__init__(message)
        self.chord_a = chord_a


@dataclass(frozen=True, slots=True)
class Chord:
    """One straight path of the trajectory; step_index is 1-based traversal order."""

    from_vertex: int
    to_vertex: int
    step_index: int


@dataclass(frozen=True)
class RingRadius:
    ring_index: int
    normalized_radius: float


@dataclass(frozen=True)
class Intersection:
    """Interior crossing of the chords with step indices chord_a < chord_b."""

    chord_a: int
    chord_b: int
    point: tuple[float, float]
    ring: int


@dataclass(frozen=True)
class TrajectoryGeometry:
    param: RotationParameter
    intersections: tuple[Intersection, ...]


def vertex_positions(param: RotationParameter) -> list[tuple[float, float]]:
    """Reflection point j at angle 2*pi*j/q on the unit circle.

    Consecutive star corners subtend the central angle 2*pi/q.
    """
    q = param.q
    return [
        (math.cos(2.0 * math.pi * j / q), math.sin(2.0 * math.pi * j / q))
        for j in range(q)
    ]


def chord_list(param: RotationParameter) -> list[Chord]:
    """The q chords in traversal order: chord n runs from vertex p*(n-1) to p*n (mod q)."""
    p, q = param.p, param.q
    return [Chord((p * (n - 1)) % q, (p * n) % q, n) for n in range(1, q + 1)]


def _interleaved(a0: int, a1: int, b0: int, b1: int, q: int) -> bool:
    # Exactly one of b0, b1 on the open arc swept from a0 to a1; a shared
    # vertex is a meeting on the boundary, not a crossing.
    if a0 == b0 or a0 == b1 or a1 == b0 or a1 == b1:
        return False
    span = (a1 - a0) % q
    return ((b0 - a0) % q < span) != ((b1 - a0) % q < span)


def chords_cross(a: Chord, b: Chord, q: int) -> bool:
    """True iff the two chords cross at an interior point of the disc.

    Equivalent to their endpoints interleaving around the circle: exactly
    one endpoint of b lies on the open arc swept from a.from_vertex to
    a.to_vertex.  Chords sharing a vertex only meet on the boundary.
    """
    return _interleaved(a.from_vertex, a.to_vertex, b.from_vertex, b.to_vertex, q)


def crossing_offsets(param: RotationParameter) -> list[int]:
    """Ascending offsets k in 1..q-1 for which chord 1 crosses chord 1 + k.

    Chords n and n + k are chords 1 and 1 + k rotated by p*(n-1) vertex
    steps, so they cross exactly when k is listed here (indices mod q).
    Chord 1 + k runs from vertex p*k to p*(k+1) (mod q), and the test is
    the endpoint interleaving of chords_cross on those vertex numbers.
    Each chord crosses 2(p-1) others, and the list is closed under k -> q-k.
    """
    p, q = param.p, param.q
    return [k for k in range(1, q) if _interleaved(0, p, p * k % q, p * (k + 1) % q, q)]


def ring_radii(param: RotationParameter) -> list[RingRadius]:
    """Radii of the p concentric circles that carry the interior crossings.

    r_i = cos(p*pi/q) / cos(p*pi/q - i*pi/q) for i = 0..p-1, strictly
    decreasing; ring 0 is the boundary circle itself (radius exactly 1).
    """
    p, q = param.p, param.q
    base = math.pi * p / q
    return [
        RingRadius(i, math.cos(base) / math.cos(base - math.pi * i / q))
        for i in range(p)
    ]


def _line_intersection(normal_a, normal_b, d) -> tuple[float, float]:
    # Lines x*c + y*s = d with unit normals (c, s); the error of the point
    # scales with its radius.  Crossing chords are never parallel.
    c1, s1 = normal_a
    c2, s2 = normal_b
    det = c1 * s2 - c2 * s1
    return (d * (s2 - s1) / det, d * (c1 - c2) / det)


def _crossings(param: RotationParameter, offsets: list[int]):
    """Yield (chord_a, chord_b, point, ring) for every interior crossing, checked.

    Crossing pairs (chord i + 1, chord i + 1 + k), i 0-based, come from the
    crossing offsets k (as crossing_offsets gives them), ordered by i and
    then k.  With s = p*k mod q taken in (-q/2, q/2), the two chords are
    mirror images across the bisector of their midpoints, so they cross on
    it: on ring p - |s| at angle pi*(p*(2i + 1) + s)/q.  The places and the
    lines read one table of the 2q directions pi*m/q: chord i + 1 is the
    line at distance cos(p*pi/q) along direction p*(2i + 1).  A chord whose
    end j has vertex_positions[j] other than direction 2j (bit for bit) gets
    a NaN normal.  A point further than min(RING_TOLERANCE, half the gap to
    each adjacent ring) from its place raises RingAssignmentError.  A caller
    that only counts keeps no crossing.
    """
    p, q = param.p, param.q
    unit = [(math.cos(math.pi * m / q), math.sin(math.pi * m / q)) for m in range(2 * q)]
    tied = [v == unit[2 * j] for j, v in enumerate(vertex_positions(param))]
    normals = [
        unit[p * (2 * n + 1) % (2 * q)]
        if tied[p * n % q] and tied[p * (n + 1) % q]
        else (math.nan, math.nan)
        for n in range(q)
    ]
    d = unit[p][0]
    radii = [rr.normalized_radius for rr in ring_radii(param)]
    half_gaps = [abs(a - b) / 2.0 for a, b in zip(radii, radii[1:])]
    half_gaps = [math.inf, *half_gaps, math.inf]
    tolerance = [min(RING_TOLERANCE, *pair) for pair in zip(half_gaps, half_gaps[1:])]
    places = []
    for k in offsets:
        s = p * k % q
        if 2 * s > q:
            s -= q
        ring = p - abs(s)
        places.append((k, s, ring, radii[ring], tolerance[ring]))
    locate = _line_intersection
    for i, normal in enumerate(normals):
        slot = p * (2 * i + 1)
        for k, s, ring, r, tol in places:
            if i + k >= q:
                break
            pt = locate(normal, normals[i + k], d)
            ux, uy = unit[(slot + s) % (2 * q)]
            miss = math.hypot(pt[0] - r * ux, pt[1] - r * uy)
            if not miss <= tol:  # a NaN fails too
                raise RingAssignmentError(
                    f"crossing of chords {i + 1},{i + 1 + k} at {pt!r} is "
                    f"{miss!r} from its place on ring {ring} of {p}/{q}",
                    i + 1,
                )
            yield i + 1, i + 1 + k, pt, ring


def intersection_points(param: RotationParameter) -> TrajectoryGeometry:
    """All interior crossings of the full orbit, located and checked by _crossings."""
    crossings = _crossings(param, crossing_offsets(param))
    return TrajectoryGeometry(param, tuple(Intersection(*c) for c in crossings))


def _first_untied_crossing(
    p: int, q: int, offsets: list[int], untied: list[int]
) -> int | None:
    """Earlier chord of the first crossing, in _crossings' order, on an untied vertex.

    Chord c + 1 (c from 0) runs from vertex p*c to p*(c + 1) (mod q), so
    vertex j lies on the chords c + 1 with c = j/p and j/p - 1 (mod q).
    _crossings visits the crossings (i + 1, i + 1 + k) by i, then k
    ascending, while i + k < q.  It first visits chord c + 1 with i = c - k
    for the largest offset k <= c, else with i = c and the smallest offset.
    None when no visited crossing is on a chord through an untied vertex.
    """
    inverse = pow(p, -1, q)
    chords = {c for j in untied for c in (j * inverse % q, (j * inverse - 1) % q)}
    first = None
    for c in chords:
        below = bisect.bisect_right(offsets, c)
        if below:
            i = c - offsets[below - 1]
        elif offsets and c + offsets[0] < q:
            i = c
        else:
            continue
        first = i if first is None else min(first, i)
    return None if first is None else first + 1


def _ring_counts(param: RotationParameter, offsets: list[int]) -> Counter:
    """Crossings per ring over the full orbit, from the crossings of chord 1.

    Every vertex_positions entry j must equal direction 2j of the table of
    2q directions pi*m/q, bit for bit.  A vertex off it raises
    RingAssignmentError for the first crossing, in _crossings' order, on a
    chord through it, found from the offsets without locating anything.
    Then the crossings of chord 1 with chords 1 + k, k in offsets, are
    located and held to their places as _crossings holds them (same lines,
    _line_intersection and tolerance); one off its place raises with chord
    1.  With the vertices tied, chord i + 1 is chord 1 turned by table
    slot 2p*i, so by the symmetry offset k puts q - k crossings on ring
    p - |s|, with s = p*k mod q taken in (-q/2, q/2).
    """
    p, q = param.p, param.q

    def direction(m):
        return (math.cos(math.pi * m / q), math.sin(math.pi * m / q))

    verts = vertex_positions(param)
    untied = [j for j in range(q) if verts[j] != direction(2 * j)]
    if untied:
        chord = _first_untied_crossing(p, q, offsets, untied)
        if chord is not None:
            raise RingAssignmentError(
                f"vertex {untied[0]} of {p}/{q} is off its table direction; the "
                f"first crossing on an untied chord has earlier chord {chord}",
                chord,
            )
    radii = [rr.normalized_radius for rr in ring_radii(param)]
    half_gaps = [abs(a - b) / 2.0 for a, b in zip(radii, radii[1:])]
    half_gaps = [math.inf, *half_gaps, math.inf]
    tolerance = [min(RING_TOLERANCE, *pair) for pair in zip(half_gaps, half_gaps[1:])]
    first = direction(p)
    d = first[0]
    locate = _line_intersection
    counts = Counter()
    for k in offsets:
        s = p * k % q
        if 2 * s > q:
            s -= q
        ring = p - abs(s)
        pt = locate(first, direction(p * (2 * k + 1) % (2 * q)), d)
        ux, uy = direction((p + s) % (2 * q))
        miss = math.hypot(pt[0] - radii[ring] * ux, pt[1] - radii[ring] * uy)
        if not miss <= tolerance[ring]:  # a NaN fails too
            raise RingAssignmentError(
                f"crossing of chords 1,{1 + k} at {pt!r} is {miss!r} from its "
                f"place on ring {ring} of {p}/{q}",
                1,
            )
        counts[ring] += q - k
    return counts
