"""Numeric realization of the trajectory: vertices, chords, crossings, rings.

Crossing detection is purely combinatorial (cyclic interleaving of vertex
indices), so the region counts built on it are exact.  Floating point only
enters for coordinates, ring radii and rendering.
"""

from __future__ import annotations

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


def _crossings(param: RotationParameter, offsets: list[int], rows: int | None = None):
    """Yield (chord_a, chord_b, point, ring) for interior crossings, checked.

    Crossing pairs (chord i + 1, chord i + 1 + k), i 0-based, come from the
    crossing offsets k (as crossing_offsets gives them), ordered by i and
    then k, over the rows i < rows (every row when rows is None).  With
    s = p*k mod q taken in (-q/2, q/2), the two chords are mirror images
    across the bisector of their midpoints, so they cross on it: on ring
    p - |s| at angle pi*(p*(2i + 1) + s)/q.  The places and the lines read
    one table of the 2q directions pi*m/q: chord i + 1 is the line at
    distance cos(p*pi/q) along direction p*(2i + 1).  A chord whose end j
    has vertex_positions[j] other than direction 2j (bit for bit) gets a
    NaN normal, and an offset whose ring p - |s| is negative (off the
    radius table) a NaN place.  A point further than min(RING_TOLERANCE,
    half the gap to each adjacent ring) from its place raises
    RingAssignmentError.  A caller that only counts keeps no crossing.

    With every vertex tied, chord i + 1 is chord 1 turned by table slot
    2p*i, and crossing (i + 1, i + 1 + k) is crossing (1, 1 + k) turned by
    it, so the first rows stand for the rest.  One untied vertex breaks
    that symmetry: then every row is visited, and the loop raises at the
    first crossing on a chord through an untied vertex.
    """
    p, q = param.p, param.q
    unit = [(math.cos(math.pi * m / q), math.sin(math.pi * m / q)) for m in range(2 * q)]
    tied = [v == unit[2 * j] for j, v in enumerate(vertex_positions(param))]
    if rows is None or not all(tied):
        rows = q
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
        r, tol = (radii[ring], tolerance[ring]) if ring >= 0 else (math.nan, math.nan)
        places.append((k, s, ring, r, tol))
    locate = _line_intersection
    for i in range(rows):
        normal = normals[i]
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


def _ring_counts(param: RotationParameter, offsets: list[int]) -> Counter:
    """Crossings per ring over the full orbit, from chord 1's row of _crossings.

    By the symmetry _crossings states, crossing (1, b) stands for the
    q + 1 - b crossings (i + 1, i + b) with i + b <= q, all on its ring.  An
    untied vertex or a crossing off its place raises RingAssignmentError,
    as in _crossings.  What the row loses: rounding is sampled on chord 1
    only, which at p = (q - 1)/2 under-reports the worst miss of the five
    innermost rings 2-8 times (8.0, 2.3 and 2.4 at q = 2001, 10001 and
    20001), and a locator wrong only off chord 1 passes.
    """
    q = param.q
    counts = Counter()
    for _, b, _, ring in _crossings(param, offsets, rows=1):
        counts[ring] += q + 1 - b
    return counts
