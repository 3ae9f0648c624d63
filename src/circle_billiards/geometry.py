"""Numeric realization of the trajectory: vertices, chords, crossings, rings.

Crossing detection is purely combinatorial (cyclic interleaving of vertex
indices), so the region counts built on it are exact.  Floating point only
enters for ring radii, rendering and coordinates: one direction table per q.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .core import RotationParameter

# Crossings must sit this close to their exact place (a Euclidean distance,
# capped at half the gap to each adjacent ring).
RING_TOLERANCE = 1e-9


class RingAssignmentError(RuntimeError):
    """An interior crossing lies off the exact place its chords fix.

    chord_a is the chord number of the earlier chord of the first such crossing.
    A drawn vertex off its table direction raises it first, with chord_a the
    first chord in step order through an untied vertex.  Ring radii that do
    not strictly decrease raise it with chord_a None.
    """

    def __init__(self, message: str, chord_a: int | None) -> None:
        super().__init__(message)
        self.chord_a = chord_a


@dataclass(frozen=True, slots=True)
class Chord:
    """One straight path of the trajectory; chord n is chord_list(param)[n - 1]."""

    from_vertex: int
    to_vertex: int


@dataclass(frozen=True)
class RingRadius:
    """A crossing ring's radius over the circle's; ring i is ring_radii(param)[i]."""

    normalized_radius: float


@dataclass(frozen=True)
class Intersection:
    """Interior crossing of the chords numbered chord_a < chord_b, on ring ``ring``."""

    chord_a: int
    chord_b: int
    point: tuple[float, float]
    ring: int


@dataclass(frozen=True)
class TrajectoryGeometry:
    """The interior crossings of the full orbit, ordered by chord_a, then chord_b."""

    intersections: tuple[Intersection, ...]


@functools.lru_cache(maxsize=1)  # coprime_rotations yields the pairs grouped by q
def _directions(q: int) -> tuple[tuple[float, float], ...]:
    """The 2q unit directions (cos, sin) of pi*m/q; vertex j is slot 2j."""
    return tuple((math.cos(math.pi * m / q), math.sin(math.pi * m / q)) for m in range(2 * q))


def vertex_positions(param: RotationParameter) -> list[tuple[float, float]]:
    """Reflection point j at angle 2*pi*j/q, in a fresh list from the table built once per q."""
    return list(_directions(param.q)[::2])


def _walk(param: RotationParameter) -> list[int]:
    """The q + 1 vertices p*n mod q, n = 0..q, in visiting order: the walk's one owner.

    Chord n runs from entry n - 1 to entry n, so each chord starts where the
    one before it ends.  chord_list, the crossing offsets, the vertex-tie
    locator of _crossings and the census all read it, so a wrong walk
    reaches every counter; verify_pair's walk check compares it with
    p*n mod q, entry by entry.
    """
    p, q = param.p, param.q
    return [pn % q for pn in range(0, p * q + 1, p)]


def chord_list(param: RotationParameter) -> list[Chord]:
    """The q chords in traversal order: chord n runs from vertex p*(n-1) to p*n (mod q)."""
    walk = _walk(param)
    return list(map(Chord, walk, walk[1:]))


def _crossing_offsets(q: int, walk: list[int]) -> list[int]:
    """Ascending indices k of the chords (walk[k], walk[k + 1]) that cross the chord walk[0:2].

    The one owner of the interleaving predicate, tested on every chord in
    one comprehension over consecutive pairs of the walk: exactly one end of
    chord k lies on the open arc swept from a0 to a1.  A shared vertex is a
    meeting on the boundary, not a crossing, so chord 0 itself is never
    listed.
    """
    a0, a1 = walk[0], walk[1]
    span = (a1 - a0) % q
    return [
        k
        for k, (b0, b1) in enumerate(zip(walk, walk[1:]))
        if b0 != a0 and b0 != a1 and b1 != a0 and b1 != a1
        and ((b0 - a0) % q < span) != ((b1 - a0) % q < span)
    ]


def chords_cross(a: Chord, b: Chord, q: int) -> bool:
    """True iff the two chords cross at an interior point of the disc.

    Equivalent to their endpoints interleaving around the circle: exactly
    one endpoint of b lies on the open arc swept from a.from_vertex to
    a.to_vertex.  Chords sharing a vertex only meet on the boundary.  In
    the walk a, b below, b is chord 2; chord 1 only links a to b.
    """
    walk = [a.from_vertex, a.to_vertex, b.from_vertex, b.to_vertex]
    return 2 in _crossing_offsets(q, walk)


def crossing_offsets(param: RotationParameter) -> list[int]:
    """Ascending offsets k in 1..q-1 for which chord 1 crosses chord 1 + k.

    Chords n and n + k are chords 1 and 1 + k rotated by p*(n-1) vertex
    steps, so they cross exactly when k is listed here (indices mod q).
    Chord 1 + k runs from entry k to entry k + 1 of _walk, the walk
    verify_pair checks, and _crossing_offsets tests those vertex numbers;
    chord 1 itself shares its vertices and is never listed.  Each chord
    crosses 2(p-1) others, and the list is closed under k -> q-k.  In
    closed form the offsets are the sorted residues s*p^-1 mod q for
    s = +-1..+-(p-1): chord 1 + k runs from s = p*k to s + p (mod q), and
    as 2p < q exactly one of them lies on the open arc (0, p) of chord 1
    just when 1 <= |s| <= p - 1, s taken in (-q/2, q/2).
    """
    return _crossing_offsets(param.q, _walk(param))


def _radii(param: RotationParameter) -> list[float]:
    """The floats ring_radii wraps, r_i for i = 0..p-1: the one owner of the formula."""
    p, q = param.p, param.q
    base = math.pi * p / q
    top = math.cos(base)
    return [top / math.cos(base - math.pi * i / q) for i in range(p)]


def ring_radii(param: RotationParameter) -> list[RingRadius]:
    """Radii of the p concentric circles that carry the interior crossings.

    r_i = cos(p*pi/q) / cos(p*pi/q - i*pi/q) for i = 0..p-1, strictly
    decreasing; ring 0 is the boundary circle itself (radius exactly 1).
    """
    return [RingRadius(r) for r in _radii(param)]


def _line_intersection(normal_a, normal_b, d) -> tuple[float, float]:
    # Lines x*c + y*s = d with unit normals (c, s); the error of the point
    # scales with its radius.  Crossing chords are never parallel.
    c1, s1 = normal_a
    c2, s2 = normal_b
    det = c1 * s2 - c2 * s1
    return (d * (s2 - s1) / det, d * (c1 - c2) / det)


def _ring_tolerances(radii: list[float]) -> list[float] | None:
    """min(RING_TOLERANCE, half the gap to each adjacent ring) for each ring, in ring order.

    None when the radii do not strictly decrease.  RING_TOLERANCE is read at
    call time.  One gap test decides the usual case: when every gap between
    adjacent radii is at least twice RING_TOLERANCE, the radii decrease and
    no half gap counts, so every ring gets RING_TOLERANCE.  The order check
    and the list of half gaps run only when that test fails.  No pair with
    q <= 400 fails it.
    """
    tol = RING_TOLERANCE
    gaps = [*map(operator.sub, radii, radii[1:])]
    if all(map(operator.ge, gaps, itertools.repeat(2 * tol))):
        return [tol] * len(radii)
    if min(gaps) <= 0:
        return None
    half_gaps = [math.inf, *map((0.5).__mul__, gaps), math.inf]
    return list(map(functools.partial(min, tol), half_gaps, half_gaps[1:]))


def _crossings(param: RotationParameter, offsets: list[int], rows: int, out=None) -> list[int]:
    """Locate and check the crossings of rows 0..rows - 1; return the full orbit's count per ring.

    The one crossing locator, and the one reader and judge of the ring
    set-up.  It reads the radii as the plain floats of _radii, which
    ring_radii wraps; radii that do not strictly decrease raise
    RingAssignmentError with chord_a None before anything else.  Then the
    vertices are tied bit for bit to the table _directions(q) they are read
    from.  One comparison with its even slots decides a tied figure; only an
    untied one runs the loop that locates the failure.  It reads the walk of
    _walk and visits its entry n, vertex j = p*n mod q, where chord n ends
    and chord n + 1 starts, for n = 0..q, raising with chord_a n (1 when
    n = 0) at the first vertex j off direction 2j: the first chord in step
    order through any untied vertex.  An error in the table itself shows
    only at the places, which rest on _radii's own formula.

    Row i, 0-based, holds the crossings (chord i + 1, chord i + 1 + k) for
    the crossing offsets k (as crossing_offsets gives them) below q - i, in
    the order of offsets.  With s = p*k mod q taken in (-q/2, q/2), the two
    chords are mirror images across the bisector of their midpoints, so they
    cross on it: on ring p - |s| at angle pi*(p*(2i + 1) + s)/q.  The places
    and the lines read the same table: chord n + 1 is the line at distance
    cos(p*pi/q) along direction p*(2n + 1), so chords i + 1 and i + 1 + k
    read slots p*(2i + 1) and p*(2i + 1) + 2s (mod 2q).  An offset whose ring
    p - |s| is negative (off the radius table) gets a NaN place.  Each
    crossing's ring, radius, tolerance and place are worked out where it is
    located, so no table of places is kept.  A point further than its
    ring's _ring_tolerances entry, min(RING_TOLERANCE, half the gap to each
    adjacent ring), from its place raises RingAssignmentError with chord_a
    i + 1.  When out is a list, (chord_a, chord_b, point, ring) is appended
    to it for each located crossing; otherwise nothing is built per crossing
    but the located point.

    With every vertex tied, chord i + 1 is chord 1 turned by table slot
    2p*i, and crossing (i + 1, i + 1 + k) is crossing (1, 1 + k) turned by
    it, on the same ring.  So the last located row stands for the rows not
    located: its crossing (i + 1, i + 1 + k) counts q - k - i times, itself
    and its copies (i' + 1, i' + 1 + k) for i < i' < q - k, and every other
    crossing counts once.  rows = q locates the full orbit and counts each
    crossing once; rows = 1 gives the ring check's weights q - k.
    """
    p, q = param.p, param.q
    radii = _radii(param)
    tolerance = _ring_tolerances(radii)
    if tolerance is None:
        raise RingAssignmentError(f"ring radii of {p}/{q} do not strictly decrease", None)
    unit = _directions(q)
    verts = vertex_positions(param)
    if verts != list(unit[::2]):
        for n, j in enumerate(_walk(param)):
            if verts[j] != unit[2 * j]:
                raise RingAssignmentError(
                    f"vertex {j} of {p}/{q} is off direction {2 * j}", n or 1
                )
    d = unit[p][0]
    per_ring = [0] * p
    for i in range(rows):
        # The row's slot taken in [-q, q), so slot + s and slot + 2s index
        # the 2q-entry table directly, negative ones from its end.
        slot = (p * (2 * i + 1) + q) % (2 * q) - q
        normal = unit[slot]
        last = q - i
        final = i == rows - 1
        for k in offsets:
            if k >= last:
                break
            s = p * k % q
            if 2 * s > q:
                s -= q
            ring = p - abs(s)
            if ring >= 0:
                r = radii[ring]
                tol = tolerance[ring]
            else:
                r = tol = math.nan
            pt = _line_intersection(normal, unit[slot + 2 * s], d)
            ux, uy = unit[slot + s]
            miss = math.hypot(pt[0] - r * ux, pt[1] - r * uy)
            if not miss <= tol:  # a NaN fails too
                raise RingAssignmentError(
                    f"crossing of chords {i + 1},{i + 1 + k} at {pt!r} is "
                    f"{miss!r} from its place on ring {ring} of {p}/{q}",
                    i + 1,
                )
            per_ring[ring] += last - k if final else 1
            if out is not None:
                out.append((i + 1, i + 1 + k, pt, ring))
    return per_ring


def intersection_points(param: RotationParameter) -> TrajectoryGeometry:
    """All interior crossings of the full orbit: _crossings locates and checks all q rows."""
    found = []
    _crossings(param, crossing_offsets(param), param.q, found)
    return TrajectoryGeometry(tuple(itertools.starmap(Intersection, found)))
