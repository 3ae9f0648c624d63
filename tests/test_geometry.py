import bisect
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_billiards import geometry
from circle_billiards.core import coprime_rotations, make_rotation
from circle_billiards.geometry import (
    Chord,
    RingAssignmentError,
    RingRadius,
    chord_list,
    chords_cross,
    crossing_offsets,
    intersection_points,
    ring_radii,
    vertex_positions,
)
from circle_billiards.oracle import census_prefixes, oracle_sequence


def test_vertex_positions_examples():
    square = vertex_positions(make_rotation(1, 4))
    assert square[1] == pytest.approx((0.0, 1.0), abs=1e-12)
    star = vertex_positions(make_rotation(3, 7))
    assert star[0] == pytest.approx((1.0, 0.0), abs=1e-12)
    pentagram = vertex_positions(make_rotation(2, 5))
    assert pentagram[2] == pytest.approx((-0.809017, 0.587785), abs=1e-6)


def test_all_chords_same_length():
    rp = make_rotation(2, 5)
    verts = vertex_positions(rp)
    lengths = {
        round(math.dist(verts[c.from_vertex], verts[c.to_vertex]), 12)
        for c in chord_list(rp)
    }
    assert len(lengths) == 1


def test_chord_list_examples():
    pentagram = chord_list(make_rotation(2, 5))
    assert [(c.from_vertex, c.to_vertex) for c in pentagram] == [
        (0, 2),
        (2, 4),
        (4, 1),
        (1, 3),
        (3, 0),
    ]
    star = chord_list(make_rotation(3, 7))
    assert (star[0].from_vertex, star[0].to_vertex) == (0, 3)
    big = chord_list(make_rotation(3, 13))
    assert (big[12].from_vertex, big[12].to_vertex, big[12].step_index) == (10, 0, 13)


def test_chords_close_the_orbit():
    for rp in coprime_rotations(20):
        chords = chord_list(rp)
        assert chords[0].from_vertex == 0
        assert chords[-1].to_vertex == 0
        for a, b in zip(chords, chords[1:]):
            assert a.to_vertex == b.from_vertex
            assert b.to_vertex == (b.from_vertex + rp.p) % rp.q


def test_chords_cross_examples():
    assert chords_cross(Chord(0, 2, 1), Chord(1, 3, 2), 5)
    assert not chords_cross(Chord(0, 2, 1), Chord(2, 4, 2), 5)
    assert not chords_cross(Chord(0, 1, 1), Chord(2, 3, 2), 6)


def test_crossing_symmetry_exhaustive():
    for rp in coprime_rotations(20):
        chords = chord_list(rp)
        for i, a in enumerate(chords):
            for b in chords[i + 1 :]:
                assert chords_cross(a, b, rp.q) == chords_cross(b, a, rp.q)


def _ccw(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0


def _segments_properly_intersect(p1, p2, p3, p4):
    return _ccw(p1, p2, p3) != _ccw(p1, p2, p4) and _ccw(p3, p4, p1) != _ccw(p3, p4, p2)


def test_crossing_matches_float_predicate():
    for rp in coprime_rotations(20):
        verts = vertex_positions(rp)
        chords = chord_list(rp)
        for i, a in enumerate(chords):
            for b in chords[i + 1 :]:
                if {a.from_vertex, a.to_vertex} & {b.from_vertex, b.to_vertex}:
                    expected = False
                else:
                    expected = _segments_properly_intersect(
                        verts[a.from_vertex],
                        verts[a.to_vertex],
                        verts[b.from_vertex],
                        verts[b.to_vertex],
                    )
                assert chords_cross(a, b, rp.q) == expected, (rp.p, rp.q, a, b)


def test_ring_radii_3_7():
    rings = ring_radii(make_rotation(3, 7))
    assert rings[0].normalized_radius == 1.0
    assert rings[1].normalized_radius == pytest.approx(0.356896, abs=1e-5)
    assert rings[2].normalized_radius == pytest.approx(0.246980, abs=1e-5)


def test_ring_radii_pentagram():
    rings = ring_radii(make_rotation(2, 5))
    assert [r.ring_index for r in rings] == [0, 1]
    assert rings[1].normalized_radius == pytest.approx(0.381966, abs=1e-6)


def test_ring_radii_polygon():
    rings = ring_radii(make_rotation(1, 5))
    assert len(rings) == 1
    assert rings[0].normalized_radius == 1.0


def test_ring_radii_strictly_decreasing():
    for rp in coprime_rotations(60):
        vals = [r.normalized_radius for r in ring_radii(rp)]
        assert vals[0] == 1.0
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_intersections_square():
    geo = intersection_points(make_rotation(1, 4))
    assert geo.intersections == ()


def test_intersections_pentagram():
    geo = intersection_points(make_rotation(2, 5))
    assert len(geo.intersections) == 5
    assert {x.ring for x in geo.intersections} == {1}


def test_intersections_7_star():
    geo = intersection_points(make_rotation(3, 7))
    assert len(geo.intersections) == 14
    per_ring = {}
    for x in geo.intersections:
        per_ring[x.ring] = per_ring.get(x.ring, 0) + 1
    assert per_ring == {1: 7, 2: 7}


def test_ring_membership_tolerance():
    for pq in [(3, 7), (4, 9), (5, 12), (7, 16)]:
        rp = make_rotation(*pq)
        radii = {r.ring_index: r.normalized_radius for r in ring_radii(rp)}
        for x in intersection_points(rp).intersections:
            d = math.hypot(*x.point)
            assert abs(d - radii[x.ring]) <= 1e-9


def _assert_rings_equally_spaced(rp, intersections):
    """Reference: q crossings on each ring 1..p-1, sorted angles 2*pi/q apart."""
    assert len(intersections) == rp.q * (rp.p - 1)
    rings = {}
    for x in intersections:
        rings.setdefault(x.ring, []).append(math.atan2(x.point[1], x.point[0]))
    assert set(rings) == set(range(1, rp.p))
    gap = 2 * math.pi / rp.q
    for angles in rings.values():
        assert len(angles) == rp.q
        angles.sort()
        deltas = [b - a for a, b in zip(angles, angles[1:])]
        deltas.append(angles[0] + 2 * math.pi - angles[-1])
        assert all(abs(d - gap) <= 1e-9 for d in deltas), rp


def test_ring_structure_scan():
    for rp in coprime_rotations(25):
        geo = intersection_points(rp)  # raises RingAssignmentError on failure
        _assert_rings_equally_spaced(rp, geo.intersections)


def _worst_distance_from_place(rp):
    """Largest distance of a located crossing from its exact place.

    Chords i + 1 and i + 1 + k cross on ring p - |s| at angle
    pi*(p*(2i + 1) + s)/q, with s = p*k mod q taken in (-q/2, q/2).
    """
    p, q = rp.p, rp.q
    radii = [rr.normalized_radius for rr in ring_radii(rp)]
    worst = 0.0
    for x in intersection_points(rp).intersections:
        s = p * (x.chord_b - x.chord_a) % q
        if 2 * s > q:
            s -= q
        assert x.ring == p - abs(s), (rp, x)
        angle = math.pi * ((p * (2 * x.chord_a - 1) + s) % (2 * q)) / q
        r = radii[x.ring]
        worst = max(worst, math.dist(x.point, (r * math.cos(angle), r * math.sin(angle))))
    return worst


def test_locator_keeps_its_digits():
    # Far inside RING_TOLERANCE (about 1e-14 and 7e-14 measured): a locator
    # that loses digits but still passes the check would silently shrink
    # the range of q over which the check means something.
    assert max(_worst_distance_from_place(rp) for rp in coprime_rotations(60)) <= 1e-13
    assert _worst_distance_from_place(make_rotation(249, 499)) <= 1e-12


@pytest.mark.parametrize("q", [20001, 40001])
def test_ring_check_holds_on_innermost_rings_at_large_q(q):
    # The innermost rings have the smallest tolerance (half their gap, about
    # q**-3), so a locator that loses digits would false-fail them first.
    rp = make_rotation((q - 1) // 2, q)
    inner = [k for k in crossing_offsets(rp) if min(rp.p * k % q, -rp.p * k % q) <= 5]
    per_ring = Counter(ring for *_, ring in geometry._crossings(rp, inner))
    assert per_ring == {ring: q for ring in range(rp.p - 5, rp.p)}


@pytest.mark.parametrize(
    "patched",
    [
        lambda r: [r[0], r[2], r[1]],  # rings 1 and 2 swapped
        lambda r: [r[0], r[2] + 0.01, r[2]],  # ring 1 moved next to ring 2
        lambda r: [r[0], r[1], r[1] - 0.01],  # ring 2 moved next to ring 1
    ],
    ids=["swapped", "outer_moved_in", "inner_moved_out"],
)
def test_ring_tolerance_capped_at_half_gap(monkeypatch, patched):
    # Each patched table of 3/7 puts some crossing nearer another ring than
    # its own, which the loose RING_TOLERANCE alone would let pass.
    rp = make_rotation(3, 7)
    radii = patched([rr.normalized_radius for rr in ring_radii(rp)])
    table = [RingRadius(i, r) for i, r in enumerate(radii)]
    monkeypatch.setattr(geometry, "RING_TOLERANCE", 1.0)
    monkeypatch.setattr(geometry, "ring_radii", lambda param: table)
    with pytest.raises(RingAssignmentError):
        intersection_points(rp)


def test_no_triple_intersections():
    for rp in coprime_rotations(25):
        pts = [x.point for x in intersection_points(rp).intersections]
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 > 1e-12, (rp.p, rp.q)


def _pairwise_crossings(rp):
    """Reference: every crossing (chord_a, chord_b), a < b, by the O(q^2) pair loop."""
    chords = chord_list(rp)
    return [
        (a.step_index, b.step_index)
        for i, a in enumerate(chords)
        for b in chords[i + 1 :]
        if chords_cross(a, b, rp.q)
    ]


def _nearest_ring(ascending, d):
    """Reference: index of the ring radius nearest to d (ascending: (radius, index))."""
    j = bisect.bisect_left(ascending, (d,))
    candidates = ascending[max(j - 1, 0) : j + 1]
    return min(candidates, key=lambda rr: abs(rr[0] - d))[1]


def _check_against_pairwise_reference(rp):
    pairs = _pairwise_crossings(rp)
    offsets = crossing_offsets(rp)
    assert len(offsets) == 2 * (rp.p - 1)
    assert offsets == sorted(offsets)
    assert set(offsets) == {rp.q - k for k in offsets}
    earlier = [0] * (rp.q + 1)
    for _, b in pairs:
        earlier[b] += 1
    increments = list(oracle_sequence(rp).increments)
    assert increments == [1 + earlier[n] for n in range(1, rp.q + 1)]
    # Direct census at every prefix n: touched endpoints of chords 1..n,
    # t arcs, n + 2x chord edges, x crossings with chord_b <= n.
    touched, x, direct = set(), 0, [(0, 0, 1)]
    for n, ch in enumerate(chord_list(rp), start=1):
        touched.update((ch.from_vertex, ch.to_vertex))
        x += earlier[n]
        t = len(touched)
        v, e = t + x, t + n + 2 * x
        direct.append((v, e, 1 + e - v))
    census = [(c.vertices_count, c.edges_count, c.faces_count) for c in census_prefixes(rp)]
    assert census == direct
    geo = intersection_points(rp)
    assert [(x.chord_a, x.chord_b) for x in geo.intersections] == pairs
    ascending = sorted((rr.normalized_radius, rr.ring_index) for rr in ring_radii(rp))
    for x in geo.intersections:
        assert x.ring == _nearest_ring(ascending, math.hypot(*x.point)), (rp, x)
    _assert_rings_equally_spaced(rp, geo.intersections)
    # The ring check's chord-1 row, scaled by the symmetry, against every crossing.
    assert geometry._ring_counts(rp, offsets) == Counter(x.ring for x in geo.intersections)


def test_crossing_offsets_match_pairwise_reference():
    for rp in coprime_rotations(80):
        _check_against_pairwise_reference(rp)


@st.composite
def _rotations_up_to_300(draw):
    q = draw(st.integers(3, 300))
    return make_rotation(draw(st.integers(1, (q - 1) // 2)), q)


@given(_rotations_up_to_300())
@example(make_rotation(1, 300))  # p = 1: a polygon, no crossings
@example(make_rotation(149, 299))  # q = 2p + 1
@example(make_rotation(7, 295))  # r = 1
@settings(max_examples=25, deadline=None)
def test_crossing_offsets_match_pairwise_reference_large_q(rp):
    _check_against_pairwise_reference(rp)
