import bisect
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_billiards import formula, geometry
from circle_billiards.cli import run_verification
from circle_billiards.core import MAX_Q, coprime_rotations, make_rotation
from circle_billiards.geometry import (
    Chord,
    RingAssignmentError,
    chord_list,
    chords_cross,
    crossing_offsets,
    intersection_points,
    ring_radii,
    vertex_positions,
)
from circle_billiards.oracle import census_prefixes, oracle_sequence
from test_oracle import _nudged


def test_vertex_positions_examples():
    square = vertex_positions(make_rotation(1, 4))
    assert square[1] == pytest.approx((0.0, 1.0), abs=1e-12)
    star = vertex_positions(make_rotation(3, 7))
    assert star[0] == pytest.approx((1.0, 0.0), abs=1e-12)
    pentagram = vertex_positions(make_rotation(2, 5))
    assert pentagram[2] == pytest.approx((-0.809017, 0.587785), abs=1e-6)


def test_direction_table_is_built_once_per_q():
    # coprime_rotations yields the pairs grouped by q, so one entry serves a sweep.
    geometry._directions.cache_clear()
    run_verification(12)
    assert geometry._directions.cache_info().misses == 10  # q = 3..12


def test_vertex_positions_returns_a_fresh_list():
    rp = make_rotation(2, 5)
    verts = vertex_positions(rp)
    verts[0] = (0.0, 0.0)
    assert vertex_positions(rp)[0] == (1.0, 0.0)


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
    assert (big[12].from_vertex, big[12].to_vertex) == (10, 0)


def test_chords_close_the_orbit():
    for rp in coprime_rotations(20):
        chords = chord_list(rp)
        assert chords[0].from_vertex == 0
        assert chords[-1].to_vertex == 0
        for a, b in zip(chords, chords[1:]):
            assert a.to_vertex == b.from_vertex
            assert b.to_vertex == (b.from_vertex + rp.p) % rp.q


def test_chords_cross_examples():
    assert chords_cross(Chord(0, 2), Chord(1, 3), 5)
    assert not chords_cross(Chord(0, 2), Chord(2, 4), 5)
    assert not chords_cross(Chord(0, 1), Chord(2, 3), 6)


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
    assert len(rings) == 2
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
        radii = [r.normalized_radius for r in ring_radii(rp)]
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
    per_ring = Counter(ring for *_, ring in geometry._crossings(rp, inner, q))
    assert per_ring == {ring: q for ring in range(rp.p - 5, rp.p)}


@pytest.mark.parametrize(
    "patched, chord_a",
    [
        (lambda r: [r[0], r[2], r[1]], type(None)),  # rings 1 and 2 swapped
        (lambda r: [r[0], r[2] + 0.01, r[2]], int),  # ring 1 moved next to ring 2
        (lambda r: [r[0], r[1], r[1] - 0.01], int),  # ring 2 moved next to ring 1
    ],
    ids=["swapped", "outer_moved_in", "inner_moved_out"],
)
def test_ring_tolerance_capped_at_half_gap(monkeypatch, patched, chord_a):
    # Each patched table of 3/7 puts some crossing nearer another ring than
    # its own, which the loose RING_TOLERANCE alone would let pass.  The
    # swapped radii fail the order check before any crossing is located
    # (chord_a None); the moved ones fail the half-gap cap at a crossing.
    rp = make_rotation(3, 7)
    radii = patched([rr.normalized_radius for rr in ring_radii(rp)])
    monkeypatch.setattr(geometry, "RING_TOLERANCE", 1.0)
    monkeypatch.setattr(geometry, "_radii", lambda param: radii)
    with pytest.raises(RingAssignmentError) as err:
        intersection_points(rp)
    assert type(err.value.chord_a) is chord_a


def _capped_tolerances(radii):
    """Reference: min(RING_TOLERANCE, half the gap to each adjacent ring), ring by ring."""
    gaps = [(a - b) / 2 for a, b in zip(radii, radii[1:])]
    return [
        min([geometry.RING_TOLERANCE, *gaps[max(i - 1, 0) : i + 1]]) for i in range(len(radii))
    ]


def test_ring_tolerances_short_branch_up_to_q_120():
    # No half gap up to q = 120 is below RING_TOLERANCE, so every ring gets
    # it whole, which is what the reference computes from the gaps.
    for rp in coprime_rotations(120):
        radii = geometry._radii(rp)
        expected = _capped_tolerances(radii)
        assert expected == [geometry.RING_TOLERANCE] * rp.p, (rp.p, rp.q)
        assert geometry._ring_tolerances(radii) == expected, (rp.p, rp.q)


@pytest.mark.parametrize("pq, gap", [((2, 90001), 1.8e-9), ((3, 100001), 1.5e-9)])
def test_ring_tolerances_full_branch_at_large_q(pq, gap):
    # The smallest radius gap is below twice RING_TOLERANCE, so the half gap
    # caps some ring's tolerance; only the full branch can give that list.
    radii = geometry._radii(make_rotation(*pq))
    assert min(a - b for a, b in zip(radii, radii[1:])) == pytest.approx(gap, rel=0.05)
    expected = _capped_tolerances(radii)
    assert min(expected) < geometry.RING_TOLERANCE
    assert geometry._ring_tolerances(radii) == expected


@pytest.mark.parametrize(
    "j, message, chord_a",
    [
        # Vertex 0 starts chord 1 (n = 0 in the loop's walk).
        (0, "vertex 0 of 2/9 is off direction 0", 1),
        # Vertex 7 of 2/9 ends chord 8: 2 * 8 = 16 = 7 (mod 9).
        (7, "vertex 7 of 2/9 is off direction 14", 8),
    ],
)
def test_untied_vertex_message(monkeypatch, j, message, chord_a):
    monkeypatch.setattr(geometry, "vertex_positions", _nudged(geometry.vertex_positions, j))
    with pytest.raises(RingAssignmentError) as err:
        intersection_points(make_rotation(2, 9))
    assert (str(err.value), err.value.chord_a) == (message, chord_a)


@pytest.mark.parametrize(
    "spared, message, chord_a",
    [
        # Row 0 of 3/7 locates chord 1's crossings with chords 3, 4, 5, 6
        # (offsets 2, 3, 4, 5 on rings 2, 1, 1, 2); row 1 starts at 2,4.
        (1, "crossing of chords 1,4 at (nan, nan) is nan from its place on ring 1 of 3/7", 1),
        (4, "crossing of chords 2,4 at (nan, nan) is nan from its place on ring 2 of 3/7", 2),
    ],
    ids=["row-0", "row-1"],
)
def test_crossing_off_its_place_message(monkeypatch, spared, message, chord_a):
    # The locator answers NaN after its first `spared` calls.
    locate = geometry._line_intersection
    calls = itertools.count()

    def nan_after(*ends):
        return locate(*ends) if next(calls) < spared else (math.nan, math.nan)

    monkeypatch.setattr(geometry, "_line_intersection", nan_after)
    with pytest.raises(RingAssignmentError) as err:
        intersection_points(make_rotation(3, 7))
    assert (str(err.value), err.value.chord_a) == (message, chord_a)


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
        (i, j)
        for i, a in enumerate(chords, start=1)
        for j, b in enumerate(chords[i:], start=i + 1)
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
    ascending = sorted((rr.normalized_radius, i) for i, rr in enumerate(ring_radii(rp)))
    for x in geo.intersections:
        assert x.ring == _nearest_ring(ascending, math.hypot(*x.point)), (rp, x)
    _assert_rings_equally_spaced(rp, geo.intersections)
    # The ring check's chord-1 row, scaled by the symmetry, against every crossing.
    per_ring = Counter()
    for _, b, _, ring in geometry._crossings(rp, offsets, 1):
        per_ring[ring] += rp.q + 1 - b
    assert per_ring == Counter(x.ring for x in geo.intersections)


def test_crossing_offsets_match_pairwise_reference():
    for rp in coprime_rotations(80):
        _check_against_pairwise_reference(rp)


def _offsets_in_closed_form(rp):
    # The residues s*p^-1 mod q for s = +-1..+-(p - 1), sorted.
    inverse = pow(rp.p, -1, rp.q)
    return sorted(s * inverse % rp.q for s in range(1 - rp.p, rp.p) if s)


def test_crossing_offsets_in_closed_form():
    # Chord 1 + k crosses chord 1 exactly when s = p*k mod q, taken in
    # (-q/2, q/2), has 1 <= |s| <= p - 1 (crossing_offsets).
    for rp in coprime_rotations(120):
        assert _offsets_in_closed_form(rp) == crossing_offsets(rp), (rp.p, rp.q)


def test_closed_form_offsets_give_the_plateau_counts():
    # A second witness of the paper's schedule, up to MAX_Q, where verify
    # does not reach: plateau d holds the chords between the (d - 1)-th and
    # d-th smallest residue.  The pinned seq pairs, then seeded random ones.
    rng = random.Random(12)
    pairs = [(3901, 999480), (499999, 999999), (7, 999342), (143697, 998639)]
    pairs += [(1, MAX_Q), (49999, 999999), (499997, 999997)]
    while len(pairs) < 20:
        q = rng.randint(3, MAX_Q)
        p = rng.randint(1, (q - 1) // 2)
        if math.gcd(p, q) == 1:
            pairs.append((p, q))
    for p, q in pairs:
        rp = make_rotation(p, q)
        assert (rp.p, rp.q) == (p, q)
        bounds = [0, *_offsets_in_closed_form(rp), q]
        gaps = [b - a for a, b in zip(bounds, bounds[1:])]
        assert gaps == formula._general_counts(rp), (p, q)


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
