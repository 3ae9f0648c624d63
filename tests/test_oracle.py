import math

import pytest

from circle_billiards import cli, geometry, oracle
from circle_billiards.core import coprime_rotations, make_rotation
from circle_billiards.formula import SequenceSource
from circle_billiards.oracle import (
    arrangement_census,
    census_prefixes,
    oracle_sequence,
    verify_pair,
)


def test_oracle_sequence_examples():
    assert list(oracle_sequence(make_rotation(3, 7)).values) == [1, 2, 3, 5, 8, 12, 17, 22]
    assert list(oracle_sequence(make_rotation(1, 5)).values) == [1, 2, 3, 4, 5, 6]
    assert list(oracle_sequence(make_rotation(3, 13)).values) == [
        1, 2, 3, 4, 5, 7, 10, 13, 16, 20, 25, 30, 35, 40,
    ]
    assert oracle_sequence(make_rotation(3, 7)).source is SequenceSource.ORACLE


def test_census_full_orbit_3_7():
    c = arrangement_census(make_rotation(3, 7), 7)
    assert (c.vertices_count, c.edges_count, c.faces_count) == (21, 42, 22)


def test_census_bare_circle():
    c = arrangement_census(make_rotation(3, 7), 0)
    assert (c.vertices_count, c.edges_count, c.faces_count) == (0, 0, 1)


def test_census_partial_3_7():
    assert arrangement_census(make_rotation(3, 7), 3).faces_count == 5
    # one chord cuts the disc in two: 2 vertices, 2 arcs + 1 chord, 2 faces
    one = arrangement_census(make_rotation(3, 7), 1)
    assert (one.vertices_count, one.edges_count, one.faces_count) == (2, 3, 2)


def test_census_bounds():
    rp = make_rotation(3, 7)
    with pytest.raises(ValueError):
        arrangement_census(rp, 8)
    with pytest.raises(ValueError):
        arrangement_census(rp, -1)


@pytest.mark.parametrize("upto_chord", [2.0, "2", None, True])
def test_census_non_int_rejected(upto_chord):
    with pytest.raises(ValueError, match="must be an int"):
        arrangement_census(make_rotation(3, 7), upto_chord)


def test_census_agrees_with_incremental_everywhere():
    for rp in coprime_rotations(30):
        values = oracle_sequence(rp).values
        for n in range(rp.q + 1):
            assert arrangement_census(rp, n).faces_count == values[n], (rp.p, rp.q, n)


def test_full_orbit_census_scan():
    for rp in coprime_rotations(60):
        c = arrangement_census(rp, rp.q)
        assert (c.vertices_count, c.edges_count, c.faces_count) == (
            rp.p * rp.q,
            2 * rp.p * rp.q,
            rp.p * rp.q + 1,
        )


def test_parity_pattern():
    # The chord that first passes the start vertex's angular position in
    # revolution k is chord floor(k*q/p) + 1; it crosses an odd number of
    # chords (even increment).  Every other chord, including the closing
    # one, contributes an odd increment.
    for rp in coprime_rotations(40):
        increments = oracle_sequence(rp).increments
        even_steps = {(k * rp.q) // rp.p + 1 for k in range(1, rp.p)}
        for n, d in enumerate(increments, start=1):
            if n in even_steps:
                assert d % 2 == 0, (rp.p, rp.q, n, d)
            else:
                assert d % 2 == 1, (rp.p, rp.q, n, d)


def test_verify_pair_passes_worked_examples():
    for pq in [(3, 13), (2, 5), (3, 14)]:
        report = verify_pair(make_rotation(*pq))
        assert report.ok, report.failures()


def test_verify_pair_branch_selection():
    names_special = [c.name for c in verify_pair(make_rotation(2, 5)).checks]
    assert "special_form" in names_special  # q = 2p + 1
    assert "r1_form" in names_special  # r = 1

    names_r2 = [c.name for c in verify_pair(make_rotation(3, 14)).checks]
    assert "special_form" not in names_r2
    assert "r1_form" not in names_r2

    names_polygon = [c.name for c in verify_pair(make_rotation(1, 6)).checks]
    assert "r1_form" not in names_polygon  # p = 1 has r = 0


def test_verify_pair_scan_all_green():
    for rp in coprime_rotations(30):
        report = verify_pair(rp)
        assert report.ok, (rp.p, rp.q, report.failures())


def test_verify_pair_computes_offsets_once(monkeypatch):
    calls = []
    true_offsets = geometry.crossing_offsets

    def counted(param):
        calls.append(param)
        return true_offsets(param)

    monkeypatch.setattr(geometry, "crossing_offsets", counted)
    monkeypatch.setattr(oracle, "crossing_offsets", counted)
    report = verify_pair(make_rotation(3, 13))
    assert report.ok, report.failures()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "form, check",
    [
        ("general_sequence", "sequence_construction"),
        ("r1_sequence", "r1_form"),
        ("special_sequence", "special_form"),
    ],
)
def test_form_that_raises_fails_its_check(monkeypatch, capsys, form, check):
    # 3/7 has both q = 2p + 1 and r = 1, so every closed form is built.
    def refuse(*args):
        raise ValueError(f"{form} refused")

    monkeypatch.setattr(oracle, form, refuse)
    report = verify_pair(make_rotation(3, 7))
    assert [c.name for c in report.failures()] == [check]
    assert cli.main(["verify", "--q-max", "7"]) == 1
    assert f"FAIL p=3 q=7 check={check}" in capsys.readouterr().out.splitlines()


_true_chords = geometry.chord_list


def _pinched_chords(param):
    # Vertex 2p (mod q) moved onto vertex 0: chord 2 ends, and chord 3
    # starts, on an already-touched vertex, so the full orbit touches q - 1.
    lost = 2 * param.p % param.q
    return [
        geometry.Chord(
            0 if ch.from_vertex == lost else ch.from_vertex,
            0 if ch.to_vertex == lost else ch.to_vertex,
            ch.step_index,
        )
        for ch in _true_chords(param)
    ]


@pytest.mark.parametrize("pq", [(2, 5), (3, 13), (3, 14)])
def test_full_orbit_census_fails_on_pinched_chord(monkeypatch, pq):
    # Faces do not depend on the touched count, so only the full-orbit
    # vertex and edge totals can catch it.
    rp = make_rotation(*pq)
    monkeypatch.setattr(oracle, "chord_list", _pinched_chords)
    full = census_prefixes(rp)[-1]
    assert (full.vertices_count, full.edges_count) == (rp.p * rp.q - 1, 2 * rp.p * rp.q - 1)
    report = verify_pair(rp)
    assert [c.name for c in report.failures()] == ["full_orbit_census"]


def _rings_check(report):
    (check,) = [c for c in report.checks if c.name == "rings"]
    return check


def test_ring_check_fails_half_step_rotation(monkeypatch):
    # Rotating every vertex by half a step keeps each ring's radius and
    # spacing but puts every crossing half a slot from its place.
    def half_step(param):
        angles = [math.pi * (2 * j + 1) / param.q for j in range(param.q)]
        return [(math.cos(a), math.sin(a)) for a in angles]

    monkeypatch.setattr(geometry, "vertex_positions", half_step)
    report = verify_pair(make_rotation(3, 13))
    assert not _rings_check(report).passed
    assert [c.name for c in report.failures()] == ["rings"]


def test_ring_check_tolerates_tiny_tangential_shift(monkeypatch):
    # One 3/7 crossing on ring 2 (r ~ 0.247) moved 2e-9 rad along its ring
    # is about 5e-10 from its place, inside the 1e-9 tolerance.
    rp = make_rotation(3, 7)
    inner = geometry.ring_radii(rp)[2].normalized_radius
    locate = geometry._line_intersection
    moved = []

    def shifted(*ends):
        x, y = locate(*ends)
        if not moved and abs(math.hypot(x, y) - inner) < 1e-6:
            c, s = math.cos(2e-9), math.sin(2e-9)
            moved.append((x, y))
            return (c * x - s * y, s * x + c * y)
        return (x, y)

    monkeypatch.setattr(geometry, "_line_intersection", shifted)
    report = verify_pair(rp)
    assert moved
    assert report.ok, report.failures()


_true_radii = geometry.ring_radii
_true_vertices = geometry.vertex_positions


def _scaled_radii(param):
    # Rings 1..p-1 pushed out by 1e-6 of their radius: every crossing is off.
    table = _true_radii(param)
    return table[:1] + [
        geometry.RingRadius(rr.ring_index, rr.normalized_radius * (1 + 1e-6))
        for rr in table[1:]
    ]


def _moved_vertex(param):
    # Vertex 7 of 2/9 is shared by chords 8 and 9, which cross chords 3, 4
    # and 5; the first of those crossings in loop order is (3, 8).
    verts = _true_vertices(param)
    verts[7] = (math.cos(4.9), math.sin(4.9))
    return verts


def _nudged_vertex(param):
    # Vertex 7 of 2/9 one ulp off its direction: the bitwise tie to the
    # direction table fails chords 8 and 9, as for _moved_vertex.
    verts = _true_vertices(param)
    x, y = verts[7]
    verts[7] = (math.nextafter(x, 2.0), y)
    return verts


@pytest.mark.parametrize(
    "name, patch, pq, chord",
    [
        ("ring_radii", _scaled_radii, (3, 7), 1),
        ("vertex_positions", _moved_vertex, (2, 9), 3),
        ("vertex_positions", _nudged_vertex, (2, 9), 3),
    ],
    ids=["radius_table", "moved_vertex", "nudged_vertex"],
)
def test_ring_check_reports_first_off_chord(monkeypatch, name, patch, pq, chord):
    monkeypatch.setattr(geometry, name, patch)
    check = _rings_check(verify_pair(make_rotation(*pq)))
    assert (check.passed, check.first_divergence) == (False, chord)


def test_ring_check_builds_nothing_per_crossing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the ring check built a crossing object")

    locate = geometry._line_intersection
    located = []

    def counted(*ends):
        located.append(ends)
        return locate(*ends)

    monkeypatch.setattr(geometry, "Intersection", refuse)
    monkeypatch.setattr(geometry, "TrajectoryGeometry", refuse)
    monkeypatch.setattr(geometry, "_line_intersection", counted)
    report = verify_pair(make_rotation(3, 13))
    assert report.ok, report.failures()
    # Only chord 1's 2(p - 1) crossings are located, not all q(p - 1).
    assert len(located) == 4
    assert cli.main(["verify", "--q-max", "12"]) == 0
    assert "PASS: " in capsys.readouterr().out


def test_verify_pair_holds_at_large_q():
    # p near q/2: the pair has q*(p - 1), about 5e9, crossings, so every
    # stage of verify_pair must be O(q) for this to run in about a second.
    report = verify_pair(make_rotation(49999, 100001))
    assert "rings" in [c.name for c in report.checks]
    assert report.ok, report.failures()
