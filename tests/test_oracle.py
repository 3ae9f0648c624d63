import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circle_billiards import cli, formula, geometry, oracle
from circle_billiards.core import ParameterError, coprime_rotations, make_rotation
from circle_billiards.formula import euler_counts
from circle_billiards.geometry import crossing_offsets
from circle_billiards.oracle import (
    CheckResult,
    arrangement_census,
    census_prefixes,
    oracle_sequence,
    verify_pair,
)
from test_mutations import PAIRS, apply_mutation


def test_oracle_sequence_examples():
    assert list(oracle_sequence(make_rotation(3, 7)).values) == [1, 2, 3, 5, 8, 12, 17, 22]
    assert list(oracle_sequence(make_rotation(1, 5)).values) == [1, 2, 3, 4, 5, 6]
    assert list(oracle_sequence(make_rotation(3, 13)).values) == [
        1, 2, 3, 4, 5, 7, 10, 13, 16, 20, 25, 30, 35, 40,
    ]


def test_no_two_crossings_share_a_place():
    # oracle_sequence's premise, in integers only: crossing (i + 1, i + 1 + k)
    # sits on ring p - |s| at angle pi*(p*(2i + 1) + s)/q, with s = p*k mod q
    # taken in (-q/2, q/2).  Distinct labels mean distinct points, so no
    # three chords meet.
    for rp in coprime_rotations(60):
        p, q = rp.p, rp.q
        labels = []
        for k in crossing_offsets(rp):
            s = p * k % q
            if 2 * s > q:
                s -= q
            labels.extend((p - abs(s), (p * (2 * i + 1) + s) % (2 * q)) for i in range(q - k))
        assert len(labels) == q * (p - 1), (p, q)
        assert len(set(labels)) == len(labels), (p, q)


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
    with pytest.raises(ParameterError):
        arrangement_census(rp, 8)
    with pytest.raises(ParameterError):
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


def test_census_of_one_prefix_is_that_prefix_of_the_pass(monkeypatch):
    # arrangement_census builds the one record it returns, equal in v, e and
    # f to the one census_prefixes builds for that prefix.
    built = []
    record = oracle.ArrangementCensus

    def counted(*counts):
        built.append(counts)
        return record(*counts)

    prefixes = {rp: census_prefixes(rp) for rp in coprime_rotations(30)}
    monkeypatch.setattr(oracle, "ArrangementCensus", counted)
    for rp, census in prefixes.items():
        for n in range(rp.q + 1):
            built.clear()
            assert arrangement_census(rp, n) == census[n], (rp.p, rp.q, n)
            assert len(built) == 1, (rp.p, rp.q, n)


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
    # Each passing pair builds the walk once and tests it for crossings
    # once, and the ring check gets that very offsets list.  No division
    # record is built for the general form, the r = 1 form or the oracle,
    # and neither is the per-prefix census with its set and its tuples.
    calls = []
    computed = []
    true_walk = geometry._walk
    true_offsets = geometry._crossing_offsets
    true_rings = oracle._ring_check

    def counted_walk(param):
        calls.append("walk")
        return true_walk(param)

    def counted_offsets(q, walk):
        calls.append("offsets")
        computed.append(true_offsets(q, walk))
        return computed[-1]

    def seen_rings(param, offsets):
        assert offsets is computed[-1]
        return true_rings(param, offsets)

    def refuse(*args):
        raise AssertionError("verify_pair built a division record or the per-prefix census")

    for module in (geometry, oracle):
        monkeypatch.setattr(module, "_walk", counted_walk)
        monkeypatch.setattr(module, "_crossing_offsets", counted_offsets)
    monkeypatch.setattr(oracle, "_ring_check", seen_rings)
    monkeypatch.setattr(formula, "general_sequence", refuse)
    monkeypatch.setattr(formula, "r1_sequence", refuse)
    monkeypatch.setattr(oracle, "oracle_sequence", refuse)
    monkeypatch.setattr(oracle, "census_prefixes", refuse)
    for pq in [(1, 5), (2, 5), (3, 13), (3, 14)]:
        calls.clear()
        report = verify_pair(make_rotation(*pq))
        assert report.ok, report.failures()
        assert calls == ["walk", "offsets"], pq


def test_faces_census_matches_the_public_census():
    # On every pair with q <= 60 the walk check passes, and the census that
    # verify_pair relies on holds: census_prefixes' faces are the oracle's
    # values, and its full-orbit (v, e) are euler_counts'.
    for rp in coprime_rotations(60):
        assert oracle._off_walk(rp, geometry._walk(rp)) is None, (rp.p, rp.q)
        public = census_prefixes(rp)
        assert [c.faces_count for c in public] == list(oracle_sequence(rp).values), (rp.p, rp.q)
        full = (public[-1].vertices_count, public[-1].edges_count)
        assert full == euler_counts(rp)[:2], (rp.p, rp.q)


def _first_chord_off_walk(rp, walk):
    # Reference: chord 1 if entry 0 is not vertex 0, else the first chord n
    # whose end, entry n, is not p*n mod q or is missing, else chord q + 1
    # for an entry past the q-th.
    p, q = rp.p, rp.q
    true = [p * n % q for n in range(q + 1)]
    return next(n or 1 for n in range(max(len(walk), q + 1)) if walk[n : n + 1] != true[n : n + 1])


def _assert_walk_located(rp):
    # The walk check names the reference chord, and so does verify_pair's
    # full_orbit_census, which the walk check decides before the counts.
    walk = oracle._walk(rp)
    expected = _first_chord_off_walk(rp, walk)
    assert oracle._off_walk(rp, walk) == expected, (rp.p, rp.q)
    (census,) = [c for c in verify_pair(rp).failures() if c.name == "full_orbit_census"]
    assert census.first_divergence == expected, (rp.p, rp.q)


@pytest.mark.parametrize(
    "mutation", ["pinch_chord", "swap_chords", "swap_chords_2_3", "lift_vertex", "unreduced_walk"]
)
def test_walk_check_names_first_chord_off_the_walk(monkeypatch, mutation):
    apply_mutation(monkeypatch, mutation)
    for pq in PAIRS:
        _assert_walk_located(make_rotation(*pq))


def test_walk_check_names_the_chord_past_a_short_or_long_walk():
    # Every step is p, but the walk does not have q + 1 entries: the first
    # chord off the walk is the one missing, or the one too many.
    for pq in PAIRS:
        rp = make_rotation(*pq)
        walk = geometry._walk(rp)
        for wrong, n in [(walk[:-1], rp.q), (walk + walk[1:2], rp.q + 1)]:
            assert _first_chord_off_walk(rp, wrong) == n
            assert oracle._off_walk(rp, wrong) == n


def test_walk_check_names_first_of_two_swapped_vertices(monkeypatch):
    # Three random swaps of two of the q distinct entries 0..q-1 for every
    # pair with q <= 30.
    rng = random.Random(30)
    true_walk = geometry._walk
    for rp in coprime_rotations(30):
        for _ in range(3):
            i, j = rng.sample(range(rp.q), 2)

            def swapped(param, i=i, j=j):
                walk = true_walk(param)
                walk[i], walk[j] = walk[j], walk[i]
                return walk

            monkeypatch.setattr(oracle, "_walk", swapped)
            _assert_walk_located(rp)


def _values(counts):
    # Reference: f_0..f_q of counts[d - 1] chords adding d, for d = 1, 2, ...
    steps = [d for d, c in enumerate(counts, 1) for _ in range(c)]
    return list(itertools.accumulate(steps, initial=1))


def _shift_counts(rng, counts):
    # One chord moved from plateau d down to d - 1 and one from plateau e
    # up to e + 1, with e != d - 1: q and f_q stay, so _check_counts passes.
    counts = list(counts)
    d = rng.choice([d for d in range(2, len(counts) + 1) if counts[d - 1]])
    counts[d - 1] -= 1
    counts[d - 2] += 1
    e = rng.choice([e for e in range(1, len(counts)) if counts[e - 1] and e != d - 1])
    counts[e - 1] -= 1
    counts[e] += 1
    return counts


def _shift_offsets(rng, q, offsets):
    # One offset up by 1 and another down by 1, kept in order within 0..q:
    # the crossing total q*(p - 1) = sum of q - k, and so f_q, stays.
    bounds = [0, *offsets, q]
    ups = [i for i in range(1, len(bounds) - 1) if bounds[i] < bounds[i + 1]]
    i = rng.choice(ups)
    bounds[i] += 1
    downs = [j for j in range(1, len(bounds) - 1) if j != i and bounds[j] > bounds[j - 1]]
    j = rng.choice(downs)
    bounds[j] -= 1
    return bounds[1:-1]


def test_general_vs_oracle_names_the_first_differing_value(monkeypatch):
    # Seeded corruptions of the general counts and of the crossing offsets
    # that still pass _check_counts: general_vs_oracle, and
    # census_vs_general with it, fail at the first index where the two
    # sides' values differ.
    rng = random.Random(31)
    true_counts = formula._general_counts
    true_offsets = geometry._crossing_offsets
    cases = [rp for rp in coprime_rotations(40) if rp.p > 1]
    for rp in rng.sample(cases, 40):
        for side in ("counts", "offsets"):
            counts = true_counts(rp)
            offsets = true_offsets(rp.q, geometry._walk(rp))
            if side == "counts":
                counts = _shift_counts(rng, counts)
            else:
                offsets = _shift_offsets(rng, rp.q, offsets)
            found = oracle._oracle_counts(rp.q, offsets)
            formula._check_counts(rp, counts)
            formula._check_counts(rp, found)
            monkeypatch.setattr(oracle, "_general_counts", lambda param, c=counts: list(c))
            monkeypatch.setattr(oracle, "_crossing_offsets", lambda q, walk, o=offsets: list(o))
            general, oracle_values = _values(counts), _values(found)
            n = next(n for n, (a, b) in enumerate(zip(general, oracle_values)) if a != b)
            failures = {c.name: c.first_divergence for c in verify_pair(rp).failures()}
            assert failures["general_vs_oracle"] == n, (rp.p, rp.q, side)
            assert failures["census_vs_general"] == n, (rp.p, rp.q, side)


@pytest.mark.parametrize(
    "form, check",
    [
        ("_general_counts", "sequence_construction"),
        ("_r1_counts", "r1_form"),
        ("special_sequence", "special_form"),
    ],
)
def test_form_that_raises_fails_its_check(monkeypatch, capsys, form, check):
    # 3/7 has both q = 2p + 1 and r = 1, so every closed form is built.
    # verify_pair reads the general form as its plateau counts.
    def refuse(*args):
        raise ValueError(f"{form} refused")

    monkeypatch.setattr(oracle, form, refuse)
    report = verify_pair(make_rotation(3, 7))
    assert [c.name for c in report.failures()] == [check]
    assert cli.main(["verify", "--q-max", "7"]) == 1
    assert f"FAIL p=3 q=7 check={check}" in capsys.readouterr().out.splitlines()


def test_raising_r1_counts_fails_r1_form_on_every_r1_pair(monkeypatch):
    # r1_form fails alone, naming no value.
    def refuse(param):
        raise ValueError("_r1_counts refused")

    monkeypatch.setattr(oracle, "_r1_counts", refuse)
    r1_pairs = [rp for rp in map(make_rotation, *zip(*PAIRS)) if rp.r == 1]
    assert len(r1_pairs) == 5
    for rp in r1_pairs:
        failures = verify_pair(rp).failures()
        assert [(c.name, c.first_divergence) for c in failures] == [("r1_form", None)], rp


@pytest.mark.parametrize("pq", [(2, 9), (3, 13), (3, 14)])
def test_full_orbit_census_fails_on_pinched_chord(monkeypatch, pq):
    # Faces do not depend on the touched count, so only the full-orbit
    # vertex and edge totals can catch it.  With 3p < q chord 3 does not
    # cross chord 1, so the crossing offsets do not move either.
    rp = make_rotation(*pq)
    # Vertex 2p (mod q) moved onto vertex 0: chord 2 ends, and chord 3
    # starts, on an already-touched vertex, so the full orbit touches q - 1.
    apply_mutation(monkeypatch, "pinch_chord")
    full = census_prefixes(rp)[-1]
    assert (full.vertices_count, full.edges_count) == (rp.p * rp.q - 1, 2 * rp.p * rp.q - 1)
    report = verify_pair(rp)
    assert [c.name for c in report.failures()] == ["full_orbit_census"]


def _compare_by_loop(name, xs, ys):
    # Reference: _compare's loop alone, without the == that decides a pass.
    for n, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return CheckResult(name, False, n)
    if len(xs) != len(ys):
        return CheckResult(name, False, min(len(xs), len(ys)))
    return CheckResult(name, True)


@st.composite
def _sequence_pairs(draw):
    # Equal sequences, a difference at index i, or a strict prefix.
    xs = draw(st.lists(st.integers(0, 3), max_size=8))
    how = draw(st.sampled_from(["equal", "differ", "prefix"]))
    ys = list(xs)
    if how == "differ" and xs:
        i = draw(st.integers(0, len(xs) - 1))
        ys[i] += draw(st.integers(1, 3))
    elif how == "prefix" and xs:
        ys = xs[: draw(st.integers(0, len(xs) - 1))]
    return (xs, ys) if draw(st.booleans()) else (ys, xs)


@given(_sequence_pairs(), st.sampled_from([tuple, list]))
def test_compare_reports_what_the_loop_reports(pair, kind):
    # The sequence checks compare two tuples of values, the walk check two lists.
    xs, ys = map(kind, pair)
    assert oracle._compare("c", xs, ys) == _compare_by_loop("c", xs, ys)


def test_ring_check_counts_each_ring_once():
    # p = 1 has one ring, the circle, and no crossing: its one count is 0.
    for q in range(3, 13):
        rp = make_rotation(1, q)
        assert oracle._ring_check(rp, geometry.crossing_offsets(rp)) == CheckResult("rings", True)
    # Offset 1 puts the meeting of chords 1 and 2, their shared vertex, on
    # ring 0, whose count must stay 0.
    for pq in [(1, 5), (2, 5), (3, 13)]:
        rp = make_rotation(*pq)
        offsets = sorted({1, *geometry.crossing_offsets(rp)})
        assert oracle._ring_check(rp, offsets) == CheckResult("rings", False)


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


@pytest.mark.parametrize(
    "mutation, pq, chord",
    [
        # Rings 1..p-1 pushed out by 1e-6 of their radius: every crossing is off.
        ("scale_rings", (3, 7), 1),
        # Vertex 7 of 2/9 is shared by chords 8 and 9 (2 * 8 = 16 = 7 mod 9);
        # the first of them in step order is chord 8.
        ("move_vertex", (2, 9), 8),
        # Vertex 7 of 2/9 one ulp off its direction: the bitwise tie to the
        # direction table names chord 8, as for move_vertex.
        ("nudge_vertex", (2, 9), 8),
    ],
    ids=["radius_table", "moved_vertex", "nudged_vertex"],
)
def test_ring_check_reports_first_off_chord(monkeypatch, mutation, pq, chord):
    apply_mutation(monkeypatch, mutation)
    check = _rings_check(verify_pair(make_rotation(*pq)))
    assert (check.passed, check.first_divergence) == (False, chord)


def _first_chord_through(rp, j):
    # Reference: the first chord n in 1..q whose endpoints p(n - 1) and pn
    # (mod q) include vertex j.
    p, q = rp.p, rp.q
    return next(n for n in range(1, q + 1) if j in {p * (n - 1) % q, p * n % q})


def _nudged(true_vertices, *untied):
    # Each vertex in untied one ulp off its direction.
    def nudged(param):
        verts = true_vertices(param)
        for j in untied:
            x, y = verts[j]
            verts[j] = (math.nextafter(x, 2.0), y)
        return verts

    return nudged


def test_ring_check_names_first_chord_through_any_untied_vertex(monkeypatch):
    # One untied vertex for every pair with q <= 30, then every two untied
    # vertices for every pair with q <= 15.
    true_vertices = geometry.vertex_positions
    cases = [(rp, (j,)) for rp in coprime_rotations(30) for j in range(rp.q)]
    cases += [
        (rp, (j, k))
        for rp in coprime_rotations(15)
        for j in range(rp.q)
        for k in range(j + 1, rp.q)
    ]
    for rp, untied in cases:
        monkeypatch.setattr(geometry, "vertex_positions", _nudged(true_vertices, *untied))
        check = _rings_check(verify_pair(rp))
        expected = (False, min(_first_chord_through(rp, j) for j in untied))
        assert (check.passed, check.first_divergence) == expected, (rp.p, rp.q, untied)


def test_ring_check_builds_nothing_per_crossing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the ring check built a crossing object")

    locate = geometry._line_intersection
    located = []

    def counted(*ends):
        located.append(ends)
        return locate(*ends)

    true_radii = geometry._radii
    read = []

    def radii_counted(param):
        read.append(param)
        return true_radii(param)

    monkeypatch.setattr(geometry, "Intersection", refuse)
    monkeypatch.setattr(geometry, "TrajectoryGeometry", refuse)
    monkeypatch.setattr(geometry, "_line_intersection", counted)
    monkeypatch.setattr(geometry, "_radii", radii_counted)
    monkeypatch.setattr(oracle, "_radii", radii_counted, raising=False)
    report = verify_pair(make_rotation(3, 13))
    assert report.ok, report.failures()
    # Only chord 1's 2(p - 1) crossings are located, not all q(p - 1), and
    # the radii are read once, by geometry._crossings.
    assert len(located) == 4
    assert len(read) == 1
    assert cli.main(["verify", "--q-max", "12"]) == 0
    assert "PASS: " in capsys.readouterr().out


def test_verify_builds_no_public_record(monkeypatch, capsys):
    # The census reads plain chord ends and the ring check plain floats, so
    # verify_pair and `verify` never build a Chord or a RingRadius.
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a public record")

    monkeypatch.setattr(geometry, "Chord", refuse)
    monkeypatch.setattr(geometry, "RingRadius", refuse)
    report = verify_pair(make_rotation(3, 13))
    assert report.ok, report.failures()
    assert cli.main(["verify", "--q-max", "12"]) == 0
    assert "PASS: " in capsys.readouterr().out


def test_passing_checks_are_shared_and_equal_fresh_ones():
    first = verify_pair(make_rotation(3, 13)).checks
    second = verify_pair(make_rotation(2, 9)).checks
    assert all(a is b for a, b in zip(first[:3], second[:3]))
    assert first == tuple(CheckResult(c.name, True) for c in first)
    assert repr(first[0]) == (
        "CheckResult(name='general_vs_oracle', passed=True, first_divergence=None)"
    )


def test_chord_ends_have_one_owner(monkeypatch):
    # A wrong walk shows in the public chord_list and in the census alike.
    rp = make_rotation(3, 13)
    lost = 2 * rp.p % rp.q
    before = census_prefixes(rp)
    apply_mutation(monkeypatch, "pinch_chord")
    drawn = {v for ch in geometry.chord_list(rp) for v in (ch.from_vertex, ch.to_vertex)}
    assert drawn == set(range(rp.q)) - {lost}
    after = census_prefixes(rp)
    assert after[-1].vertices_count == before[-1].vertices_count - 1


def test_radii_have_one_owner(monkeypatch):
    # A wrong radius table shows in the public ring_radii and in the ring check alike.
    rp = make_rotation(3, 13)
    before = [rr.normalized_radius for rr in geometry.ring_radii(rp)]
    apply_mutation(monkeypatch, "scale_rings")
    after = [rr.normalized_radius for rr in geometry.ring_radii(rp)]
    assert after == [before[0]] + [r * (1 + 1e-6) for r in before[1:]]
    assert not _rings_check(verify_pair(rp)).passed


def test_verify_pair_holds_at_large_q(monkeypatch):
    # p near q/2: the pair has q*(p - 1), about 5e9, crossings, so every
    # stage of verify_pair must be O(q) for this to run in about a second.
    rp = make_rotation(49999, 100001)
    report = verify_pair(rp)
    assert "rings" in [c.name for c in report.checks]
    assert report.ok, report.failures()
    # Vertex 30001 one ulp off: 49999 * 13333 = 30001 (mod 100001), so
    # chord 13333 is the first chord in step order through it.
    monkeypatch.setattr(
        geometry, "vertex_positions", _nudged(geometry.vertex_positions, 30001)
    )
    check = _rings_check(verify_pair(rp))
    assert (check.passed, check.first_divergence) == (False, 13333)
