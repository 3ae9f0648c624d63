"""Mutation corpus: every check of verify_pair can fail, for the reason it names.

Each case replaces one layer's function by a wrong one and runs verify_pair
on every pair of PAIRS.  The table pins, for each pair, the failing checks
with their first_divergence, in report order; "raises" names an exception
that escaped verify_pair instead.  An empty entry means no check caught the
mutation there.  Those gaps are findings, not cases to drop:

- the p = 1 rows of swap_rings, the offset mutations other than
  add_offset, and move_plateau_boundary, where the mutation changes
  nothing (one ring, no offset, no plateau boundary);
- nudge_vertex_direction: the drawn vertices and the ring check read one
  direction table, so the vertex tie cannot see an error in the table
  itself, and one ulp moves a crossing far less than the ring tolerance.
  A larger table error still shows at the crossings' places, which rest on
  ring_radii's own formula (move_direction_1; at p = 1 nothing is placed).

A closed form that does not apply to a pair (special_form needs q = 2p + 1,
r1_form needs r = 1) is not built there, so its mutation cannot show.
"""

import functools
import math

import pytest

from circle_billiards import formula, geometry, oracle
from circle_billiards.core import make_rotation
from circle_billiards.formula import DivisionSequence
from circle_billiards.oracle import verify_pair

# q = 2p + 1: 1/3, 2/5, 3/7; r = 1: 2/5, 2/9, 2/13, 3/7, 3/13; p = 1: 1/3,
# 1/5; r >= 2: 3/14, 5/13.  In 2/13 a ring index p - |s| can fall below -p.
PAIRS = [(1, 3), (1, 5), (2, 5), (2, 9), (2, 13), (3, 7), (3, 13), (3, 14), (5, 13)]


def _rotate(true, param):
    # Vertex j drawn at the exact table place of vertex j + 1.
    verts = true(param)
    return verts[1:] + verts[:1]


def _move(true, param):
    # Vertex q - 2 (vertex 7 of 2/9) moved to angle 4.9.
    verts = true(param)
    verts[-2] = (math.cos(4.9), math.sin(4.9))
    return verts


def _nudge(true, param):
    # Vertex q - 2 one ulp off its direction.
    verts = true(param)
    x, y = verts[-2]
    verts[-2] = (math.nextafter(x, 2.0), y)
    return verts


def _nudge_direction(true, q):
    # Slot 2(q - 2) of the direction table, vertex q - 2's, one ulp off.
    table = list(true(q))
    x, y = table[2 * (q - 2)]
    table[2 * (q - 2)] = (math.nextafter(x, 2.0), y)
    return table


def _move_direction_1(true, q):
    # Slot 1 of the direction table turned by 1e-6 rad.
    table = list(true(q))
    table[1] = (math.cos(math.pi / q + 1e-6), math.sin(math.pi / q + 1e-6))
    return table


def _scale_rings(true, param):
    # Rings 1..p-1 pushed out by 1e-6 of their radius.
    table = true(param)
    return table[:1] + [r * (1 + 1e-6) for r in table[1:]]


def _swap_rings(true, param):
    # The two innermost radii exchanged (rings p - 2 and p - 1), as floats.
    table = true(param)
    if len(table) < 2:
        return table
    *rest, a, b = table
    return [*rest, b, a]


def _pinch(true, param):
    # Vertex 2p (mod q), walk entry 2, moved onto vertex 0.
    lost = 2 * param.p % param.q
    return [0 if j == lost else j for j in true(param)]


def _swap_chords(true, param):
    # Walk entries 1 and q - 1 (vertices p and -p) exchanged: chord 1 then
    # runs from 0 to -p and chord q from p to 0, the ends of the last and
    # the first chord traced backwards.
    walk = true(param)
    walk[1], walk[-2] = walk[-2], walk[1]
    return walk


def _swap_chords_2_3(true, param):
    # Walk entries 2 and 3 (vertices 2p and 3p) exchanged: chord 2 then
    # spans 2p and chord 4 starts at 2p.
    walk = true(param)
    walk[2], walk[3] = walk[3], walk[2]
    return walk


def _lift_vertex(true, param):
    # Walk entry 2 (vertex 2p mod q) raised by q: the same vertex mod q, so
    # every step is still p mod q.
    walk = true(param)
    walk[2] += param.q
    return walk


def _unreduced_walk(true, param):
    # The walk p*n for n = 0..q, not reduced mod q: chord 1 is right, every
    # step is p, and only the vertex numbers past q - 1 are off.
    return [param.p * n for n in range(param.q + 1)]


def _drop_offset(true, q, walk):
    # The smallest crossing offset left out.
    return true(q, walk)[1:]


def _add_offset(true, q, walk):
    # Offset 1 added: chords n and n + 1 share a vertex and never cross.
    return sorted({1, *true(q, walk)})


def _move_offset_pair(true, q, walk):
    # The pair k, q - k of the smallest offset replaced by 1, q - 1: the
    # crossing total, and so f_q, stays, but every ring count moves.
    offsets = true(q, walk)
    if not offsets:
        return offsets
    k = offsets[0]
    return sorted({1, q - 1, *offsets} - {k, q - k})


def _move_offset_pair_far(true, q, walk):
    # As _move_offset_pair, but onto the pair k, q - k with |s| = q // 2
    # (s = p*k mod q taken in (-q/2, q/2)): its ring p - |s| is 0 or
    # negative, off the rings that carry crossings.  Chord 1 ends at p.
    offsets = true(q, walk)
    if not offsets:
        return offsets
    k, p = offsets[0], walk[1]
    far = q // 2 * pow(p, -1, q) % q
    return sorted({far, q - far, *offsets} - {k, q - k})


def _move_plateau_boundary(true, param):
    # One chord of plateau 1 and one of plateau 3 moved onto plateau 2: q
    # and f_q stay, and chord m adds 2 where it added 1.  At p = 1 there is
    # no plateau 2.
    counts = true(param)
    if len(counts) > 1:
        counts[0] -= 1
        counts[1] += 2
        counts[2] -= 1
    return counts


def _change_value(true, *args):
    # f_n + 1 at the first n whose increment can grow while the next one
    # shrinks; with no such n (p = 1) f_1 + 1, which breaks the invariants.
    seq = true(*args)
    values = list(seq.values)
    steps = seq.increments
    top = 2 * seq.param.p - 1
    n = next((n for n in range(1, len(steps)) if steps[n - 1] < top and steps[n] > 1), 1)
    values[n] += 1
    return DivisionSequence(seq.param, tuple(values))


def _change_r1_count(true, param):
    # One chord of plateau 1 moved onto plateau 2: chord m adds 2 where it
    # added 1, so f_n + 1 for every n >= m.  r = 1 implies p >= 2.
    counts = true(param)
    counts[0] -= 1
    counts[1] += 1
    return counts


def _spare_chord_one(true, normal_a, normal_b, d):
    # Every crossing off by 1e-6 unless its earlier chord is chord 1, whose
    # normal is the table direction p with cosine d.
    x, y = true(normal_a, normal_b, d)
    return (x, y) if normal_a[0] == d else (x + 1e-6, y)


# name -> (modules whose binding is replaced, function name, mutant).
# verify_pair and the public census read their walk from oracle._walk, and
# verify_pair tests it with oracle._crossing_offsets and reads the plateau
# counts from oracle._general_counts and the r = 1 form's from
# oracle._r1_counts; chord_list, crossing_offsets, the vertex-tie locator
# and general_sequence read their own module's binding.
# The ring mutations replace geometry._radii, the floats that ring_radii
# wraps and the ring check reads.
MUTATIONS = {
    "rotate_vertices": ((geometry,), "vertex_positions", _rotate),
    "move_vertex": ((geometry,), "vertex_positions", _move),
    "nudge_vertex": ((geometry,), "vertex_positions", _nudge),
    "nudge_vertex_direction": ((geometry,), "_directions", _nudge_direction),
    "move_direction_1": ((geometry,), "_directions", _move_direction_1),
    "scale_rings": ((geometry,), "_radii", _scale_rings),
    "swap_rings": ((geometry,), "_radii", _swap_rings),
    "pinch_chord": ((geometry, oracle), "_walk", _pinch),
    "swap_chords": ((geometry, oracle), "_walk", _swap_chords),
    "swap_chords_2_3": ((geometry, oracle), "_walk", _swap_chords_2_3),
    "lift_vertex": ((geometry, oracle), "_walk", _lift_vertex),
    "unreduced_walk": ((geometry, oracle), "_walk", _unreduced_walk),
    "drop_offset": ((geometry, oracle), "_crossing_offsets", _drop_offset),
    "add_offset": ((geometry, oracle), "_crossing_offsets", _add_offset),
    "move_offset_pair": ((geometry, oracle), "_crossing_offsets", _move_offset_pair),
    "move_offset_pair_far": ((geometry, oracle), "_crossing_offsets", _move_offset_pair_far),
    "move_plateau_boundary": ((formula, oracle), "_general_counts", _move_plateau_boundary),
    "change_special_value": ((oracle,), "special_sequence", _change_value),
    "change_r1_value": ((oracle,), "_r1_counts", _change_r1_count),
    "spare_chord_one_locator": ((geometry,), "_line_intersection", _spare_chord_one),
}


def _outcome(pq):
    try:
        report = verify_pair(make_rotation(*pq))
    except Exception as exc:  # an escape is a finding the table pins
        return ("raises", type(exc).__name__)
    return tuple((c.name, c.first_divergence) for c in report.failures())


def apply_mutation(monkeypatch, name):
    """Replace the named mutation's function in each module MUTATIONS lists."""
    modules, attr, mutant = MUTATIONS[name]
    wrong = functools.partial(mutant, getattr(modules[0], attr))
    for module in modules:
        monkeypatch.setattr(module, attr, wrong)


def run_mutation(monkeypatch, name):
    """{pair: outcome} for the named mutation over PAIRS."""
    apply_mutation(monkeypatch, name)
    return {f"{p}/{q}": _outcome((p, q)) for p, q in PAIRS}


def _beyond_p1(*outcome):
    """The outcome on every pair with p >= 2; the p = 1 pairs pass."""
    return {f"{p}/{q}": (outcome if p > 1 else ()) for p, q in PAIRS}


def _everywhere(*outcome):
    return {f"{p}/{q}": outcome for p, q in PAIRS}


# Vertex q - 2 is p*n (mod q) for the n below, so chord n, which ends there,
# is the first chord in step order through it (move_vertex, nudge_vertex).
_vertex_q_minus_2 = {
    pq: (("rings", n),)
    for pq, n in {
        "1/3": 1,
        "1/5": 3,
        "2/5": 4,
        "2/9": 8,
        "2/13": 12,
        "3/7": 4,
        "3/13": 8,
        "3/14": 4,
        "5/13": 10,
    }.items()
}

EXPECTED = {
    "rotate_vertices": _everywhere(("rings", 1)),
    "move_vertex": _vertex_q_minus_2,
    "nudge_vertex": _vertex_q_minus_2,
    "nudge_vertex_direction": _everywhere(),
    "move_direction_1": _beyond_p1(("rings", 1)),
    "scale_rings": _beyond_p1(("rings", 1)),
    "swap_rings": _beyond_p1(("rings", None)),
    # The walk check runs first, so every row names the chord whose step
    # the moved vertex breaks.  Where 3p > q, chord 3 crosses chord 1 and
    # the pinch moves its start onto vertex 0, so the offsets lose one as
    # well; elsewhere only the walk check sees that chord 2 now ends on
    # vertex 0 and so does not span p.
    "pinch_chord": {
        **_everywhere(("full_orbit_census", 2)),
        "2/5": (("sequence_construction", None), ("full_orbit_census", 2)),
        "3/7": (("sequence_construction", None), ("full_orbit_census", 2)),
        "5/13": (("sequence_construction", None), ("full_orbit_census", 2)),
    },
    # Chord 1 now runs from 0 to -p.  At p = 1 it crosses nothing either
    # way, so only the walk check sees it; at p >= 2 its crossings move too.
    "swap_chords": {
        **_beyond_p1(("sequence_construction", None), ("full_orbit_census", 1)),
        "1/3": (("full_orbit_census", 1),),
        "1/5": (("full_orbit_census", 1),),
    },
    # Where 3p < q the swap keeps chord 1's crossings and the touched set;
    # chord 2 then spans 2p, not p.
    "swap_chords_2_3": {
        **_everywhere(("full_orbit_census", 2)),
        "2/5": (("sequence_construction", None), ("full_orbit_census", 2)),
        "3/7": (("sequence_construction", None), ("full_orbit_census", 2)),
        "5/13": (("sequence_construction", None), ("full_orbit_census", 2)),
    },
    # A vertex off by a multiple of q keeps every step p mod q; the walk
    # check compares each entry with p*n mod q, so it names the first chord
    # that ends off the reduced walk.
    "lift_vertex": _everywhere(("full_orbit_census", 2)),
    # Chord n ends at p*n, which first leaves 0..q-1 at n = ceil(q/p); the
    # offsets read vertex numbers that no longer wrap, so the counts break.
    "unreduced_walk": {
        pq: (("sequence_construction", None), ("full_orbit_census", n))
        for pq, n in {
            "1/3": 3,
            "1/5": 5,
            "2/5": 3,
            "2/9": 5,
            "2/13": 7,
            "3/7": 3,
            "3/13": 5,
            "3/14": 5,
            "5/13": 3,
        }.items()
    },
    "drop_offset": _beyond_p1(("sequence_construction", None)),
    "add_offset": _everywhere(("sequence_construction", None)),
    "move_offset_pair": _beyond_p1(
        ("general_vs_oracle", 2), ("census_vs_general", 2), ("rings", None)
    ),
    "move_offset_pair_far": {
        "1/3": (),
        "1/5": (),
        "2/5": (("general_vs_oracle", 2), ("census_vs_general", 2), ("rings", None)),
        "2/9": (("general_vs_oracle", 3), ("census_vs_general", 3), ("rings", 1)),
        "2/13": (("general_vs_oracle", 4), ("census_vs_general", 4), ("rings", 1)),
        "3/7": (("general_vs_oracle", 2), ("census_vs_general", 2), ("rings", None)),
        "3/13": (("general_vs_oracle", 3), ("census_vs_general", 3), ("rings", 1)),
        # q even: k = q - k = 7, so the crossing total changes.
        "3/14": (("sequence_construction", None),),
        "5/13": (("general_vs_oracle", 3), ("census_vs_general", 3), ("rings", 1)),
    },
    "move_plateau_boundary": {
        "1/3": (),
        "1/5": (),
        "2/5": (
            ("general_vs_oracle", 2),
            ("census_vs_general", 2),
            ("special_form", 2),
            ("r1_form", 2),
        ),
        "2/9": (("general_vs_oracle", 4), ("census_vs_general", 4), ("r1_form", 4)),
        "2/13": (("general_vs_oracle", 6), ("census_vs_general", 6), ("r1_form", 6)),
        "3/7": (
            ("general_vs_oracle", 2),
            ("census_vs_general", 2),
            ("special_form", 2),
            ("r1_form", 2),
        ),
        "3/13": (("general_vs_oracle", 4), ("census_vs_general", 4), ("r1_form", 4)),
        "3/14": (("general_vs_oracle", 4), ("census_vs_general", 4)),
        "5/13": (("general_vs_oracle", 2), ("census_vs_general", 2)),
    },
    "change_special_value": {
        **_everywhere(),
        "1/3": (("special_form", None),),
        "2/5": (("special_form", 2),),
        "3/7": (("special_form", 2),),
    },
    "change_r1_value": {
        **_everywhere(),
        "2/5": (("r1_form", 2),),
        "2/9": (("r1_form", 4),),
        "2/13": (("r1_form", 6),),
        "3/7": (("r1_form", 2),),
        "3/13": (("r1_form", 4),),
    },
    # The documented blind spot of the O(q) ring check: it locates only the
    # crossings of chord 1 and takes the rest from the rotational symmetry,
    # so a locator wrong off chord 1 alone passes.  intersection_points,
    # which locates every crossing, reports chord 2 on every p >= 2 pair
    # (test_blind_spot_is_caught_by_the_full_loop).
    "spare_chord_one_locator": _everywhere(),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_is_caught_where_pinned(monkeypatch, name):
    assert run_mutation(monkeypatch, name) == EXPECTED[name]


def test_unmutated_pairs_pass():
    assert {f"{p}/{q}": _outcome((p, q)) for p, q in PAIRS} == dict.fromkeys(
        (f"{p}/{q}" for p, q in PAIRS), ()
    )


def test_blind_spot_is_caught_by_the_full_loop(monkeypatch):
    _, attr, mutant = MUTATIONS["spare_chord_one_locator"]
    monkeypatch.setattr(geometry, attr, functools.partial(mutant, getattr(geometry, attr)))
    for p, q in PAIRS:
        if p > 1:
            with pytest.raises(geometry.RingAssignmentError) as err:
                geometry.intersection_points(make_rotation(p, q))
            assert err.value.chord_a == 2, (p, q)
