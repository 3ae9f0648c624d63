"""Mutation corpus: every check of verify_pair can fail, for the reason it names.

Each case replaces one layer's function by a wrong one and runs verify_pair
on every pair of PAIRS.  The table pins, for each pair, the failing checks
with their first_divergence, in report order; "raises" names an exception
that escaped verify_pair instead.  An empty entry means no check caught the
mutation there.  Those gaps are findings, not cases to drop:

- a vertex mutation at p = 1, where no crossing involves any chord, so the
  ring check has nothing to tie the vertices through;
- swap_chords: the census counts only which boundary vertices are touched,
  and its faces do not depend on them, so reordering chords is invisible;
- the p = 1 rows of swap_rings, the offset mutations other than
  add_offset, and move_plateau_boundary, where the mutation changes
  nothing (one ring, no offset, no plateau boundary).

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


def _scale_rings(true, param):
    # Rings 1..p-1 pushed out by 1e-6 of their radius.
    table = true(param)
    return table[:1] + [
        geometry.RingRadius(rr.ring_index, rr.normalized_radius * (1 + 1e-6))
        for rr in table[1:]
    ]


def _swap_rings(true, param):
    # The two innermost radii exchanged (rings p - 2 and p - 1).
    table = true(param)
    if len(table) < 2:
        return table
    *rest, a, b = table
    return [
        *rest,
        geometry.RingRadius(a.ring_index, b.normalized_radius),
        geometry.RingRadius(b.ring_index, a.normalized_radius),
    ]


def _pinch(true, param):
    # Vertex 2p (mod q) moved onto vertex 0.
    lost = 2 * param.p % param.q
    return [
        geometry.Chord(
            0 if ch.from_vertex == lost else ch.from_vertex,
            0 if ch.to_vertex == lost else ch.to_vertex,
            ch.step_index,
        )
        for ch in true(param)
    ]


def _swap_chords(true, param):
    # The first and the last chord exchanged in traversal order.
    chords = true(param)
    chords[0], chords[-1] = chords[-1], chords[0]
    return chords


def _drop_offset(true, param):
    # The smallest crossing offset left out.
    return true(param)[1:]


def _add_offset(true, param):
    # Offset 1 added: chords n and n + 1 share a vertex and never cross.
    return sorted({1, *true(param)})


def _move_offset_pair(true, param):
    # The pair k, q - k of the smallest offset replaced by 1, q - 1: the
    # crossing total, and so f_q, stays, but every ring count moves.
    offsets = true(param)
    if not offsets:
        return offsets
    k, q = offsets[0], param.q
    return sorted({1, q - 1, *offsets} - {k, q - k})


def _move_offset_pair_far(true, param):
    # As _move_offset_pair, but onto the pair k, q - k with |s| = q // 2
    # (s = p*k mod q taken in (-q/2, q/2)): its ring p - |s| is 0 or
    # negative, off the rings that carry crossings.
    offsets = true(param)
    if not offsets:
        return offsets
    k, q = offsets[0], param.q
    far = q // 2 * pow(param.p, -1, q) % q
    return sorted({far, q - far, *offsets} - {k, q - k})


def _move_plateau_boundary(true, param):
    # The first change of increment moved one chord earlier.
    steps = true(param)
    for n in range(len(steps) - 1):
        if steps[n] != steps[n + 1]:
            steps[n], steps[n + 1] = steps[n + 1], steps[n]
            break
    return steps


def _change_value(true, *args):
    # f_n + 1 at the first n whose increment can grow while the next one
    # shrinks; with no such n (p = 1) f_1 + 1, which breaks the invariants.
    seq = true(*args)
    values = list(seq.values)
    steps = seq.increments
    top = 2 * seq.param.p - 1
    n = next((n for n in range(1, len(steps)) if steps[n - 1] < top and steps[n] > 1), 1)
    values[n] += 1
    return DivisionSequence(seq.param, tuple(values), seq.source)


def _spare_chord_one(true, normal_a, normal_b, d):
    # Every crossing off by 1e-6 unless its earlier chord is chord 1, whose
    # normal is the table direction p with cosine d.
    x, y = true(normal_a, normal_b, d)
    return (x, y) if normal_a[0] == d else (x + 1e-6, y)


# name -> (modules whose binding is replaced, function name, mutant).  The
# census reads its chord endpoints from oracle.chord_list; crossing_offsets
# derives its own, so the chord mutations reach the census alone.
MUTATIONS = {
    "rotate_vertices": ((geometry,), "vertex_positions", _rotate),
    "move_vertex": ((geometry,), "vertex_positions", _move),
    "nudge_vertex": ((geometry,), "vertex_positions", _nudge),
    "scale_rings": ((geometry, oracle), "ring_radii", _scale_rings),
    "swap_rings": ((geometry, oracle), "ring_radii", _swap_rings),
    "pinch_chord": ((oracle,), "chord_list", _pinch),
    "swap_chords": ((oracle,), "chord_list", _swap_chords),
    "drop_offset": ((geometry, oracle), "crossing_offsets", _drop_offset),
    "add_offset": ((geometry, oracle), "crossing_offsets", _add_offset),
    "move_offset_pair": ((geometry, oracle), "crossing_offsets", _move_offset_pair),
    "move_offset_pair_far": ((geometry, oracle), "crossing_offsets", _move_offset_pair_far),
    "move_plateau_boundary": ((formula,), "_general_increments", _move_plateau_boundary),
    "change_special_value": ((oracle,), "special_sequence", _change_value),
    "change_r1_value": ((oracle,), "r1_sequence", _change_value),
    "spare_chord_one_locator": ((geometry,), "_line_intersection", _spare_chord_one),
}


def _outcome(pq):
    try:
        report = verify_pair(make_rotation(*pq))
    except Exception as exc:  # an escape is a finding the table pins
        return ("raises", type(exc).__name__)
    return tuple((c.name, c.first_divergence) for c in report.failures())


def run_mutation(monkeypatch, name):
    """{pair: outcome} for the named mutation over PAIRS."""
    modules, attr, mutant = MUTATIONS[name]
    wrong = functools.partial(mutant, getattr(modules[0], attr))
    for module in modules:
        monkeypatch.setattr(module, attr, wrong)
    return {f"{p}/{q}": _outcome((p, q)) for p, q in PAIRS}


def _beyond_p1(*outcome):
    """The outcome on every pair with p >= 2; the p = 1 pairs pass."""
    return {f"{p}/{q}": (outcome if p > 1 else ()) for p, q in PAIRS}


def _everywhere(*outcome):
    return {f"{p}/{q}": outcome for p, q in PAIRS}


EXPECTED = {
    "rotate_vertices": _beyond_p1(("rings", 1)),
    "move_vertex": {**_beyond_p1(("rings", 1)), "2/9": (("rings", 3),), "2/13": (("rings", 5),)},
    "nudge_vertex": {**_beyond_p1(("rings", 1)), "2/9": (("rings", 3),), "2/13": (("rings", 5),)},
    "scale_rings": _beyond_p1(("rings", 1)),
    "swap_rings": _beyond_p1(("rings", None)),
    "pinch_chord": _everywhere(("full_orbit_census", None)),
    "swap_chords": _everywhere(),
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
