"""Brute-force region counters: exact ground truth for the formula module.

Two accountings: an incremental count (each chord adds one region per
earlier chord it crosses, plus one) and a vertex/edge/face census of the
induced planar subdivision, which census_prefixes takes at every prefix and
arrangement_census reads one prefix from.  They are not independent: the
census reads the oracle's increments (chord n crosses its increment - 1
earlier chords), and with n chords drawn, t boundary vertices touched
and x crossings the census has v = t + x and e = t + n + 2x, so its faces
1 + e - v = 1 + n + x are the incremental f_n for every input (t cancels).
The oracle counts crossings from the crossing offsets, which are purely
combinatorial and read the walk of geometry._chord_ends; no floating
point is involved.

verify_pair reads that walk once and hands the one list to the
crossing-offset test and to an integer check of the walk itself (_off_walk),
so a walk that keeps chord 1's crossings still fails.  On the checked walk
t_n = n + 1 for n < q and t_q = q, so verify_pair's census
(_faces_census) keeps no set and no tuple per prefix: its faces are the
oracle record's values, and the full-orbit (v, e) follow from x_q.
census_vs_general therefore fails where general_vs_oracle does; the
census adds its own evidence through the walk and the full-orbit (v, e),
which the full_orbit_census check reads, reporting the first chord off the
walk as its first_divergence.  verify_pair also runs the float ring check;
_ring_check says why chord 1's crossings stand for the full orbit and what
that loses.  Every stage of verify_pair is O(q), and the public counters
read their own walk, offsets and oracle record.
verify_pair reads plain values only: the walk check reads the chord ends as
tuples from geometry._chord_ends, the ring check reads the radii as floats
from geometry._radii, and each passing CheckResult is one shared record per
check name.  The public records, Chord and RingRadius, are built only by
chord_list and ring_radii, which wrap those same values.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .core import ParameterError, RotationParameter, _require_ints
from .formula import (
    DivisionSequence,
    _expand,
    euler_counts,
    general_sequence,
    r1_sequence,
    special_sequence,
)
from .geometry import (
    RingAssignmentError,
    _chord_ends,
    _crossing_offsets,
    _crossings,
    crossing_offsets,
)


@dataclass(frozen=True)
class ArrangementCensus:
    """Counts for the circle plus a chord prefix; faces exclude the outer face."""

    vertices_count: int
    edges_count: int
    faces_count: int


def oracle_sequence(param: RotationParameter) -> DivisionSequence:
    """f_n by direct counting: each chord adds 1 + (earlier chords it crosses).

    Valid because no three chords meet in a single interior point, so every
    crossing splits exactly one existing region in two.  Proof: the q chords
    are distinct tangents of the circle of radius cos(p*pi/q), so they meet
    outside it, and through a point outside a circle pass exactly two
    tangents.
    """
    return _oracle_sequence(param, crossing_offsets(param))


def _oracle_sequence(param: RotationParameter, offsets: list[int]) -> DivisionSequence:
    """oracle_sequence from the given ascending crossing offsets.

    Chord n crosses chord n - k exactly when k is an offset, so it crosses
    as many earlier chords as there are offsets below n: the chords between
    two consecutive offsets of [0, *offsets, q] form one plateau, and the
    gaps are the increment counts that formula._expand turns into steps.
    An unsorted list gives a negative gap, whose run _expand drops, so the
    record fails its length check.
    """
    bounds = [0, *offsets, param.q]
    return DivisionSequence.from_increments(param, _expand(map(operator.sub, bounds[1:], bounds)))


def census_prefixes(param: RotationParameter) -> list[ArrangementCensus]:
    """Euler census of the subdivision induced by each chord prefix 0..q.

    One pass over the chords: a boundary vertex counts once any incident
    chord is drawn, and t touched points cut the boundary into t arcs; a
    chord crossed c times contributes c + 1 edges, and chord n adds the
    crossings with the earlier chords it crosses.  Faces follow from
    f = 1 + e - v with the outer face excluded.  The bare circle (prefix 0)
    is (0, 0, 1) by convention.
    """
    increments = oracle_sequence(param).increments
    return [ArrangementCensus(*c) for c in _census_prefixes(param, increments)]


def _census_prefixes(param: RotationParameter, increments) -> list[tuple[int, int, int]]:
    """census_prefixes as (vertices, edges, faces) tuples, from the oracle's increments.

    The touched vertices come from the chord ends of geometry._chord_ends,
    the (from, to) tuples that chord_list wraps; chord n crosses its
    increment - 1 earlier chords, so the crossings are the running sums of
    the increments less one.
    """
    touched = set()
    out = [(0, 0, 1)]
    crossings = itertools.accumulate(map((-1).__add__, increments))
    for n, (ends, x) in enumerate(zip(_chord_ends(param), crossings), start=1):
        touched.update(ends)
        t = len(touched)
        v = t + x
        e = t + n + 2 * x
        out.append((v, e, 1 + e - v))
    return out


def arrangement_census(param: RotationParameter, upto_chord: int) -> ArrangementCensus:
    """Euler census of the first upto_chord chords: census_prefixes(param)[upto_chord]."""
    _require_ints(upto_chord=upto_chord)
    if not 0 <= upto_chord <= param.q:
        raise ParameterError(f"upto_chord must be in 0..{param.q}, got {upto_chord}")
    increments = oracle_sequence(param).increments
    return ArrangementCensus(*_census_prefixes(param, increments)[upto_chord])


def _off_walk(param: RotationParameter, ends: list[tuple[int, int]]) -> int | None:
    """None if the chord ends are the walk, else the first chord n off it.

    The walk in integers, checked with list operations only: chord 1 starts
    at vertex 0, chord n ends where chord n + 1 starts, and each of the q
    chords spans p, (b - a) mod q = p.  With gcd(p, q) = 1 these give chord
    n = (p(n-1), pn) mod q, so the walk closes at vertex 0 and its q starts
    are distinct.  Only a failure runs the loop, which finds the first
    chord whose start is not the previous end (0 for chord 1) or whose span
    is not p; that is the first chord whose ends differ from the walk's.
    """
    p, q = param.p, param.q
    starts, stops = zip(*ends)
    if (
        starts[0] == 0
        and starts[1:] == stops[:-1]
        and [*map(q.__rmod__, map(operator.sub, stops, starts))] == [p] * q
    ):
        return None
    prev = 0
    for n, (a, b) in enumerate(ends[:q], start=1):
        if a != prev or (b - a) % q != p:
            return n
        prev = b
    return min(len(ends), q) + 1  # every chord on the walk, but not q of them


def _faces_census(param: RotationParameter, values) -> tuple[tuple[int, ...], tuple[int, int]]:
    """census_prefixes' faces and full-orbit (vertices, edges) on a checked walk.

    The faces 1 + n + x_n are the oracle record's values, read as they are.
    On the walk of _off_walk the full orbit touches all t_q = q vertices,
    and its x_q = f_q - 1 - q crossings give v = q + x_q and
    e = 2q + 2x_q, so no set and no tuple per prefix is built.
    """
    q = param.q
    x = values[-1] - 1 - q
    return values, (q + x, 2 * q + 2 * x)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    first_divergence: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every cross-check for one parameter."""

    param: RotationParameter
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


@functools.cache
def _passed(name: str) -> CheckResult:
    """The one passing CheckResult of each check name; it is frozen, so reports share it."""
    return CheckResult(name, True)


def _result(name: str, passed: bool) -> CheckResult:
    """The shared pass, or a fresh failure with no first_divergence."""
    return _passed(name) if passed else CheckResult(name, False)


def _compare(name: str, xs, ys) -> CheckResult:
    """Pass iff xs == ys; only a failure runs the loop, to find the first index that differs."""
    if xs == ys:  # a list against an equal tuple falls through, and passes below
        return _passed(name)
    for n, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return CheckResult(name, False, n)
    if len(xs) != len(ys):
        return CheckResult(name, False, min(len(xs), len(ys)))
    return _passed(name)


def _ring_check(param: RotationParameter, offsets: list[int]) -> CheckResult:
    """The "rings" check: the full orbit's crossings per ring must be {1..p-1: q}.

    The counts come from chord 1's row of geometry._crossings, which
    judges the ring set-up.  By the symmetry _crossings states, crossing
    (1, b) stands for the q + 1 - b crossings (i + 1, i + b) with
    i + b <= q, all on its ring.  What the row loses: rounding is sampled
    on chord 1 only, which at p = (q - 1)/2 under-reports the worst miss of
    the five innermost rings 2-8 times (8.0, 2.3 and 2.4 at q = 2001, 10001
    and 20001), and a locator wrong only off chord 1 passes.

    first_divergence is the chord_a of the RingAssignmentError raised: the
    first chord in step order through a vertex off its table direction, the
    earlier chord of the first crossing off its place, or None for radii out
    of order.  It is None when only the counts are wrong: the p counts are
    one list compared with [0, q, ..., q] at once, and no loop locates them.
    """
    p, q = param.p, param.q
    per_ring = [0] * p
    try:
        for _, b, _, ring in _crossings(param, offsets, 1):
            per_ring[ring] += q + 1 - b  # ring >= 0: a negative ring's NaN place raises
    except RingAssignmentError as err:
        return CheckResult("rings", False, err.chord_a)
    return _result("rings", per_ring == [0] + [q] * (p - 1))


def _form_check(name: str, form, arg, general: DivisionSequence) -> CheckResult:
    """Compare the closed form form(arg) with general; a form that raises fails."""
    try:
        values = form(arg).values
    except ValueError:
        return CheckResult(name, False)
    return _compare(name, values, general.values)


def verify_pair(param: RotationParameter) -> VerificationReport:
    """Run every cross-check for one parameter.

    The walk of _chord_ends is read once: the crossing offsets are tested
    on it and serve the oracle count and the ring check, and _off_walk
    checks it in integers.  The census reads the oracle record's values as
    its faces and builds no set and no tuple per prefix; full_orbit_census
    fails at the first chord off the walk, or on the full-orbit totals.
    Failures become report entries rather than exceptions so exhaustive
    scans can aggregate them.
    """
    ends = _chord_ends(param)
    offsets = _crossing_offsets(param.q, ends)
    try:
        general = general_sequence(param)
        oracle = _oracle_sequence(param, offsets)
    except ValueError:
        return VerificationReport(
            param, (CheckResult("sequence_construction", False),)
        )
    faces, (v, e) = _faces_census(param, oracle.values)
    off = _off_walk(param, ends)
    checks = [
        _compare("general_vs_oracle", general.values, oracle.values),
        _compare("census_vs_general", faces, general.values),
        CheckResult("full_orbit_census", False, off)
        if off is not None
        else _result("full_orbit_census", (v, e, faces[-1]) == euler_counts(param)),
    ]

    if param.q == 2 * param.p + 1:
        checks.append(_form_check("special_form", special_sequence, param.p, general))
    if param.r == 1:
        checks.append(_form_check("r1_form", r1_sequence, param, general))

    checks.append(_ring_check(param, offsets))
    return VerificationReport(param, tuple(checks))
