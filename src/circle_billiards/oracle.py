"""Brute-force region counters: exact ground truth for the formula module.

Two accountings: an incremental count (each chord adds one region per
earlier chord it crosses, plus one) and a vertex/edge/face census of the
induced planar subdivision, which census_prefixes takes at every prefix and
arrangement_census reads one prefix from.  They are not independent: the
census reads the oracle's increments, and with n chords drawn, t boundary
vertices touched and x crossings it has v = t + x and e = t + n + 2x, so
its faces 1 + e - v = 1 + n + x are the incremental f_n for every input.
The oracle counts crossings from the crossing offsets, which are purely
combinatorial and read the walk of geometry._walk, the q + 1 vertices in
visiting order; no floating point is involved.

verify_pair works on increment counts, not on records.  It reads the walk
once, checks first that it equals p*n mod q (_off_walk), and tests the
same list for the crossing offsets.  Chord n crosses as many earlier
chords as there are offsets below n, so the gaps of [0, *offsets, q] are
the oracle's counts: o_d - o_(d-1) chords add d.  general_vs_oracle
compares them with formula._general_counts in O(p).  Both sides expand to
non-decreasing steps, so the counts agree exactly when the values do, and
only a failure expands them to find the first index that differs.  r1_form
compares formula._r1_counts with the general counts the same way, and
special_form the special form's increments with their steps.  On the
checked walk t_n = n + 1 for n < q and t_q = q, so the census faces are
the oracle's values: census_vs_general fails where general_vs_oracle does,
and full_orbit_census checks the full-orbit (v, e, f) that f_q fixes, or
names the first chord off the walk.  verify_pair also runs the float ring
check; _ring_check says why chord 1's crossings stand for the full orbit
and what that loses.  Every stage of verify_pair is O(q), and the public
counters read their own walk, offsets and oracle record.
verify_pair reads plain values only: ints for the walk and the counts,
floats for the radii from geometry._radii, and each passing CheckResult is
one shared record per check name.  The public records, Chord and
RingRadius, are built only by chord_list and ring_radii, which wrap those
same values.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .core import ParameterError, RotationParameter, _require_ints
from .formula import (
    DivisionSequence,
    _check_counts,
    _expand,
    _general_counts,
    _r1_counts,
    euler_counts,
    special_sequence,
)
from .geometry import RingAssignmentError, _crossing_offsets, _crossings, _walk, crossing_offsets


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
    counts = _oracle_counts(param.q, crossing_offsets(param))
    return DivisionSequence.from_increments(param, _expand(counts))


def _oracle_counts(q: int, offsets: list[int]) -> list[int]:
    """The increment counts of the ascending crossing offsets: counts[d - 1] chords add d.

    Chord n crosses chord n - k exactly when k is an offset, so it crosses
    as many earlier chords as there are offsets below n: the chords between
    two consecutive offsets of [0, *offsets, q] form one plateau, and the
    gaps are the counts.  An unsorted list gives a negative gap, which
    formula._check_counts refuses and whose run formula._expand drops.
    """
    bounds = [0, *offsets, q]
    return [*map(operator.sub, bounds[1:], bounds)]


def _census(n: int, t: int, x: int) -> ArrangementCensus:
    """The census of n chords touching t boundary points and crossing x times.

    t touched points cut the boundary into t arcs, and a chord crossed c
    times contributes c + 1 edges, so v = t + x and e = t + n + 2x; faces
    follow from f = 1 + e - v with the outer face excluded.  The bare
    circle, n = t = x = 0, is (0, 0, 1).
    """
    v, e = t + x, t + n + 2 * x
    return ArrangementCensus(v, e, 1 + e - v)


def census_prefixes(param: RotationParameter) -> list[ArrangementCensus]:
    """Euler census of the subdivision induced by each chord prefix 0..q.

    One pass over the walk of geometry._walk, whose entry n ends chord n: a
    boundary vertex counts once any incident chord is drawn, and chord n
    crosses its increment - 1 earlier chords, so the crossings are the
    running sums of the increments less one.  _census states v, e and f.
    """
    walk = _walk(param)
    touched = {walk[0]}
    out = [_census(0, 0, 0)]
    crossings = itertools.accumulate(map((-1).__add__, oracle_sequence(param).increments))
    for n, (j, x) in enumerate(zip(walk[1:], crossings), start=1):
        touched.add(j)
        out.append(_census(n, len(touched), x))
    return out


def arrangement_census(param: RotationParameter, upto_chord: int) -> ArrangementCensus:
    """Euler census of the first upto_chord chords: census_prefixes(param)[upto_chord].

    Builds only that prefix's record: the first upto_chord chords touch the
    distinct vertices of walk entries 0..upto_chord, and cross
    f_upto_chord - 1 - upto_chord times.
    """
    _require_ints(upto_chord=upto_chord)
    if not 0 <= upto_chord <= param.q:
        raise ParameterError(f"upto_chord must be in 0..{param.q}, got {upto_chord}")
    if upto_chord == 0:
        return _census(0, 0, 0)
    touched = len(set(_walk(param)[: upto_chord + 1]))
    x = oracle_sequence(param).values[upto_chord] - 1 - upto_chord
    return _census(upto_chord, touched, x)


def _off_walk(param: RotationParameter, walk: list[int]) -> int | None:
    """None if walk equals p*n mod q for n = 0..q, else the first chord n off it.

    Entry n ends chord n and entry 0 starts chord 1, so the first entry off
    names its chord; a short walk names the first chord missing and a long
    one chord q + 1.
    """
    p, q = param.p, param.q
    off = _compare("full_orbit_census", walk, [p * n % q for n in range(q + 1)]).first_divergence
    return None if off is None else max(off, 1)


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; first_divergence locates a failure in the check's own count.

    The value index n of the first f_n off for the sequence compares
    (general_vs_oracle, census_vs_general, special_form, r1_form), which
    compare counts or steps and build values only on a failure, to find n;
    a chord number for full_orbit_census and rings; None on a pass and
    where no loop locates the fault (sequence_construction, a closed form
    that raises, wrong ring counts, radii out of order).
    """

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
    """Pass iff xs == ys (two tuples or two lists), else fail at the first index that differs."""
    if xs == ys:
        return _passed(name)
    n = next((n for n, (x, y) in enumerate(zip(xs, ys)) if x != y), min(len(xs), len(ys)))
    return CheckResult(name, False, n)


def _ring_check(param: RotationParameter, offsets: list[int]) -> CheckResult:
    """The "rings" check: the full orbit's crossings per ring must be {1..p-1: q}.

    The counts come from chord 1's row of geometry._crossings, which
    judges the ring set-up and builds nothing per crossing but the located
    point and the yielded tuple.  By the symmetry _crossings states, crossing
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


def _values(counts: list[int]) -> tuple[int, ...]:
    """f_0..f_q of the increment counts, as DivisionSequence.values holds them."""
    return tuple(itertools.accumulate(_expand(counts), initial=1))


def _form_check(name: str, form, arg, counts: list[int]) -> CheckResult:
    """Compare the closed form form(arg) with counts; a form that raises fails.

    special_sequence gives a DivisionSequence, whose increments are compared
    with the steps of counts; _r1_counts gives increment counts, compared
    with counts in O(p).  Only a mismatch builds both value lists, for the
    first f_n that differs.
    """
    try:
        made = form(arg)
    except ValueError:
        return CheckResult(name, False)
    if isinstance(made, DivisionSequence):
        if made.increments == tuple(_expand(counts)):
            return _passed(name)
        return _compare(name, made.values, _values(counts))
    if made == counts:
        return _passed(name)
    return _compare(name, _values(made), _values(counts))


def verify_pair(param: RotationParameter) -> VerificationReport:
    """Run every cross-check for one parameter.

    The walk of geometry._walk is read once.  _off_walk compares it with
    p*n mod q first, so a wrong walk names its chord in full_orbit_census
    even where the counts break.  The crossing offsets are tested on the
    same list and serve the oracle counts and the ring check.  The general
    counts must pass formula._check_counts, and the oracle's too where the
    two differ, or the report is sequence_construction; general_vs_oracle
    and census_vs_general compare them in O(p), and only a failure expands
    both to values for its first_divergence.  The closed forms are checked
    on their own pairs only, and the same way: r1_form compares
    formula._r1_counts with the general counts, special_form the special
    form's increments with their steps.  Failures become report entries
    rather than exceptions so exhaustive scans can aggregate them.
    """
    p, q = param.p, param.q
    walk = _walk(param)
    off = _off_walk(param, walk)
    census = [] if off is None else [CheckResult("full_orbit_census", False, off)]
    offsets = _crossing_offsets(q, walk)
    found = _oracle_counts(q, offsets)
    try:
        counts = _general_counts(param)
        _check_counts(param, counts)
        if counts == found:
            checks = [_passed("general_vs_oracle"), _passed("census_vs_general")]
        else:
            _check_counts(param, found)
            n = _compare("general_vs_oracle", _values(counts), _values(found)).first_divergence
            checks = [
                CheckResult(name, False, n) for name in ("general_vs_oracle", "census_vs_general")
            ]
    except ValueError:
        return VerificationReport(param, (CheckResult("sequence_construction", False), *census))

    if not census:
        # All q vertices touched, and x = f_q - 1 - q crossings: v = q + x, e = 2q + 2x.
        x = sum(map(operator.mul, itertools.count(1), found)) - q
        full = (q + x, 2 * q + 2 * x, 1 + q + x)
        census = [_result("full_orbit_census", full == euler_counts(param))]
    checks += census

    if q == 2 * p + 1:
        checks.append(_form_check("special_form", special_sequence, p, counts))
    if param.r == 1:
        checks.append(_form_check("r1_form", _r1_counts, param, counts))

    checks.append(_ring_check(param, offsets))
    return VerificationReport(param, tuple(checks))
