"""Brute-force region counters: exact ground truth for the formula module.

Two accountings are kept deliberately separate so a bug in one cannot
silently confirm the other: an incremental count (each chord adds one
region per earlier chord it crosses, plus one) and a vertex/edge/face
census of the induced planar subdivision, which census_prefixes takes at
every prefix and arrangement_census reads one prefix from.  Both count
crossings from geometry.crossing_offsets, which is purely combinatorial;
no floating point is involved.  verify_pair also runs the float ring
check, which ties the drawn vertices to the exact direction table, locates
the crossings of chord 1 and takes the per-ring counts of the full orbit
from its rotational symmetry.  verify_pair computes the offsets once and
hands them to all three, and its every stage is O(q); the public counters
compute their own offsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import RotationParameter
from .formula import (
    DivisionSequence,
    SequenceSource,
    euler_counts,
    general_sequence,
    r1_sequence,
    special_sequence,
)
from .geometry import (
    RingAssignmentError,
    _ring_counts,
    chord_list,
    crossing_offsets,
    ring_radii,
)


@dataclass(frozen=True)
class ArrangementCensus:
    """Counts for the circle plus a chord prefix; faces exclude the outer face."""

    vertices_count: int
    edges_count: int
    faces_count: int


def _crossing_counts(q: int, offsets: list[int]) -> list[int]:
    """counts[n-1] = number of chords among 1..n-1 crossed by chord n.

    Chord n crosses chord n - k exactly when k is a crossing offset, so the
    count is the number of offsets below n: a prefix sum of their indicator.
    """
    hit = [0] * q
    for k in offsets:
        hit[k] = 1
    return list(itertools.accumulate(hit))


def oracle_sequence(param: RotationParameter) -> DivisionSequence:
    """f_n by direct counting: each chord adds 1 + (earlier chords it crosses).

    Valid because no three chords meet in a single interior point, so every
    crossing splits exactly one existing region in two.
    """
    return _oracle_sequence(param, crossing_offsets(param))


def _oracle_sequence(param: RotationParameter, offsets: list[int]) -> DivisionSequence:
    increments = [1 + c for c in _crossing_counts(param.q, offsets)]
    return DivisionSequence.from_increments(param, increments, SequenceSource.ORACLE)


def census_prefixes(param: RotationParameter) -> list[ArrangementCensus]:
    """Euler census of the subdivision induced by each chord prefix 0..q.

    One pass over the chords: a boundary vertex counts once any incident
    chord is drawn, and t touched points cut the boundary into t arcs; a
    chord crossed c times contributes c + 1 edges, and chord n adds the
    crossings with the earlier chords it crosses.  Faces follow from
    f = 1 + e - v with the outer face excluded.  The bare circle (prefix 0)
    is (0, 0, 1) by convention.
    """
    return [ArrangementCensus(*c) for c in _census_prefixes(param, crossing_offsets(param))]


def _census_prefixes(
    param: RotationParameter, offsets: list[int]
) -> list[tuple[int, int, int]]:
    """census_prefixes as (vertices, edges, faces) tuples, from the given offsets."""
    touched = set()
    out = [(0, 0, 1)]
    crossings = itertools.accumulate(_crossing_counts(param.q, offsets))
    for n, (ch, x) in enumerate(zip(chord_list(param), crossings), start=1):
        touched.add(ch.from_vertex)
        touched.add(ch.to_vertex)
        t = len(touched)
        v = t + x
        e = t + n + 2 * x
        out.append((v, e, 1 + e - v))
    return out


def arrangement_census(param: RotationParameter, upto_chord: int) -> ArrangementCensus:
    """Euler census of the first upto_chord chords: census_prefixes(param)[upto_chord]."""
    if isinstance(upto_chord, bool) or not isinstance(upto_chord, int):
        raise ValueError(f"upto_chord must be an int, got {upto_chord!r}")
    if not 0 <= upto_chord <= param.q:
        raise ValueError(f"upto_chord must be in 0..{param.q}, got {upto_chord}")
    return ArrangementCensus(*_census_prefixes(param, crossing_offsets(param))[upto_chord])


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


def _first_divergence(xs, ys) -> int | None:
    for n, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return n
    if len(xs) != len(ys):
        return min(len(xs), len(ys))
    return None


def _ring_check(param: RotationParameter, offsets: list[int]) -> CheckResult:
    """Radii strictly decrease, each crossing is at its exact place, q per ring 1..p-1.

    On ring p - |s| the crossings sit at slots p + s + 2p*i (mod 2q) of the
    2q directions pi*m/q; with gcd(p, q) = 1 the q of them are the q slots
    of one parity, so they are equally spaced.  The check is O(q), from the
    exact rotational symmetry of the figure: geometry._ring_counts ties all
    q vertices to the direction table bit for bit, so chord i + 1 is chord 1
    turned by table slot 2p*i and crossing (i + 1, i + 1 + k) is crossing
    (1, 1 + k) turned by it.  It then locates only the 2(p - 1) crossings
    of chord 1, and counts each ring from the offsets: offset k puts q - k
    crossings on ring p - |s|.  The first_divergence is the earlier chord
    of the first crossing off its place in the order of geometry._crossings
    (i, then k): 1 for a located miss, and for an untied vertex the first
    crossing on a chord through it.

    What the symmetry loses: the float rounding of the locator is sampled
    on chord 1 alone, not on every crossing.  At p = (q - 1)/2 that
    under-reports the worst miss of the five innermost rings 2-8 times
    (8.0, 2.3 and 2.4 at q = 2001, 10001 and 20001), and a locator wrong
    off chord 1 only would pass.  The all-crossings loop stays as
    geometry._crossings behind intersection_points, and tests drain its
    innermost rings at large q.
    """
    radii = [rr.normalized_radius for rr in ring_radii(param)]
    if any(a <= b for a, b in zip(radii, radii[1:])):
        return CheckResult("rings", False)
    try:
        per_ring = _ring_counts(param, offsets)
    except RingAssignmentError as err:
        return CheckResult("rings", False, err.chord_a)
    return CheckResult("rings", per_ring == dict.fromkeys(range(1, param.p), param.q))


def _form_check(name: str, form, arg, general: DivisionSequence) -> CheckResult:
    """Compare the closed form form(arg) with general; a form that raises fails."""
    try:
        values = form(arg).values
    except ValueError:
        return CheckResult(name, False)
    div = _first_divergence(values, general.values)
    return CheckResult(name, div is None, div)


def verify_pair(param: RotationParameter) -> VerificationReport:
    """Run every cross-check for one parameter.

    The crossing offsets are computed once and serve the oracle count, the
    census and the ring check.  Failures become report entries rather than
    exceptions so exhaustive scans can aggregate them.
    """
    offsets = crossing_offsets(param)
    try:
        general = general_sequence(param)
        oracle = _oracle_sequence(param, offsets)
    except ValueError:
        return VerificationReport(
            param, (CheckResult("sequence_construction", False),)
        )
    checks = []

    div = _first_divergence(general.values, oracle.values)
    checks.append(CheckResult("general_vs_oracle", div is None, div))

    census = _census_prefixes(param, offsets)
    faces = tuple(f for _, _, f in census)
    div = _first_divergence(faces, general.values)
    checks.append(CheckResult("census_vs_general", div is None, div))
    checks.append(CheckResult("full_orbit_census", census[-1] == euler_counts(param)))

    if param.q == 2 * param.p + 1:
        checks.append(_form_check("special_form", special_sequence, param.p, general))
    if param.r == 1:
        checks.append(_form_check("r1_form", r1_sequence, param, general))

    checks.append(_ring_check(param, offsets))
    return VerificationReport(param, tuple(checks))
