"""Circle-division sequences of rational circular billiards.

A trajectory rotating by (p/q) * 2*pi per bounce closes after q chords and
cuts the disc into p*q + 1 regions.  This package computes the exact
region-count sequence f_0..f_q in closed form, validates it against two
brute-force counters, exposes the trajectory geometry (chords, crossings,
crossing rings), and renders the figures as SVG.
"""

from .core import (
    MAX_Q,
    ParameterError,
    RotationParameter,
    coprime_rotations,
    make_rotation,
)
from .formula import (
    DivisionSequence,
    euler_counts,
    general_sequence,
    r1_sequence,
    special_sequence,
    total_regions,
)
from .geometry import (
    Chord,
    Intersection,
    RingAssignmentError,
    RingRadius,
    TrajectoryGeometry,
    chord_list,
    chords_cross,
    crossing_offsets,
    intersection_points,
    ring_radii,
    vertex_positions,
)
from .oracle import (
    ArrangementCensus,
    CheckResult,
    VerificationReport,
    arrangement_census,
    census_prefixes,
    oracle_sequence,
    verify_pair,
)
from .render import RenderSpec, render_step_series, render_svg

__version__ = "0.1.0"

__all__ = [
    "MAX_Q",
    "ParameterError",
    "RotationParameter",
    "coprime_rotations",
    "make_rotation",
    "DivisionSequence",
    "euler_counts",
    "general_sequence",
    "r1_sequence",
    "special_sequence",
    "total_regions",
    "Chord",
    "Intersection",
    "RingAssignmentError",
    "RingRadius",
    "TrajectoryGeometry",
    "chord_list",
    "chords_cross",
    "crossing_offsets",
    "intersection_points",
    "ring_radii",
    "vertex_positions",
    "ArrangementCensus",
    "CheckResult",
    "VerificationReport",
    "arrangement_census",
    "census_prefixes",
    "oracle_sequence",
    "verify_pair",
    "RenderSpec",
    "render_step_series",
    "render_svg",
]
