"""Deterministic SVG rendering of trajectory prefixes and crossing rings."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import ParameterError, RotationParameter, _require_ints
from .formula import general_sequence
from .geometry import chord_list, ring_radii, vertex_positions

DEFAULT_PALETTE = ("blue", "red", "green", "darkorange", "purple", "teal")

# Circle radius as a fraction of the canvas edge; leaves room for labels.
RADIUS_FRACTION = 0.42


@dataclass(frozen=True)
class RenderSpec:
    """What to draw: a trajectory prefix with optional rings, labels, caption."""

    param: RotationParameter
    upto_chord: int
    show_rings: bool = False
    show_labels: bool = False
    canvas_size_px: int = 480
    caption: str | None = None

    def __post_init__(self) -> None:
        _require_ints(upto_chord=self.upto_chord, canvas_size_px=self.canvas_size_px)
        if not 0 <= self.upto_chord <= self.param.q:
            raise ParameterError(
                f"upto_chord must be in 0..{self.param.q}, got {self.upto_chord}"
            )
        if self.canvas_size_px < 64:
            raise ParameterError(f"canvas_size_px must be at least 64, got {self.canvas_size_px}")


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape would import urllib.request into every caller.
    for raw, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")):
        text = text.replace(raw, entity)
    return text


def _chord_lines(param: RotationParameter, size: int, upto_chord: int) -> list[str]:
    """The `<line>` element of each of the first upto_chord chords."""
    center = size / 2.0
    scale = RADIUS_FRACTION * size
    verts = vertex_positions(param)

    def to_px(vertex: int) -> tuple[str, str]:
        # Mathematical orientation (y up) flipped to screen coordinates.
        x, y = verts[vertex]
        return _fmt(center + scale * x), _fmt(center - scale * y)

    lines = []
    for n, ch in enumerate(chord_list(param)[:upto_chord], start=1):
        x1, y1 = to_px(ch.from_vertex)
        x2, y2 = to_px(ch.to_vertex)
        # Full turns completed strictly before chord n ends.
        turn = (n * param.p - 1) // param.q
        color = DEFAULT_PALETTE[turn % len(DEFAULT_PALETTE)]
        lines.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    return lines


def _document(spec: RenderSpec, chord_lines: list[str]) -> str:
    """Header, optional rings, the given chord lines, optional labels and caption."""
    size = spec.canvas_size_px
    cx = cy = size / 2.0
    scale = RADIUS_FRACTION * size
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(scale)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    if spec.show_rings:
        for rr in ring_radii(spec.param)[1:]:
            lines.append(
                f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(scale * rr.normalized_radius)}" fill="none" '
                'stroke="gray" stroke-width="1.0" stroke-dasharray="6 4"/>'
            )
    lines.extend(chord_lines)
    if spec.show_labels:
        font = max(10.0, size / 32.0)
        for j, pt in enumerate(vertex_positions(spec.param)):
            lx = cx + 1.12 * scale * pt[0]
            ly = cy - 1.12 * scale * pt[1]
            lines.append(
                f'  <text x="{_fmt(lx)}" y="{_fmt(ly)}" font-family="sans-serif" '
                f'font-size="{_fmt(font)}" text-anchor="middle" '
                f'dominant-baseline="middle">P{j}</text>'
            )
    if spec.caption is not None:
        font = max(12.0, size / 24.0)
        lines.append(
            f'  <text x="{_fmt(cx)}" y="{_fmt(size - 0.4 * font)}" '
            f'font-family="sans-serif" font-size="{_fmt(font)}" '
            f'text-anchor="middle">{_escape(str(spec.caption))}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_svg(spec: RenderSpec) -> str:
    """One SVG document; identical specs produce byte-identical output."""
    chord_lines = _chord_lines(spec.param, spec.canvas_size_px, spec.upto_chord)
    return _document(spec, chord_lines)


def render_step_series(param: RotationParameter, out_dir) -> list[Path]:
    """Write one bare 480 px SVG per prefix n = 0..q, captioned with f_n.

    File n is step_{n}.svg with n zero-padded to max(3, digits of q), so the
    names sort in step order (step_000.svg .. step_013.svg for q = 13).  Each
    chord's line is formatted once and every prefix document joins a slice of
    those lines, so the work is proportional to the bytes written.  File n
    equals render_svg(RenderSpec(param, n, caption=f"f_{n} = {f_n}")).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seq = general_sequence(param)
    chord_lines = _chord_lines(param, RenderSpec.canvas_size_px, param.q)
    width = max(3, len(str(param.q)))
    paths = []
    for n, f_n in enumerate(seq.values):
        spec = RenderSpec(param=param, upto_chord=n, caption=f"f_{n} = {f_n}")
        path = out / f"step_{n:0{width}d}.svg"
        path.write_text(_document(spec, chord_lines[:n]), encoding="utf-8")
        paths.append(path)
    return paths
