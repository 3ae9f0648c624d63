"""Deterministic SVG rendering of trajectory prefixes and crossing rings."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import RotationParameter
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
        if isinstance(self.upto_chord, bool) or not isinstance(self.upto_chord, int):
            raise ValueError(f"upto_chord must be an int, got {self.upto_chord!r}")
        if not 0 <= self.upto_chord <= self.param.q:
            raise ValueError(
                f"upto_chord must be in 0..{self.param.q}, got {self.upto_chord}"
            )
        size = self.canvas_size_px
        if isinstance(size, bool) or not isinstance(size, int):
            raise ValueError(f"canvas_size_px must be an int, got {size!r}")
        if size < 64:
            raise ValueError(f"canvas_size_px must be at least 64, got {size}")


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape would import urllib.request into every caller.
    for raw, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")):
        text = text.replace(raw, entity)
    return text


def render_svg(spec: RenderSpec) -> str:
    """One SVG document; identical specs produce byte-identical output."""
    param = spec.param
    size = spec.canvas_size_px
    cx = cy = size / 2.0
    scale = RADIUS_FRACTION * size

    def to_px(pt: tuple[float, float]) -> tuple[float, float]:
        # Mathematical orientation (y up) flipped to screen coordinates.
        return cx + scale * pt[0], cy - scale * pt[1]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(scale)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    if spec.show_rings:
        for rr in ring_radii(param)[1:]:
            lines.append(
                f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(scale * rr.normalized_radius)}" fill="none" '
                'stroke="gray" stroke-width="1.0" stroke-dasharray="6 4"/>'
            )
    verts = vertex_positions(param)
    for ch in chord_list(param)[: spec.upto_chord]:
        x1, y1 = to_px(verts[ch.from_vertex])
        x2, y2 = to_px(verts[ch.to_vertex])
        # Full turns completed strictly before this chord ends.
        turn = (ch.step_index * param.p - 1) // param.q
        color = DEFAULT_PALETTE[turn % len(DEFAULT_PALETTE)]
        lines.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    if spec.show_labels:
        font = max(10.0, size / 32.0)
        for j, pt in enumerate(verts):
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


def render_step_series(param: RotationParameter, out_dir) -> list[Path]:
    """Write step_000.svg .. step_{q}.svg, one per prefix, captioned with f_n."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seq = general_sequence(param)
    paths = []
    for n in range(param.q + 1):
        spec = RenderSpec(param=param, upto_chord=n, caption=f"f_{n} = {seq.values[n]}")
        path = out / f"step_{n:03d}.svg"
        path.write_text(render_svg(spec), encoding="utf-8")
        paths.append(path)
    return paths
