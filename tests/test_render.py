import hashlib
import xml.etree.ElementTree as ET

import pytest

from circle_billiards.cli import main
from circle_billiards.core import ParameterError, make_rotation
from circle_billiards.formula import general_sequence
from circle_billiards.geometry import chord_list, vertex_positions
from circle_billiards.render import (
    RADIUS_FRACTION,
    RenderSpec,
    render_step_series,
    render_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def test_byte_identical_output():
    spec = RenderSpec(param=make_rotation(3, 7), upto_chord=7, show_rings=True)
    again = RenderSpec(param=make_rotation(3, 7), upto_chord=7, show_rings=True)
    assert render_svg(spec).encode("utf-8") == render_svg(again).encode("utf-8")


def test_bare_circle():
    doc = render_svg(RenderSpec(param=make_rotation(3, 7), upto_chord=0))
    root = ET.fromstring(doc)
    assert len(root.findall(f"{SVG_NS}line")) == 0
    assert len(root.findall(f"{SVG_NS}circle")) == 1


def test_star_with_rings():
    doc = render_svg(RenderSpec(param=make_rotation(3, 7), upto_chord=7, show_rings=True))
    root = ET.fromstring(doc)
    assert len(root.findall(f"{SVG_NS}line")) == 7
    assert len(root.findall(f"{SVG_NS}circle")) == 3  # boundary + rings 1, 2


def test_labels():
    doc = render_svg(
        RenderSpec(param=make_rotation(2, 5), upto_chord=5, show_labels=True)
    )
    root = ET.fromstring(doc)
    texts = [el.text for el in root.findall(f"{SVG_NS}text")]
    assert texts == [f"P{j}" for j in range(5)]


def test_chord_endpoints_match_vertices_within_half_pixel():
    rp = make_rotation(3, 13)
    size = 480
    doc = render_svg(RenderSpec(param=rp, upto_chord=13, canvas_size_px=size))
    root = ET.fromstring(doc)
    verts = vertex_positions(rp)
    chords = chord_list(rp)
    scale = RADIUS_FRACTION * size
    cx = cy = size / 2
    lines = root.findall(f"{SVG_NS}line")
    assert len(lines) == 13
    for ch, el in zip(chords, lines):
        for attr_x, attr_y, vertex in (
            ("x1", "y1", ch.from_vertex),
            ("x2", "y2", ch.to_vertex),
        ):
            ex = cx + scale * verts[vertex][0]
            ey = cy - scale * verts[vertex][1]
            assert abs(float(el.get(attr_x)) - ex) < 0.5
            assert abs(float(el.get(attr_y)) - ey) < 0.5


def test_revolution_coloring_cycles_palette():
    # 7/15 makes 7 turns, so the 7th turn wraps back to the first colour.
    doc = render_svg(RenderSpec(param=make_rotation(7, 15), upto_chord=15))
    root = ET.fromstring(doc)
    strokes = [el.get("stroke") for el in root.findall(f"{SVG_NS}line")]
    assert strokes == [
        "blue", "blue", "red", "red", "green", "green", "darkorange", "darkorange",
        "purple", "purple", "teal", "teal", "blue", "blue", "blue",
    ]


def test_step_series_3_7(tmp_path):
    paths = render_step_series(make_rotation(3, 7), tmp_path / "out")
    assert len(paths) == 8
    assert [p.name for p in paths] == [f"step_{n:03d}.svg" for n in range(8)]
    assert "f_7 = 22" in paths[-1].read_text(encoding="utf-8")


@pytest.mark.parametrize("p, q", [(1, 3), (3, 7), (3, 13), (7, 15)])
def test_step_series_equals_render_svg(tmp_path, p, q):
    # 7/15 wraps the palette; each file must be the single-figure document.
    rp = make_rotation(p, q)
    paths = render_step_series(rp, tmp_path)
    values = general_sequence(rp).values
    assert len(paths) == q + 1
    for n, path in enumerate(paths):
        spec = RenderSpec(param=rp, upto_chord=n, caption=f"f_{n} = {values[n]}")
        assert path.read_bytes() == render_svg(spec).encode("utf-8")


def test_step_series_names_sort_in_step_order(tmp_path):
    # At q >= 1000 three digits would sort step_1000.svg before step_101.svg.
    paths = render_step_series(make_rotation(1, 1000), tmp_path)
    names = [p.name for p in paths]
    assert names[0] == "step_0000.svg" and names[-1] == "step_1000.svg"
    assert sorted(names) == names
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_partial_prefix_with_rings_and_labels():
    rp = make_rotation(5, 13)
    spec = RenderSpec(
        param=rp, upto_chord=4, show_rings=True, show_labels=True, canvas_size_px=333
    )
    doc = render_svg(spec)
    root = ET.fromstring(doc)
    assert len(root.findall(f"{SVG_NS}line")) == 4
    assert len(root.findall(f"{SVG_NS}circle")) == 5  # boundary + rings 1..4
    assert [el.text for el in root.findall(f"{SVG_NS}text")] == [
        f"P{j}" for j in range(13)
    ]
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == (
        "f80e9aa71091ba39b5d969b8222969b5aa67d54beaedab2ea14072acfe691cf1"
    )


def test_render_stdout_golden_bytes(capsys):
    # Pins every formatted digit, which a parity test between paths cannot.
    assert main(["render", "-p", "3", "-q", "7", "--rings", "--labels"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "a737d33c6e7878096687d119159ebd3f68c47afc23495524b87cf634c2a83358"
    )


def test_step_series_golden_bytes(tmp_path):
    paths = render_step_series(make_rotation(3, 13), tmp_path)
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
    assert digest == "b144dc9ea15e5f46792fd7307f361aab5462421a2d64751f00e63765bfe5947c"


def test_step_series_triangle(tmp_path):
    assert len(render_step_series(make_rotation(1, 3), tmp_path)) == 4


def test_step_series_3_13_annotations(tmp_path):
    paths = render_step_series(make_rotation(3, 13), tmp_path)
    assert len(paths) == 14
    values = [1, 2, 3, 4, 5, 7, 10, 13, 16, 20, 25, 30, 35, 40]
    for n, path in enumerate(paths):
        assert f"f_{n} = {values[n]}" in path.read_text(encoding="utf-8")


def test_invalid_specs_rejected():
    rp = make_rotation(3, 7)
    with pytest.raises(ParameterError):
        RenderSpec(param=rp, upto_chord=8)
    with pytest.raises(ParameterError):
        RenderSpec(param=rp, upto_chord=-1)
    with pytest.raises(ParameterError):
        RenderSpec(param=rp, upto_chord=3, canvas_size_px=32)


@pytest.mark.parametrize("upto_chord", [2.0, "2", None, True])
def test_non_int_upto_chord_rejected(upto_chord):
    with pytest.raises(ValueError, match="must be an int"):
        RenderSpec(param=make_rotation(3, 7), upto_chord=upto_chord)


@pytest.mark.parametrize(
    "field, value",
    [
        ("canvas_size_px", 100.5),
        ("canvas_size_px", True),
        ("canvas_size_px", "480"),
    ],
)
def test_mistyped_canvas_or_palette_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        RenderSpec(param=make_rotation(3, 7), upto_chord=3, **{field: value})


@pytest.mark.parametrize("caption", ["f < g & h", "<b>&amp;</b>", "x]]>y"])
def test_caption_escaped(caption):
    doc = render_svg(RenderSpec(param=make_rotation(3, 7), upto_chord=3, caption=caption))
    (text,) = ET.fromstring(doc).findall(f"{SVG_NS}text")
    assert text.text == caption
