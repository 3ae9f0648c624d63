import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circle_billiards
from circle_billiards import cli, geometry
from circle_billiards.cli import main, run_verification


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain_3_13(capsys):
    code, out, _ = run_cli(capsys, "seq", "-p", "3", "-q", "13")
    assert code == 0
    assert out.strip() == "1 2 3 4 5 7 10 13 16 20 25 30 35 40"


def test_seq_plain_triangle(capsys):
    _, out, _ = run_cli(capsys, "seq", "-p", "1", "-q", "3")
    assert out.strip() == "1 2 3 4"


def test_seq_json_uses_special_form(capsys):
    code, out, _ = run_cli(capsys, "seq", "-p", "3", "-q", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "SpecialClosedForm"
    assert payload["values"][-1] == 22
    assert payload["increments"] == [1, 1, 2, 3, 4, 5, 5]
    assert list(payload) == ["p", "q", "m", "r", "source", "values", "increments"]


def test_seq_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "seq", "-p", "3", "-q", "13", "--format", "json")
    assert json.dumps(json.loads(out)) == out.strip()
    payload = json.loads(out)
    assert payload["source"] == "GeneralFormula"
    values = payload["values"]
    assert payload["increments"] == [b - a for a, b in zip(values, values[1:])]


def test_seq_csv(capsys):
    _, out, _ = run_cli(capsys, "seq", "-p", "2", "-q", "5", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,f_n"
    assert lines[1] == "0,1"
    assert lines[-1] == "5,11"


def test_seq_reduces_input(capsys):
    _, out, _ = run_cli(capsys, "seq", "-p", "2", "-q", "6")
    assert out.strip() == "1 2 3 4"


def test_seq_invalid_parameters(capsys):
    code, _, err = run_cli(capsys, "seq", "-p", "1", "-q", "2")
    assert code == 2
    assert "error" in err


def test_seq_q_guard(capsys):
    code, _, err = run_cli(capsys, "seq", "-p", "1", "-q", str(10**6 + 1))
    assert code == 2


@pytest.mark.parametrize("argv", [["scan"], ["verify", "--force"]])
def test_q_max_guard(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--q-max", str(10**6 + 1))
    assert code == 2
    assert "q_max must be at most" in err


def test_radii_3_7(capsys):
    code, out, _ = run_cli(capsys, "radii", "-p", "3", "-q", "7")
    assert code == 0
    assert out.splitlines() == ["0 1.000000", "1 0.356896", "2 0.246980"]


def test_radii_polygon(capsys):
    _, out, _ = run_cli(capsys, "radii", "-p", "1", "-q", "5")
    assert out.splitlines() == ["0 1.000000"]


def test_radii_pentagram(capsys):
    _, out, _ = run_cli(capsys, "radii", "-p", "2", "-q", "5")
    assert out.splitlines() == ["0 1.000000", "1 0.381966"]


def test_verify_single_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q-max", "3")
    assert code == 0
    assert out.startswith("PASS: 1 pairs")


def test_verify_small_scan(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q-max", "15")
    assert code == 0
    assert "PASS" in out


def test_verify_names_first_off_chord(capsys, monkeypatch):
    # Rings 1..p-1 pushed out by 1e-6: the first crossing, of chords 1 and 3
    # of 2/5, is already off its place.
    true_radii = geometry.ring_radii

    def pushed_out(param):
        table = true_radii(param)
        return table[:1] + [
            geometry.RingRadius(rr.ring_index, rr.normalized_radius * (1 + 1e-6))
            for rr in table[1:]
        ]

    monkeypatch.setattr(geometry, "ring_radii", pushed_out)
    code, out, _ = run_cli(capsys, "verify", "--q-max", "5")
    assert code == 1
    assert out.splitlines()[0] == "FAIL p=2 q=5 check=rings first_divergence=1"


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--q-max", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--q-max", "501")
    assert code == 2
    assert "--force" in err
    code, _, err = run_cli(capsys, "verify", "--q-max", "10", "--jobs", "0")
    assert code == 2


def test_verify_jobs_deterministic():
    serial = run_verification(30, jobs=1)
    threaded = run_verification(30, jobs=4)
    assert serial.pairs_checked == threaded.pairs_checked
    assert serial.failures == threaded.failures == ()


def test_scan_stdout(capsys):
    code, out, _ = run_cli(capsys, "scan", "--q-max", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,m,r,f_total,sequence"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("1", "3"),
        ("1", "4"),
        ("1", "5"),
        ("2", "5"),
        ("1", "6"),
        ("1", "7"),
        ("2", "7"),
        ("3", "7"),
    ]
    star = rows[-1]
    assert star[4] == "22"
    assert star[5] == "1;2;3;5;8;12;17;22"
    assert rows[0][4] == "4"


def test_scan_to_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", "--q-max", "5", "-o", str(target))
    assert code == 0
    lines = target.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "p,q,m,r,f_total,sequence"
    assert len(lines) == 1 + 4  # (1,3) (1,4) (1,5) (2,5)


def test_render_stdout_deterministic(capsys):
    _, first, _ = run_cli(capsys, "render", "-p", "3", "-q", "7", "--rings")
    _, second, _ = run_cli(capsys, "render", "-p", "3", "-q", "7", "--rings")
    assert first == second
    assert first.startswith("<?xml")


def test_render_to_file(tmp_path, capsys):
    target = tmp_path / "star.svg"
    code, _, _ = run_cli(capsys, "render", "-p", "3", "-q", "7", "--rings", "-o", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("<?xml")


def test_render_square(tmp_path, capsys):
    target = tmp_path / "square.svg"
    code, _, _ = run_cli(capsys, "render", "-p", "1", "-q", "4", "-o", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").count("<line") == 4


def test_render_series(tmp_path, capsys):
    outdir = tmp_path / "steps"
    code, out, _ = run_cli(capsys, "render", "-p", "3", "-q", "13", "--series", "-o", str(outdir))
    assert code == 0
    assert len(sorted(outdir.glob("step_*.svg"))) == 14


def test_render_series_needs_out(capsys):
    code, _, err = run_cli(capsys, "render", "-p", "3", "-q", "7", "--series")
    assert code == 2


@pytest.mark.parametrize(
    "extra",
    [["--step", "2"], ["--rings"], ["--labels"], ["--size", "900"]],
    ids=["step", "rings", "labels", "size"],
)
def test_render_series_rejects_single_figure_options(tmp_path, capsys, extra):
    outdir = tmp_path / "steps"
    argv = ["render", "-p", "3", "-q", "7", "--series", "-o", str(outdir), *extra]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and extra[0] in err
    assert not outdir.exists()


def test_render_series_accepts_default_size(tmp_path, capsys):
    outdir = tmp_path / "steps"
    argv = ["render", "-p", "3", "-q", "7", "--series", "--size", "480", "-o", str(outdir)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(sorted(outdir.glob("step_*.svg"))) == 8


def test_render_bad_step(capsys):
    code, _, err = run_cli(capsys, "render", "-p", "3", "-q", "7", "--step", "8")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["seq", "--bogus"])
    assert excinfo.value.code == 2


def test_color_toggle(monkeypatch):
    class FakeTTY:
        def isatty(self):
            return True

    monkeypatch.setattr(cli.sys, "stdout", FakeTTY())
    monkeypatch.setenv("BILLIARD_COLOR", "1")
    assert cli._colorize("x", "32") == "\x1b[32mx\x1b[0m"
    monkeypatch.setenv("BILLIARD_COLOR", "0")
    assert cli._colorize("x", "32") == "x"


def _child_env():
    # The child interpreter must import the package the tests import, also
    # from a checkout that is not installed.
    package_parent = str(Path(circle_billiards.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])
    )
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_runtime_imports_only_the_standard_library():
    # -S: no site module, so no .pth hook imports a third-party module first,
    # and site-packages is off the path, so importing one fails outright.
    code = (
        "import sys; before = set(sys.modules); import circle_billiards.cli; "
        "print(*{m.partition('.')[0] for m in set(sys.modules) - before})"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "circle_billiards" in new
    assert new - sys.stdlib_module_names == {"circle_billiards"}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "circle_billiards", "seq", "-p", "3", "-q", "13"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 2 3 4 5 7 10 13 16 20 25 30 35 40"


def test_seq_into_closed_pipe_exits_quietly():
    # As in `billiard seq -p 3 -q 999998 | head -c 20`: the reader closes
    # the pipe long before the roughly 12 MB of output are written.
    with subprocess.Popen(
        [sys.executable, "-m", "circle_billiards", "seq", "-p", "3", "-q", "999998"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    ) as proc:
        assert proc.stdout.read(20) == b"1 2 3 4 5 6 7 8 9 10"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")
