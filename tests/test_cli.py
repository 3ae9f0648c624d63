import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import circle_billiards
from circle_billiards import cli, formula
from circle_billiards.cli import main, run_verification
from circle_billiards.core import RotationParameter, coprime_rotations, make_rotation
from circle_billiards.oracle import CheckResult
from test_mutations import apply_mutation


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


_CHUNK_CASES = [(1, 3), (1, 4), (2, 5), (1, 6), (2, 7), (3, 8), (2, 9)]


@pytest.mark.parametrize("p, q", _CHUNK_CASES, ids=[f"{q + 1}-values" for _, q in _CHUNK_CASES])
def test_seq_plain_chunk_boundaries(capsys, monkeypatch, p, q):
    # Three values per write: q + 1 runs over 4..10, so it falls below, on
    # and just above the multiples 6 and 9 of the chunk.
    monkeypatch.setattr(cli, "_CHUNK", 3)
    values = formula.general_sequence(make_rotation(p, q)).values
    code, out, _ = run_cli(capsys, "seq", "-p", str(p), "-q", str(q))
    assert code == 0
    assert out == " ".join(map(str, values)) + "\n"


# Pairs on (2p - 1 = q // 8), one inside (2p = q // 8) and just outside
# (2p - 1 = q // 8 + 1) the cutoff between cli._write_runs and the per-int
# format of the increments.  On the runs side, 1/16 and 2/101 hold runs of
# 16 and 50 over six and more chunks, 2/25 two runs of 12 with a run of
# one between them.
_RUNS_CASES = [(1, 15), (2, 31), (3, 47), (1, 16), (2, 33), (3, 49), (2, 25), (2, 101)]
_PER_INT_CASES = [(1, 7), (2, 23), (3, 38)]
_JSON_CHUNK_CASES = _CHUNK_CASES + [(3, 7)] + _RUNS_CASES + _PER_INT_CASES


@pytest.mark.parametrize(
    "p, q", _JSON_CHUNK_CASES, ids=[f"{p}-{q}" for p, q in _JSON_CHUNK_CASES]
)
def test_seq_json_chunk_boundaries(capsys, monkeypatch, p, q):
    # Both arrays are written three items at a time, over the same 4..10
    # values as the plain case and over both sides of the increments'
    # cutoff; 1/3, 2/5 and 3/7 take the special form.  The values always
    # go through _write_chunked, the increments through _write_runs on the
    # runs side and through _write_chunked otherwise.  No write of either
    # array carries more than one chunk, also where a run spans several.
    monkeypatch.setattr(cli, "_CHUNK", 3)
    writes, calls = [], []
    stdout = sys.stdout

    class Recorded:
        def write(self, text):
            writes.append(text)
            return stdout.write(text)

        def flush(self):
            stdout.flush()

    monkeypatch.setattr(sys, "stdout", Recorded())
    for name in ("_write_chunked", "_write_runs"):

        def recorded(*args, name=name, write=getattr(cli, name)):
            calls.append(name)
            write(*args)

        monkeypatch.setattr(cli, name, recorded)
    seq = formula.general_sequence(make_rotation(p, q))
    payload = {
        "p": p,
        "q": q,
        "m": q // p,
        "r": q % p,
        "source": "SpecialClosedForm" if q == 2 * p + 1 else "GeneralFormula",
        "values": list(seq.values),
        "increments": list(seq.increments),
    }
    code, out, _ = run_cli(capsys, "seq", "-p", str(p), "-q", str(q), "--format", "json")
    assert code == 0
    assert out == json.dumps(payload) + "\n"
    increments = "_write_runs" if (p, q) in _RUNS_CASES else "_write_chunked"
    assert calls == ["_write_chunked", increments]
    assert max(len(re.findall(r"\d+", text)) for text in writes if '"' not in text) <= 3


@pytest.mark.parametrize(
    "p, q", _JSON_CHUNK_CASES, ids=[f"{p}-{q}" for p, q in _JSON_CHUNK_CASES]
)
def test_seq_csv_chunk_boundaries(capsys, monkeypatch, p, q):
    # Three rows per write, over the same pairs as the json case; the
    # numbers n go on across the chunks.
    monkeypatch.setattr(cli, "_CHUNK", 3)
    values = formula.general_sequence(make_rotation(p, q)).values
    code, out, _ = run_cli(capsys, "seq", "-p", str(p), "-q", str(q), "--format", "csv")
    assert code == 0
    assert out == "n,f_n\n" + "".join(f"{n},{f}\n" for n, f in enumerate(values))


@given(
    st.lists(st.integers(0, 10**18)).map(tuple),
    st.sampled_from([" ", ", ", ";"]),  # seq plain, seq json, scan's sequence column
)
@example((), " ")
@example((10**18,), ", ")
@example((0, 1, 10**18), ";")
def test_ints_is_str_join(xs, sep):
    assert cli._ints(xs, sep) == sep.join(map(str, xs))


def test_seq_json_uses_special_form(capsys):
    code, out, _ = run_cli(capsys, "seq", "-p", "3", "-q", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "SpecialClosedForm"
    assert payload["values"][-1] == 22
    assert payload["increments"] == [1, 1, 2, 3, 4, 5, 5]
    assert list(payload) == ["p", "q", "m", "r", "source", "values", "increments"]


@pytest.mark.parametrize("p, q", [(3, 13), (3, 14), (1, 5)], ids=["r1", "r2", "p1"])
def test_seq_json_round_trip(capsys, p, q):
    # Every pair off the q = 2p + 1 family names the general formula.
    _, out, _ = run_cli(capsys, "seq", "-p", str(p), "-q", str(q), "--format", "json")
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
    apply_mutation(monkeypatch, "scale_rings")
    code, out, _ = run_cli(capsys, "verify", "--q-max", "5")
    assert code == 1
    assert out.splitlines()[0] == "FAIL p=2 q=5 check=rings first_divergence=1"


# The p >= 2 pairs with q <= 11: under move_offset_pair each fails the oracle
# and census counts at f_2, and the ring counts.
MOVED_OFFSET_PAIRS = [
    (2, 5), (2, 7), (3, 7), (3, 8), (2, 9), (4, 9), (3, 10), (2, 11), (3, 11), (4, 11), (5, 11)
]


def test_verify_prints_every_failure(capsys, monkeypatch):
    apply_mutation(monkeypatch, "move_offset_pair")
    code, out, _ = run_cli(capsys, "verify", "--q-max", "11")
    assert code == 1
    expected = [
        line
        for p, q in MOVED_OFFSET_PAIRS
        for line in (
            f"FAIL p={p} q={q} check=general_vs_oracle first_divergence=2",
            f"FAIL p={p} q={q} check=census_vs_general first_divergence=2",
            f"FAIL p={p} q={q} check=rings",
        )
    ]
    expected.append("FAIL: 33 check(s) failed over 20 pairs (… ms)")
    assert re.sub(r"\(\d+ ms\)", "(… ms)", out).splitlines() == expected


def test_verify_keeps_each_failed_check_with_its_pair(monkeypatch):
    apply_mutation(monkeypatch, "move_offset_pair")
    failures = run_verification(11).failures
    assert MOVED_OFFSET_PAIRS == [(rp.p, rp.q) for rp in coprime_rotations(11) if rp.p > 1]
    assert [(param.p, param.q, check.name) for param, check in failures] == [
        (p, q, name)
        for p, q in MOVED_OFFSET_PAIRS
        for name in ("general_vs_oracle", "census_vs_general", "rings")
    ]
    assert all(
        isinstance(param, RotationParameter) and isinstance(check, CheckResult)
        and not check.passed
        for param, check in failures
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--q-max", "2"], "q_max must be at least 3, got 2"),
        (["scan", "--q-max", "2"], "q_max must be at least 3, got 2"),
        (
            ["verify", "--q-max", "501"],
            "--q-max above 500 needs --force "
            "(each pair is O(q), so the scan grows about as q-max cubed)",
        ),
        (["verify", "--q-max", "10", "--jobs", "0"], "--jobs must be at least 1"),
        (["render", "-p", "2", "-q", "5", "--series"], "--series requires -o OUTDIR"),
        (
            ["render", "-p", "2", "-q", "5", "--series", "--rings", "-o", "D"],
            "--series does not take --rings",
        ),
        (
            ["seq", "-p", "2", "-q", "4"],
            "2/4 reduces to 1/2: out of supported range (p/q < 1/2 required)",
        ),
        (["verify", "--force", "--q-max", "1000001"], "q_max must be at most 1000000, got 1000001"),
        (["scan", "--q-max", "1000001"], "q_max must be at most 1000000, got 1000001"),
        (["scan", "--q-max", "5", "-o", ""], "-o needs a file name ('-' for stdout)"),
        (["render", "-p", "2", "-q", "5", "-o", ""], "-o needs a file name ('-' for stdout)"),
    ],
    ids=[
        "verify-q-max-2", "scan-q-max-2", "verify-cap", "jobs-0", "series-no-out",
        "series-rings", "seq-half", "q-max-above-MAX_Q", "scan-q-max-above-MAX_Q",
        "scan-empty-out", "render-empty-out",
    ],
)
def test_usage_error_is_one_stderr_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


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


def test_scan_bytes_match_csv_writer(tmp_path, capsys):
    # The table csv.writer writes with lineterminator "\n", on stdout and
    # in a file read as bytes, so a change of line ending shows.
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["p", "q", "m", "r", "f_total", "sequence"])
    for param in coprime_rotations(40):
        values = formula.general_sequence(param).values
        row = [param.p, param.q, param.m, param.r, values[-1], ";".join(map(str, values))]
        writer.writerow(row)
    want = ref.getvalue()
    code, out, _ = run_cli(capsys, "scan", "--q-max", "40")
    assert (code, out) == (0, want)
    target = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", "--q-max", "40", "-o", str(target))
    assert code == 0
    assert target.read_bytes() == want.encode("utf-8")


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


# Without -o at all: the series-no-out case of test_usage_error_is_one_stderr_line.
@pytest.mark.parametrize("out", [["-o", "-"], ["-o", ""]], ids=["stdout", "empty"])
def test_render_series_needs_out(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "render", "-p", "3", "-q", "7", "--series", *out)
    assert code == 2
    assert "--series requires -o OUTDIR" in err
    assert list(tmp_path.iterdir()) == []


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


def _break_last_general_step(monkeypatch):
    # A schedule with one chord moved from increment 1 to increment 2 breaks
    # DivisionSequence's f_q invariant: a program fault, which must not
    # exit 2 as bad input.
    true = formula._general_counts

    def one_chord_up(param):
        counts = true(param)
        counts[0] -= 1
        counts[1] += 1
        return counts

    monkeypatch.setattr(formula, "_general_counts", one_chord_up)


def test_broken_invariant_is_not_a_usage_error(monkeypatch):
    _break_last_general_step(monkeypatch)
    with pytest.raises(ValueError, match=r"^f_q must be 40, got 41$"):
        main(["seq", "-p", "3", "-q", "13"])


def test_broken_invariant_writes_no_partial_json(monkeypatch, capsys):
    # The sequence is checked before the first piece of the document is written.
    _break_last_general_step(monkeypatch)
    with pytest.raises(ValueError, match=r"^f_q must be 40, got 41$"):
        main(["seq", "-p", "3", "-q", "13", "--format", "json"])
    assert capsys.readouterr().out == ""


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


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_seq_streams_near_max_q():
    # f_0..f_q are written as they are made, never held whole: a fresh
    # process peaked at 77 MiB while the whole sequence was built first.
    # The child reports VmHWM, the peak of its own address space; its
    # ru_maxrss would carry the peak of this test process across exec.
    code = (
        "import contextlib, os; from circle_billiards.cli import main\n"
        "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
        "    assert main('seq -p 3901 -q 999480 --format json'.split()) == 0\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 48  # kB in /proc


# The three lines tools/parity.py prints.  A change meant to keep every
# output byte keeps them; hash 1 covers every intersection_points
# coordinate with q <= 60 as float.hex.
PARITY = [
    "hash 1       883519ad177cf070e36473657e368598b3e938ea1576245aaf405d02bdde5b08",
    "records hash 45b83f8baed38698afa50e157758e9ee882d6c650c8ccec662b934dc6606a1e3",
    "cli hash     39ea32d338b15419237558f8524b97c722b052180d12786876b7b93e97256e34",
]


def test_parity_hashes():
    # A fresh process, as tools/parity.py is run on any tree.
    script = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == PARITY


def test_cli_pins_and_verify_120():
    # Fresh processes, as a user runs them: the sha256 of each pinned
    # output near MAX_Q (tests/cli_pins.txt: sha256, then argv), and the
    # PASS line of verify --q-max 120.
    env = {**_child_env(), "BILLIARD_COLOR": "0"}

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "circle_billiards", *args.split()],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            env=env,
            check=True,
        ).stdout

    lines = (Path(__file__).parent / "cli_pins.txt").read_text(encoding="utf-8").splitlines()
    pins = [line.split(" ", 1) for line in lines]
    assert len(pins) == 13
    got = [[hashlib.sha256(run(args)).hexdigest(), args] for _, args in pins]
    assert got == pins
    out = run("verify --q-max 120").decode()
    assert re.fullmatch(r"PASS: 2192 pairs \(\d+ ms\)\n", out), out
