"""Command-line front end: sequences, verification scans, ring data, rendering."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .core import ParameterError, RotationParameter, coprime_rotations, make_rotation
from .formula import general_sequence, special_sequence
from .geometry import ring_radii
from .oracle import CheckResult, verify_pair
from .render import RenderSpec, render_step_series, render_svg

# Each pair is O(q) (the ring check locates chord 1's crossings and takes
# the rest from the rotational symmetry), so a scan grows about as q_max**3:
# `verify --q-max 500` took 54 s (one run) on a 2-core host with Python
# 3.11.  Beyond this an explicit --force is required.
VERIFY_Q_CAP = 500

_CHUNK = 1 << 16  # values per write of every `seq` format: the output is never whole

_NO_FILE = "-o needs a file name ('-' for stdout)"


@dataclass(frozen=True)
class ScanResult:
    pairs_checked: int
    failures: tuple[tuple[RotationParameter, CheckResult], ...]
    elapsed_ms: int


def run_verification(q_max: int, jobs: int = 1) -> ScanResult:
    """Verify every valid (p, q) with q <= q_max, in parameter order.

    Keeps the number of pairs and each failed check with its pair; nothing
    is kept of the checks that pass.  jobs is accepted and ignored: the
    checks are pure Python, so worker threads would only take turns holding
    the interpreter lock.
    """
    start = time.perf_counter()
    pairs_checked = 0
    failures = []
    for param in coprime_rotations(q_max):
        pairs_checked += 1
        failures.extend((param, check) for check in verify_pair(param).failures())
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return ScanResult(pairs_checked, tuple(failures), elapsed_ms)


def _colorize(text: str, code: str) -> str:
    if os.environ.get("BILLIARD_COLOR", "1") == "0" or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _sequence_for(param):
    """The sequence with the name of the form that made it, for `seq --format json`."""
    if param.q == 2 * param.p + 1:
        return special_sequence(param.p), "SpecialClosedForm"
    return general_sequence(param), "GeneralFormula"


def _ints(xs: tuple[int, ...], sep: str) -> str:
    """sep.join(map(str, xs)) by one %-format, with no str per int; sep holds no "%"."""
    return sep.join(["%d"] * len(xs)) % xs


def _write_chunked(xs: tuple[int, ...], sep: str) -> None:
    """Write xs in decimal, separated by sep, one slice of _CHUNK items at a time."""
    for i in range(0, len(xs), _CHUNK):
        sys.stdout.write(sep * (i > 0) + _ints(xs[i : i + _CHUNK], sep))


def _write_increments(xs: tuple[int, ...], p: int) -> None:
    """The bytes of _write_chunked(xs, ", ") for increments, each below 2p.

    When 2p is small against q = len(xs), each of 0..2p - 1 is formatted
    once and every chunk is joined from that table.  The table costs 2p
    strs and one lookup per item, and near q = 10**6 it stops beating the
    per-int format at about 2p = q/4 (2-core host, Python 3.11); the
    cutoff q/8 keeps a margin below that crossover.
    """
    if 2 * p > len(xs) // 8:
        _write_chunked(xs, ", ")
        return
    text = list(map(str, range(2 * p)))
    for i in range(0, len(xs), _CHUNK):
        sys.stdout.write(", " * (i > 0) + ", ".join(map(text.__getitem__, xs[i : i + _CHUNK])))


def cmd_seq(args) -> int:
    param = make_rotation(args.p, args.q)
    seq, source = _sequence_for(param)
    if args.format == "plain":
        _write_chunked(seq.values, " ")
        print()
    elif args.format == "csv":
        sys.stdout.write("n,f_n\n")
        for i in range(0, len(seq.values), _CHUNK):
            chunk = seq.values[i : i + _CHUNK]
            rows = itertools.chain.from_iterable(zip(range(i, i + len(chunk)), chunk))
            sys.stdout.write("%d,%d\n" * len(chunk) % tuple(rows))
    else:
        # The bytes of json.dumps(payload) + "\n" with keys p, q, m, r,
        # source, values, increments, written without the whole document.
        header = {"p": param.p, "q": param.q, "m": param.m, "r": param.r, "source": source}
        sys.stdout.write(json.dumps(header)[:-1] + ', "values": [')
        _write_chunked(seq.values, ", ")
        sys.stdout.write('], "increments": [')
        _write_increments(seq.increments, param.p)
        sys.stdout.write("]}\n")
    return 0


def cmd_verify(args) -> int:
    if args.q_max > VERIFY_Q_CAP and not args.force:
        raise ParameterError(
            f"--q-max above {VERIFY_Q_CAP} needs --force "
            "(each pair is O(q), so the scan grows about as q-max cubed)"
        )
    if args.jobs < 1:
        raise ParameterError("--jobs must be at least 1")
    result = run_verification(args.q_max, args.jobs)
    for param, check in result.failures:
        where = (
            ""
            if check.first_divergence is None
            else f" first_divergence={check.first_divergence}"
        )
        print(f"FAIL p={param.p} q={param.q} check={check.name}{where}")
    failed = len(result.failures)
    if failed:
        summary = f"FAIL: {failed} check(s) failed over {result.pairs_checked} pairs"
    else:
        summary = f"PASS: {result.pairs_checked} pairs"
    print(_colorize(summary, "31" if failed else "32") + f" ({result.elapsed_ms} ms)")
    return 1 if failed else 0


def cmd_radii(args) -> int:
    param = make_rotation(args.p, args.q)
    for i, rr in enumerate(ring_radii(param)):
        print(f"{i} {rr.normalized_radius:.6f}")
    return 0


def cmd_render(args) -> int:
    param = make_rotation(args.p, args.q)
    if args.series:
        if args.out in (None, "-", ""):
            raise ParameterError("--series requires -o OUTDIR")
        # The series draws every prefix bare at the default size.
        given = {
            "--step": args.step is not None,
            "--rings": args.rings,
            "--labels": args.labels,
            "--size": args.size != RenderSpec.canvas_size_px,
        }
        if any(given.values()):
            flags = ", ".join(flag for flag, on in given.items() if on)
            raise ParameterError(f"--series does not take {flags}")
        paths = render_step_series(param, args.out)
        print(f"wrote {len(paths)} files to {args.out}")
        return 0
    if args.out == "":
        raise ParameterError(_NO_FILE)
    step = param.q if args.step is None else args.step
    spec = RenderSpec(
        param=param,
        upto_chord=step,
        show_rings=args.rings,
        show_labels=args.labels,
        canvas_size_px=args.size,
    )
    doc = render_svg(spec)
    if args.out in (None, "-"):
        sys.stdout.write(doc)
    else:
        Path(args.out).write_text(doc, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def cmd_scan(args) -> int:
    if args.output == "":
        raise ParameterError(_NO_FILE)
    # No field holds a comma, quote or line break, so each row is one
    # %-format with the bytes csv.writer(lineterminator="\n") would write.
    rows = []
    for param in coprime_rotations(args.q_max):
        seq = general_sequence(param)
        fields = (param.p, param.q, param.m, param.r, seq.values[-1], _ints(seq.values, ";"))
        rows.append("%d,%d,%d,%d,%d,%s\n" % fields)
    to_stdout = args.output in (None, "-")
    with (
        contextlib.nullcontext(sys.stdout)
        if to_stdout
        else open(args.output, "w", newline="", encoding="utf-8")
    ) as handle:
        handle.write("p,q,m,r,f_total,sequence\n")
        handle.writelines(rows)
    if not to_stdout:
        print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiard",
        description="Circle-division sequences of rational circular billiards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sq = sub.add_parser("seq", help="print the division sequence f_0..f_q")
    sq.add_argument("-p", type=int, required=True, help="rotation numerator")
    sq.add_argument("-q", type=int, required=True, help="rotation denominator")
    sq.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    sq.set_defaults(func=cmd_seq)

    vf = sub.add_parser("verify", help="cross-check formulas against brute force")
    vf.add_argument("--q-max", dest="q_max", type=int, required=True)
    vf.add_argument("--jobs", type=int, default=1, help="ignored; runs in one thread")
    vf.add_argument(
        "--force",
        action="store_true",
        help=f"allow --q-max beyond {VERIFY_Q_CAP} (the scan grows about as q-max cubed)",
    )
    vf.set_defaults(func=cmd_verify)

    rd = sub.add_parser("radii", help="print the crossing-ring radii r_i/R")
    rd.add_argument("-p", type=int, required=True)
    rd.add_argument("-q", type=int, required=True)
    rd.set_defaults(func=cmd_radii)

    rn = sub.add_parser("render", help="draw the trajectory as SVG")
    rn.add_argument("-p", type=int, required=True)
    rn.add_argument("-q", type=int, required=True)
    rn.add_argument("--step", type=int, default=None, help="draw only the first N chords")
    rn.add_argument("--rings", action="store_true", help="draw the crossing rings")
    rn.add_argument("--labels", action="store_true", help="label the reflection points")
    rn.add_argument(
        "--size", type=int, default=RenderSpec.canvas_size_px, help="canvas edge in pixels"
    )
    rn.add_argument("--series", action="store_true", help="write one SVG per prefix")
    rn.add_argument("-o", "--out", default=None, help="output file (or directory with --series)")
    rn.set_defaults(func=cmd_render)

    sc = sub.add_parser("scan", help="CSV table of sequences for all (p, q) up to q-max")
    sc.add_argument("--q-max", dest="q_max", type=int, required=True)
    sc.add_argument("-o", "--output", default=None, help="output file, '-' for stdout")
    sc.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParameterError as exc:  # bad input; a broken invariant is a fault and escapes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (`billiard seq ... | head`).  Point stdout at
        # devnull so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
