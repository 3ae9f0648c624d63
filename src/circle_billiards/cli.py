"""Command-line front end: sequences, verification scans, ring data, rendering."""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import formula
from .core import ParameterError, RotationParameter, coprime_rotations, make_rotation
from .formula import general_sequence, special_sequence
from .geometry import ring_radii
from .oracle import CheckResult, verify_pair
from .render import RenderSpec, render_step_series, render_svg

# Each pair is O(q) (the ring check locates chord 1's crossings and counts
# the rest by the rotational symmetry), so a scan grows about as q_max**3:
# `verify --q-max 500` took 8.5-12.0 s (five runs, median 9.0 s) on a shared
# 2-core host with Python 3.11.7.  Beyond this an explicit --force is required.
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


def _ints(xs: tuple[int, ...], sep: str) -> str:
    """sep.join(map(str, xs)) by one %-format, with no str per int; sep holds no "%"."""
    return (("%d" + sep) * (len(xs) - 1) + "%d") % xs if xs else ""


def _chunks(xs: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """xs in tuples of _CHUNK items, the last one shorter."""
    xs = iter(xs)
    while chunk := tuple(itertools.islice(xs, _CHUNK)):
        yield chunk


def _write_chunked(xs: Iterable[int], sep: str) -> None:
    """Write xs in decimal, separated by sep, one slice of _CHUNK items at a time."""
    full = ("%d" + sep) * (_CHUNK - 1) + "%d"  # the format of every chunk but the last
    lead = ""
    for chunk in _chunks(xs):
        sys.stdout.write(lead + (full % chunk if len(chunk) == _CHUNK else _ints(chunk, sep)))
        lead = sep


def _write_runs(counts: list[int]) -> None:
    """The bytes of _write_chunked(steps, ", ") for the steps that counts expands to.

    counts[d - 1] chords in a row add d, so a run is one str repetition, cut
    where a chunk of _CHUNK items ends.  That costs about 1 us a run against
    0.1 us an item for the per-int format (q near 10**6, 2-core host,
    Python 3.11): the two are even at about q/8 runs, and seq takes this
    writer up to there.
    """
    pieces, room, cut = [], _CHUNK, 2  # cut: the ", " before the first item
    for d, c in enumerate(counts, 1):
        item = ", %d" % d
        while c:
            n = min(c, room)
            pieces.append(item * n)
            c -= n
            room -= n
            if not room:
                sys.stdout.write("".join(pieces)[cut:])
                pieces, room, cut = [], _CHUNK, 0
    sys.stdout.write("".join(pieces)[cut:])


def cmd_seq(args) -> int:
    param = make_rotation(args.p, args.q)
    if param.q == 2 * param.p + 1:
        special = special_sequence(param.p)
        source, values = "SpecialClosedForm", special.values
        write_increments = lambda: _write_chunked(special.increments, ", ")
    else:
        # Checked in O(p) before the first byte; f_0..f_q are never held whole.
        counts = formula._general_counts(param)
        formula._check_counts(param, counts)
        if len(counts) <= param.q // 8:
            # The increments are written from the counts, so the steps are
            # only summed and never listed: a 10**6-item list freed here
            # stayed resident in the process after the command returned.
            steps = itertools.chain.from_iterable(
                map(itertools.repeat, itertools.count(1), counts)
            )
            write_increments = functools.partial(_write_runs, counts)
        else:
            steps = formula._expand(counts)
            write_increments = functools.partial(_write_chunked, steps, ", ")
        source, values = "GeneralFormula", itertools.accumulate(steps, initial=1)
    if args.format == "plain":
        _write_chunked(values, " ")
        print()
    elif args.format == "csv":
        sys.stdout.write("n,f_n\n")
        for n, chunk in zip(itertools.count(0, _CHUNK), _chunks(values)):
            rows = itertools.chain.from_iterable(zip(range(n, n + len(chunk)), chunk))
            sys.stdout.write("%d,%d\n" * len(chunk) % tuple(rows))
    else:
        # The bytes of json.dumps(payload) + "\n" with keys p, q, m, r,
        # source, values, increments, written without the whole document.
        header = {"p": param.p, "q": param.q, "m": param.m, "r": param.r, "source": source}
        sys.stdout.write(json.dumps(header)[:-1] + ', "values": [')
        _write_chunked(values, ", ")
        sys.stdout.write('], "increments": [')
        write_increments()
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
