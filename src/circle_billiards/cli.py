"""Command-line front end: sequences, verification scans, ring data, rendering."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .core import ParameterError, coprime_rotations, make_rotation
from .formula import general_sequence, special_sequence
from .geometry import ring_radii
from .oracle import verify_pair
from .render import RenderSpec, render_step_series, render_svg

# The per-pair ring check locates q*(p-1) crossings, quadratic in q; beyond
# this an explicit --force is required.
VERIFY_Q_CAP = 500


@dataclass(frozen=True)
class ScanFailure:
    p: int
    q: int
    check_name: str
    first_divergence_index: int | None


@dataclass(frozen=True)
class ScanResult:
    pairs_checked: int
    failures: tuple[ScanFailure, ...]
    elapsed_ms: int


def run_verification(q_max: int, jobs: int = 1) -> ScanResult:
    """Verify every valid (p, q) with q <= q_max, in parameter order.

    jobs is accepted and ignored: the checks are pure Python, so worker
    threads would only take turns holding the interpreter lock.
    """
    params = list(coprime_rotations(q_max))
    start = time.perf_counter()
    reports = [verify_pair(pm) for pm in params]
    failures = tuple(
        ScanFailure(rep.param.p, rep.param.q, c.name, c.first_divergence)
        for rep in reports
        for c in rep.checks
        if not c.passed
    )
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return ScanResult(len(params), failures, elapsed_ms)


def _colorize(text: str, code: str) -> str:
    if os.environ.get("BILLIARD_COLOR", "1") == "0" or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _sequence_for(param):
    if param.q == 2 * param.p + 1:
        return special_sequence(param.p)
    return general_sequence(param)


def cmd_seq(args) -> int:
    param = make_rotation(args.p, args.q)
    seq = _sequence_for(param)
    if args.format == "plain":
        print(" ".join(str(v) for v in seq.values))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "f_n"])
        for n, v in enumerate(seq.values):
            writer.writerow([n, v])
    else:
        payload = {
            "p": param.p,
            "q": param.q,
            "m": param.m,
            "r": param.r,
            "source": seq.source.value,
            "values": seq.values,
            "increments": seq.increments,
        }
        print(json.dumps(payload))
    return 0


def cmd_verify(args) -> int:
    if args.q_max < 3:
        print("error: --q-max must be at least 3", file=sys.stderr)
        return 2
    if args.q_max > VERIFY_Q_CAP and not args.force:
        print(
            f"error: --q-max above {VERIFY_Q_CAP} needs --force "
            "(verification is quadratic per pair)",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    result = run_verification(args.q_max, args.jobs)
    for f in result.failures:
        where = (
            ""
            if f.first_divergence_index is None
            else f" first_divergence={f.first_divergence_index}"
        )
        print(f"FAIL p={f.p} q={f.q} check={f.check_name}{where}")
    if result.failures:
        print(
            _colorize(
                f"FAIL: {len(result.failures)} check(s) failed over "
                f"{result.pairs_checked} pairs",
                "31",
            )
            + f" ({result.elapsed_ms} ms)"
        )
        return 1
    print(
        _colorize(f"PASS: {result.pairs_checked} pairs", "32")
        + f" ({result.elapsed_ms} ms)"
    )
    return 0


def cmd_radii(args) -> int:
    param = make_rotation(args.p, args.q)
    for rr in ring_radii(param):
        print(f"{rr.ring_index} {rr.normalized_radius:.6f}")
    return 0


def cmd_render(args) -> int:
    param = make_rotation(args.p, args.q)
    if args.series:
        if args.out in (None, "-"):
            print("error: --series requires -o OUTDIR", file=sys.stderr)
            return 2
        # The series draws every prefix bare at the default size.
        given = {
            "--step": args.step is not None,
            "--rings": args.rings,
            "--labels": args.labels,
            "--size": args.size != RenderSpec.canvas_size_px,
        }
        if any(given.values()):
            flags = ", ".join(flag for flag, on in given.items() if on)
            print(f"error: --series does not take {flags}", file=sys.stderr)
            return 2
        paths = render_step_series(param, args.out)
        print(f"wrote {len(paths)} files to {args.out}")
        return 0
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
    if args.q_max < 3:
        print("error: --q-max must be at least 3", file=sys.stderr)
        return 2
    rows = []
    for param in coprime_rotations(args.q_max):
        seq = general_sequence(param)
        rows.append(
            [
                param.p,
                param.q,
                param.m,
                param.r,
                seq.values[-1],
                ";".join(str(v) for v in seq.values),
            ]
        )
    to_stdout = args.output in (None, "-")
    with (
        contextlib.nullcontext(sys.stdout)
        if to_stdout
        else open(args.output, "w", newline="", encoding="utf-8")
    ) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["p", "q", "m", "r", "f_total", "sequence"])
        writer.writerows(rows)
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
        "--force", action="store_true", help=f"allow --q-max beyond {VERIFY_Q_CAP}"
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
    rn.add_argument("--size", type=int, default=480, help="canvas edge in pixels")
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
        return args.func(args)
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
