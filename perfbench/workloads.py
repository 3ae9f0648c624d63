"""Workload inputs, operations and output checks.

Inputs come from the seed alone; the program under test only receives the
generated (p, q) pairs and command lines.  Every operation goes through the
package's public entry points, looked up at call time so that a traced pass
sees the wrapped functions.  Outputs are checked after the timed pass, so a
check never counts as program time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import circle_billiards as cb
from circle_billiards import cli

WORKLOADS = ("verify_sweep", "verify_deep", "publish")

SIZES = {
    "full": {
        "sweep_q_max": 40,
        "deep_q": (490, 499),
        "seq_q": (cb.MAX_Q - 2000, cb.MAX_Q),
        "scan_q_max": 200,
        "series_q": (490, 499),
    },
    "smoke": {
        "sweep_q_max": 12,
        "deep_q": (40, 49),
        "seq_q": (2000, 2100),
        "scan_q_max": 20,
        "series_q": (25, 30),
    },
}

KNOWN_3_13 = "1 2 3 4 5 7 10 13 16 20 25 30 35 40"

# verify_deep strata: (label, p bounds for a given q, extra condition).  The
# special pair q = 2p + 1 is also the one with p nearest q/2.  Five pairs keep
# a pass near 1.5 s, so that a run times each pair many times.
DEEP_STRATA = (
    ("p1", lambda q: (1, 1), None),
    ("small_p", lambda q: (2, 4), None),
    ("r1", lambda q: (q / 18, q / 14), lambda p, q: q % p == 1),
    ("mid_p", lambda q: (0.24 * q, 0.26 * q), None),
    ("special", lambda q: ((q - 1) / 2, (q - 1) / 2), None),
)

# publish `seq` pairs, one per digit length of the values f_n <= p*q + 1.
SEQ_STRATA = (
    ("small_p", lambda q: (2, 9), None),
    ("p_milli_q", lambda q: (0.001 * q, 0.01 * q), None),
    ("p_tenth_q", lambda q: (0.1 * q, 0.2 * q), None),
)


@dataclass
class Op:
    """One operation: run() is timed, check(result) -> (error or None, bytes out)."""

    group: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    pairs: int = 1
    sample: bool = False  # its latency is a per-pair latency sample


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    probe_pairs: bool = False  # per-pair latency from a probe on cli.verify_pair
    jobs_scan: tuple | None = None  # (q_max, jobs) compared by the traced run
    inputs: dict = field(default_factory=dict)


def _pick(rng, q_range, bounds, cond=None):
    """A seeded valid (p, q) with q in q_range and p within bounds(q)."""
    qs = list(range(q_range[0], q_range[1] + 1))
    rng.shuffle(qs)
    for q in qs:
        lo, hi = bounds(q)
        ps = range(max(1, math.ceil(lo)), min(math.floor(hi), (q - 1) // 2) + 1)
        candidates = rng.sample(ps, min(len(ps), 64))
        for p in candidates:
            if math.gcd(p, q) == 1 and (cond is None or cond(p, q)):
                return p, q
    raise ValueError(f"no pair in q range {q_range}")


def _cli(argv, stdout_path=None):
    """A `billiard ...` call; returns (exit code, captured stdout or None)."""

    def run():
        if stdout_path is None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()
        with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            rc = cli.main(argv)
        return rc, None

    return run


def _known_answer_op():
    def check(res):
        rc, text = res
        ok = rc == 0 and text.strip() == KNOWN_3_13
        return (None if ok else f"seq 3/13 gave {text.strip()!r} (exit {rc})"), len(text)

    return Op("known", "seq 3/13", _cli(["seq", "-p", "3", "-q", "13"]), check)


def _exit_zero(res):
    return (None if res[0] == 0 else f"exit code {res[0]}"), 0


def _sha256_files(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class _SameEveryPass:
    """Holds the first digest seen; later passes must reproduce it byte for byte."""

    def __init__(self):
        self.first = None

    def differs(self, digest):
        if self.first is None:
            self.first = digest
        return digest != self.first


def verify_sweep(seed, size, out_dir):
    q_max = SIZES[size]["sweep_q_max"]
    jobs = min(2, len(os.sched_getaffinity(0)))
    expected = sum(1 for _ in cb.coprime_rotations(q_max))

    def check(res):
        rc, text = res
        m = re.search(r"^PASS: (\d+) pairs", text, re.M)
        if rc != 0 or m is None or int(m.group(1)) != expected:
            return f"verify --q-max {q_max}: exit {rc}, output {text.strip()!r}", len(text)
        return None, len(text)

    argv = ["verify", "--q-max", str(q_max), "--jobs", str(jobs)]
    warm_argv = ["verify", "--q-max", "12", "--jobs", str(jobs)]
    return Workload(
        "verify_sweep",
        ops=[Op("verify", " ".join(argv), _cli(argv), check, pairs=expected)],
        warmup=[
            _known_answer_op(),
            Op("verify", " ".join(warm_argv), _cli(warm_argv), _exit_zero),
        ],
        probe_pairs=True,
        jobs_scan=(q_max, jobs),
        inputs={"q_max": q_max, "jobs": jobs, "pairs": expected},
    )


def verify_deep(seed, size, out_dir):
    rng = random.Random(seed)
    q_range = SIZES[size]["deep_q"]
    pairs = [(label, _pick(rng, q_range, *rule)) for label, *rule in DEEP_STRATA]

    def op_for(label, p, q):
        param = cb.make_rotation(p, q)

        def check(report):
            ok = report.ok and (report.param.p, report.param.q) == (p, q)
            failed = [c.name for c in report.failures()]
            return (None if ok else f"verify_pair({p}/{q}) failed {failed}"), 0

        return Op("pair", f"{label} {p}/{q}", lambda: cb.verify_pair(param), check, sample=True)

    return Workload(
        "verify_deep",
        ops=[op_for(label, p, q) for label, (p, q) in pairs],
        warmup=[_known_answer_op(), op_for("warm-up", 50, 201)],
        inputs={"pairs": {label: f"{p}/{q}" for label, (p, q) in pairs}},
    )


def publish(seed, size, out_dir):
    rng = random.Random(seed)
    sz = SIZES[size]
    seq_pairs = [_pick(rng, sz["seq_q"], *rule) for _label, *rule in SEQ_STRATA]
    series_p, series_q = _pick(rng, sz["series_q"], lambda q: (0.2 * q, 0.3 * q))
    scan_q_max = sz["scan_q_max"]
    scan_rows = sum(1 for _ in cb.coprime_rotations(scan_q_max))
    ops = []

    for i, (p, q) in enumerate(seq_pairs):
        path = out_dir / f"seq_{i}.json"

        def check(res, p=p, q=q, path=path):
            size_b = path.stat().st_size
            payload = json.loads(path.read_text(encoding="utf-8"))
            values = payload["values"]
            ok = (
                res[0] == 0
                and (payload["p"], payload["q"]) == (p, q)
                and len(values) == q + 1
                and values[0] == 1
                and values[-1] == p * q + 1
                and len(payload["increments"]) == q
            )
            return (None if ok else f"seq {p}/{q} output wrong"), size_b

        argv = ["seq", "-p", str(p), "-q", str(q), "--format", "json"]
        ops.append(Op("seq", f"seq {p}/{q}", _cli(argv, path), check, sample=True))

    scan_path = out_dir / "scan.csv"

    def check_scan(res):
        rc, text = res
        with open(scan_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:]
        ok = (
            rc == 0
            and text.strip().startswith(f"wrote {scan_rows} rows")
            and rows[0] == ["p", "q", "m", "r", "f_total", "sequence"]
            and len(body) == scan_rows
            and all(int(r[4]) == int(r[0]) * int(r[1]) + 1 for r in body)
        )
        return (None if ok else f"scan --q-max {scan_q_max}: bad table"), scan_path.stat().st_size

    argv = ["scan", "--q-max", str(scan_q_max), "-o", str(scan_path)]
    ops.append(Op("scan", " ".join(argv[:3]), _cli(argv), check_scan, pairs=scan_rows))

    series_dir = out_dir / "series"
    series_digest = _SameEveryPass()

    def check_series(res):
        rc, _text = res
        files = sorted(series_dir.glob("step_*.svg"))
        size_b = sum(f.stat().st_size for f in files)
        if rc != 0 or len(files) != series_q + 1:
            return f"render --series {series_p}/{series_q}: {len(files)} files, exit {rc}", size_b
        if series_digest.differs(_sha256_files(files)):
            return f"render --series {series_p}/{series_q}: SVG bytes differ between passes", size_b
        return None, size_b

    argv = ["render", "-p", str(series_p), "-q", str(series_q), "--series", "-o", str(series_dir)]
    ops.append(Op("series", f"render --series {series_p}/{series_q}", _cli(argv), check_series))

    rings_path = out_dir / "rings.svg"
    rings_digest = _SameEveryPass()

    def check_rings(res):
        rc, _text = res
        data = rings_path.read_bytes()
        rings = data.count(b'stroke-dasharray="6 4"')
        if rc != 0 or rings != series_p - 1:
            return f"render --rings {series_p}/{series_q}: {rings} rings, exit {rc}", len(data)
        if rings_digest.differs(hashlib.sha256(data).hexdigest()):
            return f"render --rings {series_p}/{series_q}: SVG bytes differ", len(data)
        return None, len(data)

    pq = ["-p", str(series_p), "-q", str(series_q)]
    argv = ["render", *pq, "--rings", "--labels", "-o", str(rings_path)]
    ops.append(Op("rings", " ".join(argv[:6]), _cli(argv), check_rings))

    return Workload(
        "publish",
        ops=ops,
        warmup=[_known_answer_op()],
        inputs={
            "seq": [f"{p}/{q}" for p, q in seq_pairs],
            "scan_q_max": scan_q_max,
            "series": f"{series_p}/{series_q}",
        },
    )


MAKERS = {"verify_sweep": verify_sweep, "verify_deep": verify_deep, "publish": publish}


def build(name, seed, size, out_dir):
    return MAKERS[name](seed, size, out_dir)
