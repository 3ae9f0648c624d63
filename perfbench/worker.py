"""One workload in one fresh interpreter: set up, say "ready", measure, report.

run.py starts this file; it times the start until the "ready" line as
set-up, then reads the JSON result from the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads as wl
from circle_billiards import cli

import tracing

UNITS = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "pair_ms_p50": "ms",
    "pair_ms_tail": "ms",
    "peak_rss_mb": "MiB",
    "seq_s": "s",
    "scan_s": "s",
    "series_s": "s",
    "out_mb_per_s": "MB/s",
    "failed_ratio": "ratio",
    "core.coprime_rotations_ms": "ms",
    "core.make_rotation_calls": "count",
    "core.self_s": "s",
    "formula.general_sequence_s": "s",
    "formula.special_sequence_s": "s",
    "formula.r1_sequence_s": "s",
    "formula.calls": "count",
    "formula.terms_per_s": "1/s",
    "formula.self_s": "s",
    "oracle.oracle_sequence_s": "s",
    "oracle.census_prefixes_s": "s",
    "oracle.arrangement_census_s": "s",
    "oracle.verify_pair_self_s": "s",
    "oracle.crossings_found": "count",
    "oracle.share": "ratio",
    "oracle.self_s": "s",
    "geometry.intersection_points_s": "s",
    "geometry.ring_radii_s": "s",
    "geometry.intersections": "count",
    "geometry.chords_cross_calls": "count",
    "geometry.cross_hit_ratio": "ratio",
    "geometry.share": "ratio",
    "geometry.self_s": "s",
    "render.render_svg_s": "s",
    "render.svg_bytes": "bytes",
    "render.write_s": "s",
    "render.self_s": "s",
    "cli.format_s": "s",
    "cli.run_verification_jobs1_s": "s",
    "cli.run_verification_jobsN_s": "s",
    "cli.jobs_speedup": "ratio",
    "runtime.gc_gen2_collections": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}

FORMULA_FNS = ("general_sequence", "special_sequence", "r1_sequence")


def _count_terms(counts, seq):
    counts["formula.terms"] += len(seq.values)


ON_RESULT = {
    **{f"formula.{fn}": _count_terms for fn in FORMULA_FNS},
    "geometry.intersection_points": lambda c, geo: c.update(
        {"geometry.intersections": len(geo.intersections)}
    ),
    "render.render_svg": lambda c, doc: c.update({"render.svg_bytes": len(doc.encode())}),
}


class Tally:
    """Operations attempted and failed over the whole run, with their errors."""

    def __init__(self):
        self.attempted = 0
        self.errors = []  # one per failed operation
        self.problems = []  # failed checks on the measurement itself

    def add(self, errors, attempted):
        self.attempted += attempted
        self.errors.extend(errors)


def run_pass(ops, tracer=None):
    """Run every op once, timed; then check the outputs, untimed."""
    gen2 = 0
    done = []
    for i, op in enumerate(ops):
        # Every operation starts from the same collector state, whatever ran
        # before it; collections it triggers itself count in its time.
        gc.collect()
        gen2_before = gc.get_stats()[2]["collections"]
        t0 = perf_counter()
        try:
            res = tracer.run_op(i, f"bench.{op.group}", op.run) if tracer else op.run()
            err = None
        except Exception as exc:  # a raising operation is a failed operation
            res, err = None, f"{op.label}: {type(exc).__name__}: {exc}"
        done.append((op, res, err, perf_counter() - t0))
        gen2 += gc.get_stats()[2]["collections"] - gen2_before
    errors, out_bytes = [], 0
    for op, res, err, _dt in done:
        if err is None:
            try:
                err, nbytes = op.check(res)
                out_bytes += nbytes
            except (OSError, ValueError, KeyError, IndexError) as exc:
                err = f"{op.label}: output check raised {type(exc).__name__}: {exc}"
        if err:
            errors.append(err)
    return {
        "wall": sum(dt for _op, _r, _e, dt in done),
        "op_times": [dt for _op, _r, _e, dt in done],
        "out_bytes": out_bytes,
        "gen2": gen2,
        "errors": errors,
    }


@contextlib.contextmanager
def pair_probe(samples):
    """Time each verify_pair call the verify command makes, keyed by (p, q)."""
    original = cli.verify_pair

    def timed(param):
        t0 = perf_counter()
        try:
            return original(param)
        finally:
            samples.setdefault((param.p, param.q), []).append(perf_counter() - t0)

    cli.verify_pair = timed
    try:
        yield
    finally:
        cli.verify_pair = original


def tail(xs):
    """(value, percentile) of sorted samples: the highest percentile with ten above it.

    Below 21 samples that order statistic would sit under the median, so the
    maximum is reported instead.
    """
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def op_medians(passes):
    """Each operation's median time over the run's passes.

    On a shared host this process mostly runs at one typical speed, with
    stretches up to 1.6 times faster that come and go at random.  An
    operation's fastest time depends on whether a run happens to meet such
    a stretch, so it moves by 10-20% between runs of the same code; the
    median over the run is the typical speed and moves about half as much.
    """
    return [statistics.median(t) for t in zip(*(ps["op_times"] for ps in passes))]


def end_to_end(w, passes, probe_samples):
    per_op = op_medians(passes)
    wall = sum(per_op)
    if w.probe_pairs:
        # A pair inside the threaded verify command also waits while the
        # other pool thread holds the interpreter lock; its fastest time
        # over the passes is its own cost.
        latencies = [min(v) for v in probe_samples.values()]
    else:
        latencies = [t for op, t in zip(w.ops, per_op) if op.sample]
    lat_ms = sorted(1000.0 * t for t in latencies)
    tail_ms, tail_pct = tail(lat_ms) if lat_ms else (0.0, 0.0)
    groups = Counter()
    for op, t in zip(w.ops, per_op):
        groups[op.group] += t
    out_bytes = statistics.median(ps["out_bytes"] for ps in passes)
    metrics = {
        "wall_s": wall,
        "pairs_per_s": sum(op.pairs for op in w.ops) / wall,
        "pair_ms_p50": statistics.median(lat_ms) if lat_ms else 0.0,
        "pair_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "seq_s": groups["seq"],
        "scan_s": groups["scan"],
        "series_s": groups["series"],
        "out_mb_per_s": out_bytes / 1e6 / wall,
    }
    notes = {
        "passes": len(passes),
        "pass_walls_s": [ps["wall"] for ps in passes],
        "op_times_s": [ps["op_times"] for ps in passes],
        "op_median_s": dict(zip((op.label for op in w.ops), per_op)),
        "pair_samples": len(lat_ms),
        "pair_tail_percentile": tail_pct,
    }
    return metrics, notes


def time_setup(argv):
    """Seconds from starting a fresh --setup-only worker until it says "ready"."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, *argv, "--setup-only"], stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip()!r}, exit {proc.returncode}")
    return ready


# Set-up is timed between passes, at most this often, so that its samples
# spread over the run instead of meeting one moment of the machine's load.
SETUP_EVERY_S = 1.5


def measure(w, seconds, tally, argv):
    passes, probe_samples = [], {}
    setup = [time_setup(argv), time_setup(argv)]
    start = last_setup = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        probe = pair_probe(probe_samples) if w.probe_pairs else contextlib.nullcontext()
        with probe:
            ps = run_pass(w.ops)
        passes.append(ps)
        tally.add(ps["errors"], len(w.ops))
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(time_setup(argv))
            last_setup = perf_counter()
    metrics, notes = end_to_end(w, passes, probe_samples)
    notes["setup_samples_s"] = setup
    return metrics, notes


def layer_metrics(spans, counts, wall):
    by_name, by_layer = tracing.summarize(spans)

    def self_s(name):
        return by_name[name]["self"] if name in by_name else 0.0

    def incl_s(name):
        return by_name[name]["incl"] if name in by_name else 0.0

    def calls(name):
        return by_name[name]["calls"] if name in by_name else 0

    formula_s = sum(self_s(f"formula.{fn}") for fn in FORMULA_FNS)
    layered = sum(by_layer[layer] for layer in tracing.LAYERS)
    # Shares are of all self time, so that they also sum to one when two
    # pool threads work at once (verify --jobs 2).
    total = sum(by_layer.values())
    m = {
        "core.coprime_rotations_ms": 1000.0 * incl_s("core.coprime_rotations"),
        "core.make_rotation_calls": calls("core.make_rotation"),
        "formula.calls": sum(calls(f"formula.{fn}") for fn in FORMULA_FNS),
        "formula.terms_per_s": counts["formula.terms"] / formula_s if formula_s else 0.0,
        "oracle.verify_pair_self_s": self_s("oracle.verify_pair"),
        "oracle.share": by_layer["oracle"] / total,
        "geometry.intersections": counts["geometry.intersections"],
        "geometry.share": by_layer["geometry"] / total,
        "render.svg_bytes": counts["render.svg_bytes"],
        # render_step_series minus its render_svg (and other) child calls:
        # the RenderSpec set-up and the file writes.
        "render.write_s": self_s("render.render_step_series"),
        "cli.format_s": by_layer["cli"],
        "trace.unaccounted_s": wall - layered,
        "trace.spans": len(spans),
    }
    for fn in FORMULA_FNS:
        m[f"formula.{fn}_s"] = self_s(f"formula.{fn}")
    for fn in ("oracle_sequence", "census_prefixes", "arrangement_census"):
        m[f"oracle.{fn}_s"] = self_s(f"oracle.{fn}")
    for fn in ("intersection_points", "ring_radii"):
        m[f"geometry.{fn}_s"] = self_s(f"geometry.{fn}")
    m["render.render_svg_s"] = self_s("render.render_svg")
    for layer in ("core", "formula", "oracle", "geometry", "render"):
        m[f"{layer}.self_s"] = by_layer[layer]
    shares = {layer: v / total for layer, v in sorted(by_layer.items())}
    return m, shares


def measure_traced(w, seconds, tally, spans_out):
    """Untraced and traced passes alternate; the difference is the tracing overhead."""
    plain, traced, best = [], [], None
    start = perf_counter()
    k = 0
    while k < 4 or k % 2 or perf_counter() - start < seconds:
        if k % 2 == 0:
            ps = run_pass(w.ops)
            plain.append(ps)
        else:
            tracer = tracing.Tracer()
            with tracer.patched(ON_RESULT):
                ps = run_pass(w.ops, tracer)
            traced.append(ps)
            # Layer figures, and the spans kept, come from the least disturbed
            # traced pass.
            if best is None or ps["wall"] < best[0]:
                best = (ps["wall"], *layer_metrics(tracer.spans, tracer.counts, ps["wall"]))
                spans_out[:] = tracer.spans
        tally.add(ps["errors"], len(w.ops))
        k += 1

    traced_wall, metrics, layer_share = best
    e2e, notes = end_to_end(w, plain, {})
    for name in ("seq_s", "scan_s", "series_s", "out_mb_per_s"):
        metrics[name] = e2e[name]
    metrics["runtime.gc_gen2_collections"] = statistics.median(ps["gen2"] for ps in plain)
    untraced_wall = e2e["wall_s"]
    traced_wall_s = sum(op_medians(traced))
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall
    notes.update(
        untraced_wall_s=untraced_wall,
        traced_wall_s=traced_wall_s,
        layer_share=layer_share,
    )

    # Each layer's self time is part of exactly one pass; with one thread
    # they partition it, up to the benchmark's own loop and the tracing cost.
    if w.name == "verify_deep":
        slack = max(metrics["trace.overhead_s"], 0.0) + 0.005 * traced_wall
        if abs(metrics["trace.unaccounted_s"]) > slack:
            tally.problems.append(
                f"layer self times miss the pass time by {metrics['trace.unaccounted_s']:.4f} s"
            )

    counts = Counter()
    with tracing.counting_patch(counts):
        ps = run_pass(w.ops)
    tally.add(ps["errors"], len(w.ops))
    calls = sum(v for k, v in counts.items() if k.endswith(".calls"))
    hits = sum(v for k, v in counts.items() if k.endswith(".hits"))
    metrics["geometry.chords_cross_calls"] = calls
    metrics["geometry.cross_hit_ratio"] = hits / calls if calls else 0.0
    metrics["oracle.crossings_found"] = counts["oracle.hits"]

    jobs1 = jobs_n = speedup = 0.0
    if w.jobs_scan:
        q_max, jobs = w.jobs_scan
        times = []
        for n_jobs in (1, jobs):
            t0 = perf_counter()
            result = cli.run_verification(q_max, n_jobs)
            times.append(perf_counter() - t0)
            bad = result.failures or result.pairs_checked != w.inputs["pairs"]
            tally.add([f"run_verification({q_max}, {n_jobs}) failed"] if bad else [], 1)
        jobs1, jobs_n = times
        speedup = jobs1 / jobs_n
    metrics["cli.run_verification_jobs1_s"] = jobs1
    metrics["cli.run_verification_jobsN_s"] = jobs_n
    metrics["cli.jobs_speedup"] = speedup
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(wl.SIZES), default="full")
    ap.add_argument("--runs-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)

    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.runs_dir))
    try:
        w = wl.build(args.workload, args.seed, args.size, out_dir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tally = Tally()
        for op in w.warmup:
            tally.add(run_pass([op])["errors"], 1)
        spans = []
        if args.trace:
            metrics, notes = measure_traced(w, args.seconds, tally, spans)
        else:
            metrics, notes = measure(w, args.seconds, tally, argv)
        metrics["failed_ratio"] = len(tally.errors) / tally.attempted
        if spans:
            spans_path = args.runs_dir / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(spans), encoding="utf-8")
            notes["spans_file"] = spans_path.name
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    tally.problems += [f"non-finite metric {k}" for k, v in metrics.items() if not math.isfinite(v)]
    result = {
        "correct": not tally.errors and not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "inputs": w.inputs,
        "notes": notes,
        "errors": tally.problems + tally.errors[:20],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
