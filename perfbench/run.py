"""Benchmark of the circle_billiards package: end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # every workload, tracing off
    python3 perfbench/run.py --trace 1             # every workload, traced
    python3 perfbench/run.py --workload publish --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke               # minimal sizes, checks the report

Run from the repository root.  Each workload runs in its own fresh
interpreter (worker.py); set-up is timed over several fresh interpreters
and the median is reported.  With --workload, the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}
holding the metrics BENCHMARK.json lists for the trace mode; the lines
before it, starting with "#", give every metric, the inputs and the machine.
Each run's full record is written to .bench_runs/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "circle_billiards"
# verify_deep is not in BENCHMARK.json: on a shared host its large, memory-
# heavy pairs spread too widely between runs to gate a change (see README).
# It stays here for its per-layer attribution at large q.
WORKLOADS = ("verify_sweep", "verify_deep", "publish")

WORKER_TIMEOUT_S = 170

# End-to-end figures that are defined on one workload only, or are 0 on
# correct code; BENCHMARK.json lists them under per_layer, and trace-0 runs
# print them too.
UNBOUNDED_E2E = ("seq_s", "scan_s", "series_s", "out_mb_per_s", "failed_ratio")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def read_proc(path, pick):
    try:
        return pick(Path(path).read_text())
    except (OSError, IndexError, ValueError):
        return "unknown"


def cpu_model(cpuinfo):
    lines = cpuinfo.splitlines()
    return next(ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name"))


def loadavg():
    return read_proc("/proc/loadavg", lambda t: [float(x) for x in t.split()[:3]])


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": read_proc("/proc/cpuinfo", cpu_model),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # String hashing, and with it set and dict layout, the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, runs_dir):
    """Start worker.py; return (process, seconds until it printed "ready")."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", "smoke" if args.smoke else "full",
        "--runs-dir", str(runs_dir),
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not get ready: {line.strip()!r}")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, spec, units):
    runs_dir = ROOT / ".bench_runs"
    runs_dir.mkdir(exist_ok=True)
    env = environment(args)
    env["loadavg_before"] = loadavg()
    proc, ready = start_worker(args, runs_dir)
    result = json.loads(finish(proc, WORKER_TIMEOUT_S).strip().splitlines()[-1])
    env["loadavg_after"] = loadavg()

    metrics = result["metrics"]
    # The measuring worker's own start, plus the fresh --setup-only workers
    # it timed between its passes.
    setup = [ready] + result["notes"].get("setup_samples_s", [])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    shown = wanted + [n for n in UNBOUNDED_E2E if n not in wanted and not args.trace]
    for name in shown:
        if name not in metrics or metrics[name]["unit"] != units[name]:
            raise RuntimeError(f"metric {name} missing or in the wrong unit")
    record = {"env": env, **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    notes = result["notes"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={notes['passes']}")
    print(f"# inputs: {json.dumps(result['inputs'])}")
    print(f"# env: {json.dumps(env)}")
    if not args.trace:
        print(
            f"# pair samples n={notes['pair_samples']}, "
            f"tail = p{notes['pair_tail_percentile']:.1f}"
        )
    else:
        print(
            f"# tracing overhead {metrics['trace.overhead_s']['value']:.4f} s "
            f"(untraced pass {notes['untraced_wall_s']:.4f} s, "
            f"traced {notes['traced_wall_s']:.4f} s)"
        )
        shares = ", ".join(f"{k} {v:.3f}" for k, v in notes["layer_share"].items())
        print(f"# share of self time by layer: {shares}")
    for name in shown:
        print(f"#   {name:34s} {fmt(metrics[name]['value']):>14s} {metrics[name]['unit']}")
    print(
        f"# correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    for err in result["errors"]:
        print(f"# error: {err}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0


def run_all(args, spec, units):
    """Every workload in its own process; with --smoke, check what each reports."""
    problems = []
    for trace in (0, 1) if args.smoke else (args.trace,):
        for workload in WORKLOADS:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {done.returncode}")
                continue
            if args.smoke:
                problems += smoke_check(workload, trace, lines, spec, units)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if args.smoke and not problems:
        print("smoke: every workload printed every metric with its unit")
    return 1 if problems else 0


def smoke_check(workload, trace, lines, spec, units):
    problems = []
    result = json.loads(lines[-1])
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if list(result["metrics"]) != wanted:
        problems.append(f"{workload} trace={trace}: metrics {list(result['metrics'])}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: not correct")
    human = [ln.split() for ln in lines if ln.startswith("#   ")]
    printed = {parts[1]: parts[-1] for parts in human}
    shown = wanted + ([n for n in UNBOUNDED_E2E if n not in wanted] if not trace else [])
    for name in shown:
        value = result["metrics"].get(name, {}).get("value", 0.0) if name in wanted else 0.0
        if printed.get(name) != units[name] or not math.isfinite(value):
            problems.append(f"{workload} trace={trace}: {name} not printed with unit {units[name]}")
    return problems


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        return fail(f"run from a checkout of the repository: {PACKAGE} or {spec_path} is missing")
    spec, units = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="minimal sizes; without --workload, check the report"
    )
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 1

    # Building a pure-Python package is byte-compiling it, once, before any timing.
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        return fail("byte-compiling the package failed")
    if args.workload is None:
        return run_all(args, spec, units)
    try:
        return run_one(args, spec, units)
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        return fail(f"{args.workload}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
