"""Mutation sweep of the package's core modules.

Each mutant changes one operator or one integer constant in one module:

- a comparison flipped at its boundary (< <-> <=, > <-> >=, == <-> !=);
- + <-> - and * <-> //, in expressions and augmented assignments;
- % -> //;
- an integer constant + 1.

A mutant first runs `billiard verify --q-max 40`; only a mutant that passes
it runs Tier-1 with -x.  Every run works in one temporary copy of the
repository, with only the mutated file rewritten, so the tree it is run from
is never touched.  Before any mutant, the unmutated copy runs both stages,
and the sweep stops with an error if either does not pass: a copy that
cannot pass would report every mutant as killed.

The result is written to stdout as JSON: one record per mutant with its
module, line, column, the text it replaced and what killed it: "verify" or
"tier1" when that stage exits non-zero; "timeout" when a stage runs past its
limit; "memory" when a stage raises MemoryError under the 2 GiB address-space
limit each child runs with; null for a survivor.  Progress goes to stderr.

    python3 tools/mutate.py oracle geometry > mutants.json

With no module named, core, formula, oracle and geometry are swept.  It
uses the standard library only, and runs one child process at a time.
"""
import argparse
import ast
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "circle_billiards"
MODULES = ("core", "formula", "oracle", "geometry")
VERIFY_TIMEOUT = 60  # seconds; the unmutated verify --q-max 40 takes under 1
TIER1_TIMEOUT = 600  # seconds; the unmutated Tier-1 takes about 30
MEMORY_LIMIT = 2 << 30  # bytes of address space per child

STAGES = (
    ("verify", [sys.executable, "-m", "circle_billiards", "verify", "--q-max", "40"], VERIFY_TIMEOUT),
    ("tier1", [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"], TIER1_TIMEOUT),
)

# Operator token -> its replacement, for every kind the sweep applies.
SWAPS = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "//"),
    ast.FloorDiv: ("//", "*"),
    ast.Mod: ("%", "//"),
}


def _tokens(source: str, kind: int) -> dict[tuple[int, int], str]:
    """(line, col) -> text of every token of the given type, col in characters."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start: tok.string for tok in tokens if tok.type == kind}


def mutants(source: str):
    """Yield (line, col, old, new, mutated source) for every mutation site.

    Each site is matched to its token, with ast's byte columns converted to
    characters first.  A site that tokenize does not see, such as one inside
    an f-string before Python 3.12, is skipped.
    """
    tree = ast.parse(source)
    operators = _tokens(source, tokenize.OP)
    numbers = _tokens(source, tokenize.NUMBER)
    lines = source.splitlines(keepends=True)
    starts = [0, 0]
    for text in lines:
        starts.append(starts[-1] + len(text))

    def position(line, byte_col):
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    def edit(line, col, old, new):
        at = starts[line] + col
        return line, col, old, new, source[:at] + new + source[at + len(old) :]

    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            pos = position(node.lineno, node.col_offset)
            if pos in numbers:
                yield edit(*pos, numbers[pos], str(node.value + 1))
            continue
        pairs = []  # (left operand, operator, right operand, token suffix)
        if isinstance(node, ast.BinOp):
            pairs.append((node.left, node.op, node.right, ""))
        elif isinstance(node, ast.AugAssign):
            pairs.append((node.target, node.op, node.value, "="))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs.extend((a, op, b, "") for a, op, b in zip(operands, node.ops, operands[1:]))
        for a, op, b, suffix in pairs:
            if type(op) not in SWAPS:
                continue
            old, new = (text + suffix for text in SWAPS[type(op)])
            after = position(a.end_lineno, a.end_col_offset)
            before = position(b.lineno, b.col_offset)
            found = [pos for pos, tok in operators.items() if tok == old and after <= pos < before]
            if len(found) == 1:
                yield edit(*found[0], old, new)


def _limit_memory():
    # A mutant that allocates without bound fails in its own process.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run(argv, cwd, timeout) -> str | None:
    """None if the command exits 0 within timeout, else "fail", "timeout" or "memory".

    On timeout the command's process group is killed.  "memory" is a
    non-zero exit whose output names MemoryError, which the address-space
    limit raises.
    """
    # No .pyc is written: one of two same-size mutants written within one
    # second could otherwise run from the other's cached bytecode.
    env = dict(os.environ, PYTHONPATH="src", BILLIARD_COLOR="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
        preexec_fn=_limit_memory,
    )
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode == 0:
        return None
    return "memory" if b"MemoryError" in output else "fail"


def _killed_by(cwd) -> str | None:
    """What kills the copy at cwd: the first stage that fails, "timeout", "memory" or None."""
    for stage, argv, timeout in STAGES:
        outcome = _run(argv, cwd, timeout)
        if outcome is not None:
            return stage if outcome == "fail" else outcome
    return None


def sweep(modules, log):
    """Run every mutant of the named modules; return one record per mutant."""
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_runs"
    )
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        clean = _killed_by(copy)
        if clean is not None:
            sys.exit(f"mutate.py: the unmutated copy does not pass ({clean}); no mutant was run")
        for module in modules:
            path = copy / PACKAGE / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            try:
                for line, col, old, new, mutated in mutants(source):
                    path.write_text(mutated, encoding="utf-8")
                    record = {
                        "module": module,
                        "line": line,
                        "col": col,
                        "old": old,
                        "new": new,
                        "killed_by": _killed_by(copy),
                    }
                    records.append(record)
                    print(json.dumps(record), file=log, flush=True)
            finally:
                path.write_text(source, encoding="utf-8")
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help=f"any of {', '.join(MODULES)} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.modules) - set(MODULES)
    if unknown:
        parser.error(f"unknown module(s): {', '.join(sorted(unknown))}")
    records = sweep(args.modules or MODULES, sys.stderr)
    summary = {}
    for r in records:
        counts = summary.setdefault(r["module"], {"mutants": 0})
        counts["mutants"] += 1
        key = r["killed_by"] or "survived"
        counts[key] = counts.get(key, 0) + 1
    json.dump({"summary": summary, "mutants": records}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
