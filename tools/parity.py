"""Print three sha256 parity hashes of the package's outputs.

A change meant to keep every output byte compares these hashes on the
tree before it and on the tree after it.  Only the public API and the
`billiard` entry point are used, so the script runs on older trees too:

    PYTHONPATH=<tree>/src python3 tools/parity.py

hash 1: repr(verify_pair(rp).checks) and every intersection_points
crossing (chord_a,chord_b,x.hex(),y.hex(),ring;) for each pair with q <= 60.

records hash: the public records for each pair with q <= 60: every
chord_list endpoint pair (from_vertex,to_vertex;), then every ring_radii
normalized_radius.hex() (hex;), each list closed by "|".

cli hash: repr((argv, exit code, stdout)) of `seq` (plain, csv, json),
`radii`, `render --rings --labels` and `render --step q//2` for each pair
with q <= 30, then the same for `render -p 7 -q 31 --series` and
`scan --q-max 40 -o`, each followed by the names and bytes of the files
they write.  Files go to a fixed relative directory inside a temporary
working directory, so the `wrote ... to DIR` messages do not vary.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from circle_billiards import (
    chord_list,
    coprime_rotations,
    intersection_points,
    ring_radii,
    verify_pair,
)
from circle_billiards.cli import main


def hash_1() -> str:
    h = hashlib.sha256()
    for rp in coprime_rotations(60):
        h.update(repr(verify_pair(rp).checks).encode())
        for c in intersection_points(rp).intersections:
            x, y = c.point
            h.update(f"{c.chord_a},{c.chord_b},{x.hex()},{y.hex()},{c.ring};".encode())
    return h.hexdigest()


def records_hash() -> str:
    h = hashlib.sha256()
    for rp in coprime_rotations(60):
        for ch in chord_list(rp):
            h.update(f"{ch.from_vertex},{ch.to_vertex};".encode())
        h.update(b"|")
        for rr in ring_radii(rp):
            h.update(f"{rr.normalized_radius.hex()};".encode())
        h.update(b"|")
    return h.hexdigest()


def _run(h, argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    h.update(repr((argv, code, out.getvalue())).encode())


def cli_hash() -> str:
    h = hashlib.sha256()
    for rp in coprime_rotations(30):
        pq = ["-p", str(rp.p), "-q", str(rp.q)]
        for fmt in ("plain", "csv", "json"):
            _run(h, ["seq", *pq, "--format", fmt])
        _run(h, ["radii", *pq])
        _run(h, ["render", *pq, "--rings", "--labels"])
        _run(h, ["render", *pq, "--step", str(rp.q // 2)])
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, written in (
                (["render", "-p", "7", "-q", "31", "--series", "-o", "out/series"], "out/series"),
                (["scan", "--q-max", "40", "-o", "out/scan.csv"], "out/scan.csv"),
            ):
                _run(h, argv)
                target = Path(written)
                for path in sorted(target.iterdir()) if target.is_dir() else [target]:
                    h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
        finally:
            os.chdir(home)
    return h.hexdigest()


if __name__ == "__main__":
    print(f"hash 1       {hash_1()}")
    print(f"records hash {records_hash()}")
    print(f"cli hash     {cli_hash()}")
