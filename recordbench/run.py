#!/usr/bin/env python3
"""Run one workload of the PRIMACY benchmark of record.

    python3 recordbench/run.py --workload checkpoint|incompressible|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds, offline and in release mode, the
benchmark's end-to-end binary and the `primacy-serve` binary (and, for
`--trace 1`, the traced binary), then replaces itself with the binary for
the run. Build output goes to stderr; stdout carries only the run's report,
whose last line is the result object. Artifacts go to `$CARGO_TARGET_DIR`
(default `.bench_build` in the current directory).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("checkpoint", "incompressible", "serve")


def build(manifest, *target):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable (not a git checkout)"


def source_sha256():
    """Digest of the sources the run builds from, for checkouts without git."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("crates", "src", os.path.basename(HERE))]
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = [d for d in dirnames if d != "target"]
            files += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(f for f in files if os.path.isfile(f)):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    binary = "recordbench-layers" if args.trace else "recordbench-e2e"
    # The server is built on every run, so the first run pays for every
    # build the end-to-end runs need.
    build(os.path.join(HERE, "Cargo.toml"), "--bin", binary)
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "primacy-serve", "--bin", "primacy-serve")

    os.environ["RECORDBENCH_COMMIT"] = commit()
    os.environ["RECORDBENCH_SOURCE_SHA256"] = source_sha256()
    path = os.path.join(target, "release", binary)
    argv = [
        path,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--server-bin", os.path.join(target, "release", "primacy-serve"),
    ]
    sys.stdout.flush()
    os.execv(path, argv)


if __name__ == "__main__":
    main()
