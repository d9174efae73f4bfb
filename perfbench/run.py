#!/usr/bin/env python3
"""Build and run the info-rdl benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the benchmark crate in this
directory (release profile, into $CARGO_TARGET_DIR or .bench_build/),
stamps the run with the source revision, and runs the workload. The last
line of standard output is the result object; the line before it is the
result block with the run's provenance. Workloads, metrics and the
reasons behind them are described in README.md next to this file.
"""

import argparse
import datetime
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["route_dense2", "route_dense3_t2", "eco_dense2", "serve_dense1"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Inputs that decide what the benchmark measures: the router's sources and
# the benchmark's own.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/src"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_fingerprint():
    """SHA-256 over the source files, so a run names its code without git."""
    digest = hashlib.sha256()
    files = []
    for entry in SOURCES:
        path = ROOT / entry
        files.extend([path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file()))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no router sources under {ROOT}; run from a full checkout of the repository")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    env["PERFBENCH_GIT_REV"] = git_rev()
    env["PERFBENCH_SOURCE_FP"] = source_fingerprint()
    env["PERFBENCH_DATE"] = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    try:
        ran = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S}s")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
