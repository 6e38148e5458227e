#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

Usage (from the repository root):

    python3 pipebench/run.py --workload live_cg|fanin_durable|fanin_concurrent \
        --seed N --seconds S --trace 0|1

The first call configures and builds `pipebench` (and the vSensor library
it links) into the build directory: $CARGO_TARGET_DIR when set, else
`.bench_build`, relative to the repository root. Later calls only re-run
the incremental build. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is one JSON object. Journals,
checkpoints, session files and the span log of a run live in a per-run
directory under the build directory and are removed afterwards, except the
span log of traced runs, which is kept as `spans-<workload>.jsonl`.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "pipebench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "pipebench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["live_cg", "fanin_durable", "fanin_concurrent"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"pipebench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = build_dir / "runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Own process group: the benchmark forks a child to measure memory, and a
    # timeout must stop that child too.
    proc = subprocess.Popen(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", str(workdir)],
        cwd=str(ROOT), start_new_session=True)
    try:
        proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("pipebench: run timed out", file=sys.stderr)
        return 1
    finally:
        spans = workdir / f"spans-{args.workload}.jsonl"
        if spans.exists():
            spans.replace(build_dir / spans.name)
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
