#!/usr/bin/env python3
"""Build the pipeline benchmark (optimised, out of tree) and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wire-ipfix, wire-v9-paced, report-slices. The benchmark binary
is built from perfbench/CMakeLists.txt (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, under the
repository root. Build output goes to standard error; the last line of
standard output is the run's JSON result. Exits non-zero when the build
fails, the run fails or an output check fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wire-ipfix", "wire-v9-paced", "report-slices")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                        "--target", "pipeline_bench"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "pipeline_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(build_dir() / "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
