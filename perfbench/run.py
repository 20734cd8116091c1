#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the benchmark binary with the same arguments. The binary prints a report
and, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.

Exit status is the binary's; a failed build exits 1 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (first time) and builds the benchmark; returns the binary
    path, or None if the build failed. Build output goes to stderr."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", JOBS])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, cwd=ROOT).returncode
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def main(argv):
    binary = build()
    if binary is None:
        return 1
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.Popen([binary, "--work-dir", work] + argv, cwd=ROOT)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
