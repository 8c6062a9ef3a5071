#!/usr/bin/env python3
"""Builds the caddb end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 ledger/run.py --workload shell-read --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; the run's databases live under <build>/runs and are removed when
it ends, traced runs leave their spans in <build>/traces. Build output and
progress go to stderr; the last line of stdout is the result JSON printed by
the benchmark binary. Extra flags (--smoke, --break-oracle NAME) are passed
through to it.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    made = subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(out_dir, "caddb_ledger")


def main(argv):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("ledger: build failed", file=sys.stderr)
        return 1
    # Runs are sequential: whatever a killed run left behind goes now.
    shutil.rmtree(os.path.join(out_dir, "runs"), ignore_errors=True)
    cmd = [binary] + argv + [
        "--work-dir", os.path.join(out_dir, "runs"),
        "--trace-dir", os.path.join(out_dir, "traces"),
    ]
    # A terminated runner takes its benchmark process down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
