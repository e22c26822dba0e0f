#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload steady_write --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs it, and passes its output through. The last
line of standard output is the result object. Build output goes to
standard error. Exits non-zero, without a result, if the build or the run
fails or the run prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("steady_write", "read_skewed", "durable_mixed")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "crates", "lsm-tree", "Cargo.toml")):
        print("perfbench: the repository crates are missing next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = out.splitlines()
    has_result = bool(lines) and lines[-1].startswith("{")
    if proc.returncode != 0 or not has_result:
        body = lines[:-1] if has_result else lines
        sys.stdout.write("".join(line + "\n" for line in body))
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 5
    json.loads(lines[-1])
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
