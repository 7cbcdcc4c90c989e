#!/usr/bin/env python3
"""Build zipserv-server and the perfbench harness from source, then run
one benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chat-unique --seed 1 --seconds 30 --trace 0

Everything the build and the run write stays under .bench_build/ in the
repository: the Go build cache, the binaries, the spans of traced runs.
The last line of standard output is the harness's JSON result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 800


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("XDG_CONFIG_HOME", "config"),
                     ("TMPDIR", "tmp")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"  # build with the installed toolchain, never download one
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = "-mod=readonly"  # a build never rewrites perfbench/go.mod
    return env


def build(env, cwd, out, pkg):
    """Build one binary; exit non-zero if that fails."""
    try:
        subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env, check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        sys.exit("perfbench: building %s failed: %s" % (pkg, err))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    server = os.path.join(BUILD, "bin", "zipserv-server")
    harness = os.path.join(BUILD, "bin", "perfbench")
    build(env, ROOT, server, "./cmd/zipserv-server")
    build(env, BENCH, harness, ".")

    cmd = [harness, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-server", server]
    if args.trace:
        cmd += ["-spans", os.path.join(BUILD, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    os.execv(harness, cmd)  # the harness owns the server processes and stops them on exit


if __name__ == "__main__":
    main()
