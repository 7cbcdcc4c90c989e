#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload for a very short time, untraced and traced, and
asserts that each end-to-end and per-layer metric BENCHMARK.json names is
printed with its unit and that every correctness check passes. It also
checks that the same seed draws the same request stream (same hash) and
that a second seed runs cleanly. Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s\n%s" % (
            workload, seed, trace, p.returncode, p.stdout, p.stderr))
    return json.loads(lines[-1]), p.stdout


def stream_hash(stdout):
    m = re.search(r"request stream hash (\w+)", stdout)
    if not m:
        sys.exit("FAIL: no request stream hash printed")
    return m.group(1)


def check(workload, trace, res, spec):
    where = "%s trace %d" % (workload, trace)
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        sys.exit("FAIL %s: correct=%s attempted=%d failed=%d" % (
            where, res["correct"], res["attempted"], res["failed"]))
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        sys.exit("FAIL %s: metrics differ from BENCHMARK.json\n  missing or wrong unit: %s\n  unexpected: %s" % (
            where, sorted(set(want.items()) - set(got.items())), sorted(set(got) - set(want))))
    print("ok   %-18s trace %d: %d metrics, %d requests" % (workload, trace, len(got), res["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    hashes = {}
    for wl in (w["name"] for w in bench["workloads"]):
        res, out = run(wl, 1, 0)
        check(wl, 0, res, bench["end_to_end"])
        hashes[wl] = stream_hash(out)
        res, _ = run(wl, 1, 1)
        check(wl, 1, res, bench["per_layer"])
        blocks = res["metrics"]["core.blocks"]["value"]
        if (blocks == 0) != (wl == "chat-unique"):
            sys.exit("FAIL %s: core.blocks=%g; only chat-unique bypasses the codec" % (wl, blocks))

    wl = bench["workloads"][0]["name"]
    res, out = run(wl, 1, 0)
    if stream_hash(out) != hashes[wl]:
        sys.exit("FAIL %s: seed 1 drew two different request streams" % wl)
    res, out = run(wl, 2, 0)
    check(wl, 0, res, bench["end_to_end"])
    if stream_hash(out) == hashes[wl]:
        sys.exit("FAIL %s: seeds 1 and 2 drew the same request stream" % wl)
    print("ok   seed 1 repeats its stream hash %s; seed 2 runs cleanly" % hashes[wl])


if __name__ == "__main__":
    main()
