#!/usr/bin/env python3
"""Checks perfbench's exact-count fingerprints against the committed golden.

    python3 tools/check_perfbench_fingerprints.py             # check
    python3 tools/check_perfbench_fingerprints.py --update    # regenerate
    python3 tools/check_perfbench_fingerprints.py --root DIR  # check DIR's tree

For seeds 1 and 2 it runs

    python3 perfbench/run.py --workload all --seed N --seconds 2

in the source tree (this checkout, or --root), takes the `fingerprint`
object of every workload's report line and compares it with
tests/golden/perfbench_fingerprints.json. run.py runs without
CARGO_TARGET_DIR, so each tree builds perfbench under its own .bench_build
and --root never reuses this checkout's build. Every difference prints one
line,

    DIFF workload=<w> seed=<n> key=<k> golden=<v> got=<v>

with `-` for a key missing on one side. Exit codes: 0 every fingerprint
matches, 1 some key differs, 2 a run failed or a workload printed no report.

A fingerprint counts virtual behaviour (messages, retransmits, VM
instructions, virtual latencies and restore times); it does not depend on
run.py's --seconds, so short runs suffice. A change that moves virtual
behaviour on purpose regenerates the golden with --update and justifies the
diff in CHANGES.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
GOLDEN = os.path.join(REPO, "tests", "golden", "perfbench_fingerprints.json")
SEEDS = (1, 2)
SECONDS = 2


def log(msg):
    print("check_perfbench_fingerprints: " + msg, file=sys.stderr, flush=True)


def run_seed(root, seed):
    """Fingerprints of every workload for one seed: ({workload: fp}, ok)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", "all", "--seed", str(seed), "--seconds", str(SECONDS)]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    got = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                         text=True)
    ok = got.returncode == 0
    if not ok:
        sys.stderr.write(got.stderr)
        log("seed %d: run.py exited %d" % (seed, got.returncode))
    prints = {}
    for line in got.stdout.splitlines():
        if line.startswith('{"report"'):
            report = json.loads(line)["report"]
            prints[report["workload"]] = report["fingerprint"]
    return prints, ok


def show(value):
    return "-" if value is None else json.dumps(value)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--root", default=REPO,
                        help="source tree to build and run (default: this one)")
    parser.add_argument("--update", action="store_true",
                        help="write the fingerprints to the golden instead")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    got = {}
    ok = True
    for seed in SEEDS:
        prints, seed_ok = run_seed(root, seed)
        ok = ok and seed_ok
        for workload, fingerprint in prints.items():
            got.setdefault(workload, {})[str(seed)] = fingerprint

    if args.update:
        if not ok:
            log("not writing %s: a run failed" % GOLDEN)
            return 2
        with open(GOLDEN, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s (%d workloads x %d seeds)" % (
            os.path.relpath(GOLDEN), len(got), len(SEEDS)))
        return 0

    with open(GOLDEN) as f:
        golden = json.load(f)
    differing = 0
    for workload in sorted(golden):
        for seed in sorted(golden[workload], key=int):
            want = golden[workload][seed]
            have = got.get(workload, {}).get(seed)
            if have is None:
                log("%s seed %s: no report" % (workload, seed))
                ok = False
                continue
            for key in sorted(set(want) | set(have)):
                if want.get(key) != have.get(key):
                    differing += 1
                    print("DIFF workload=%s seed=%s key=%s golden=%s got=%s" % (
                        workload, seed, key, show(want.get(key)),
                        show(have.get(key))))
    checked = sum(len(seeds) for seeds in golden.values())
    if not ok:
        print("fingerprints NOT checked: a run failed")
        return 2
    if differing:
        print("fingerprints DIFFER: %d keys over %d (workload, seed) pairs" % (
            differing, checked))
        return 1
    print("fingerprints match the golden: %d (workload, seed) pairs" % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
