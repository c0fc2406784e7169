#!/usr/bin/env python3
"""The one benchmark command of SURGEON++.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check [--seed <n>] [--seconds <s>]

Run from the root of a source tree. Builds perfbench/ (which builds the
libraries from src/) in Release under $CARGO_TARGET_DIR (default
.bench_build), then runs one workload, or all three in turn:

  counter_rpc      closed loop of 200k RPCs between two MiniC modules on one
                   host: VM dispatch, builtins and bus send/deliver.
  pipeline_swap    open-loop diurnal day of ~300k requests through a MiniC
                   filter that is migrated 96 times: delivery, the trace and
                   SLO planes, the event queue, scripts, capture/restore, WAL.
  kv_machine_loss  sharded KV with 192 MiniC shards, reliable delivery under
                   injected faults, two machine losses rebuilt onto spares:
                   native ticks, retransmits, the simulator, bind-table edits.

The last line of standard output is the result object {"correct",
"attempted", "failed", "metrics"}: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. The exit code is non-zero when the build
fails, the build is not a Release build without assertions, or a
correctness check fails. --seed defaults to 1, the default seed of every
workload.

--self-check runs every workload twice untraced and once traced and
requires the exact-count fingerprints of the three runs to be identical.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["counter_rpc", "pipeline_swap", "kv_machine_loss"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-release")


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no SURGEON++ sources next to perfbench/ (missing src/)")
        return None
    if shutil.which("cmake") is None:
        log("cmake is not installed")
        return None
    out = build_dir()
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        log("build failed")
        return None
    return os.path.join(out, "perfbench")


def source_identity():
    """Git commit when the tree is a checkout of its own, and a digest of the
    sources the binary is built from either way."""
    sha = "unknown (not a git checkout)"
    try:
        got = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        top_and_head = got.stdout.split()
        if (got.returncode == 0 and len(top_and_head) == 2
                and os.path.samefile(top_and_head[0], ROOT)):
            sha = top_and_head[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, trace_out=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        got = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(workload + " did not finish within %d s" % RUN_TIMEOUT_S)
        return 1, []
    sys.stderr.write(got.stderr)
    return got.returncode, got.stdout.splitlines()


def report_of(lines):
    for line in lines:
        if line.startswith('{"report"'):
            return json.loads(line)["report"]
    return None


def self_check(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        prints = []
        for trace in (0, 0, 1):
            code, lines = run_binary(binary, workload, seed, seconds, trace)
            rep = report_of(lines)
            if code != 0 or rep is None:
                log("%s trace=%d failed (exit %d)" % (workload, trace, code))
                ok = False
                break
            prints.append(rep["fingerprint"])
        if len(prints) == 3 and not prints[0] == prints[1] == prints[2]:
            keys = sorted(k for k in prints[0]
                          if not prints[0].get(k) == prints[1].get(k)
                          == prints[2].get(k))
            log("%s: fingerprints differ on %s" % (workload, ", ".join(keys)))
            ok = False
        elif len(prints) == 3:
            print("self-check %s: %d fingerprint entries identical across "
                  "2 untraced + 1 traced runs" % (workload, len(prints[0])))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary, args.seed, args.seconds)

    sha, digest = source_identity()
    print("source: git %s, tree digest %s" % (sha, digest), flush=True)
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        trace_out = None
        if args.trace:
            trace_out = os.path.join(build_dir(), "spans-%s-seed%d.json" % (
                workload, args.seed))
        code, lines = run_binary(binary, workload, args.seed, args.seconds,
                                 args.trace, trace_out)
        if not lines or not lines[-1].startswith('{"correct"'):
            log("%s printed no result (exit %d)" % (workload, code))
            worst = worst or code or 1
            continue
        if trace_out:
            print("spans: " + os.path.relpath(trace_out, ROOT))
        print("\n".join(lines), flush=True)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
