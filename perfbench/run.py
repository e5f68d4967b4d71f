#!/usr/bin/env python3
"""The repository benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload kway_open --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus the perfbench program in
perfbench/src/) as a Release build in $CARGO_TARGET_DIR/perfbench, or in
.bench_build/perfbench when that variable is unset.

The program's result is checked against BENCHMARK.json. A wrong answer, an
invalid measurement (too few samples for a tail, a generator that fell
behind, an end-to-end metric of a gated workload that reads 0) or a
missing metric exits non-zero without printing a result. Otherwise a
"# stamp" line (nproc, build type, compiler, git sha, seed) precedes the
last line of stdout, {"correct", "attempted", "failed", "metrics"}, which
holds every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).

--smoke is the benchmark's own test: it runs every workload at a tiny size,
untraced and traced, and checks that each metric BENCHMARK.json names is
emitted with its unit and a finite value, and that every per-layer metric
has an entry in layer_map.json.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Workloads the program runs that BENCHMARK.json does not gate: their
# figures swing more than the 0.25 bound between runs on a shared host
# (see README.md). Run them by name; --smoke covers them too.
UNGATED_WORKLOADS = ("write_mix", "paper_batch")


def die(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(2, "cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.h")):
        die(2, "the library sources (src/) are not next to perfbench/")
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            die(2, "cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            die(2, "build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_program(binary, workload, seed, seconds, trace, tiny):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    program = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = program.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(5, "%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        # Also on SIGTERM (raised as SystemExit in main): never leave the
        # program running.
        if program.poll() is None:
            program.kill()
            program.wait()
    lines = [line for line in stdout.splitlines() if line.strip()]
    if program.returncode != 0 or not lines:
        die(5, "%s: perfbench exited with %d" % (workload, program.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        die(5, "%s: perfbench printed no result" % workload)


def problems(result, names, strict, nonzero):
    """What is wrong with a result, given the metrics it must carry."""
    out = []
    if not result["correct"]:
        out += ["wrong answer: " + e for e in result["errors"]]
    for spec in names:
        got = result["metrics"].get(spec["name"])
        if got is None:
            out.append("missing metric " + spec["name"])
        elif got["unit"] != spec["unit"]:
            out.append("%s has unit %s, not %s" % (spec["name"], got["unit"], spec["unit"]))
        elif not math.isfinite(got["value"]):
            out.append("%s is not finite" % spec["name"])
        elif nonzero and got["value"] <= 0:
            out.append("%s reads %r" % (spec["name"], got["value"]))
    if strict:
        out += ["invalid run: " + why for why in result["invalid"]]
    return out


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def smoke(binary, spec):
    layer_map = load_json(os.path.join(HERE, "layer_map.json"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    errors = ["layer_map.json lacks " + n for n in sorted(per_layer - set(layer_map))]
    errors += ["layer_map.json names unknown metric " + n
               for n in sorted(set(layer_map) - per_layer)]
    for workload in [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS):
        for trace in (0, 1):
            result = run_program(binary, workload, 1, 1, trace, True)
            names = spec["per_layer" if trace else "end_to_end"]
            found = problems(result, names, strict=False, nonzero=False)
            errors += ["%s trace=%d: %s" % (workload, trace, p) for p in found]
            print("smoke %-12s trace=%d: %d metrics, %s" % (
                workload, trace, len(names), "FAILED" if found else "ok"))
    if errors:
        die(1, "smoke failed:\n  " + "\n  ".join(errors))
    print("smoke: every workload emits every metric with its unit")


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    binary = build()
    if args.smoke:
        smoke(binary, spec)
        return
    if args.workload not in [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS):
        die(2, "unknown workload %r" % args.workload)

    result = run_program(binary, args.workload, args.seed, args.seconds,
                        args.trace, False)
    names = spec["per_layer" if args.trace else "end_to_end"]
    # Ungated workloads print 0 for the end-to-end metrics they do not
    # have (paper_batch has no open loop and no writes).
    gated = args.workload not in UNGATED_WORKLOADS
    found = problems(result, names, strict=True,
                     nonzero=gated and not args.trace)
    if found:
        die(1 if not result["correct"] else 3, "\n  ".join([args.workload] + found))

    stamp = dict(result["stamp"], git_sha=git_sha(), seed=args.seed,
                 workload=args.workload, trace=args.trace)
    if not (stamp["optimized"] and stamp["ndebug"]):
        print("!" * 72 + "\nWARNING: perfbench was NOT built optimised "
              "(build type %s); its numbers are meaningless.\n" % stamp["build_type"]
              + "!" * 72, file=sys.stderr)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print("# notes " + json.dumps(result["notes"], sort_keys=True))
    listed = {m["name"] for m in names}
    print("# ungated " + json.dumps(
        {k: v for k, v in result["metrics"].items() if k not in listed},
        sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in names},
    }))


if __name__ == "__main__":
    main()
