#!/usr/bin/env python3
"""Repository benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload cold-large --seed 1 --seconds 30 --trace 0

Builds the library and the benchmark programs from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, writes the workload's inputs from
the seed with perfbench_gen (cached per workload, seed and parameters),
then runs perfbench_run in its own process. The last line of standard
output is the JSON result; with --trace 1 the spans are written to
<build>/traces/<workload>-<seed>.json (Chrome trace-event JSON).

Workload parameters and the layer -> metric -> workload map live in
perfbench/workloads.json. --inject-fault perturbs one expected count: the
run must then exit nonzero, which shows the correctness gate can fail.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
CACHED_INPUTS_PER_WORKLOAD = 3


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to a log."""
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", "3",
                  "--target", "perfbench_gen", "perfbench_run"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return cmake_dir


def inputs_for(cmake_dir, build_dir, workload, seed, params):
    """Returns (base, seeded) input directories, generating what is missing.

    The base directory (data graph, query pool) depends on the
    parameters only; the seeded one on the seed too. Both are cached.
    """
    root = os.path.join(build_dir, "inputs")
    os.makedirs(root, exist_ok=True)

    def digest(obj):
        text = json.dumps(obj, sort_keys=True).encode()
        return hashlib.sha256(text).hexdigest()[:12]

    base = os.path.join(root, "%s-base-%s" % (workload, digest([workload, params])))
    path = os.path.join(root, "%s-%d-%s" % (workload, seed, digest([workload, seed, params])))
    if os.path.exists(os.path.join(path, "params.txt")):
        return base, path
    # Keep the cache small: drop the oldest seeded inputs of this workload.
    mine = sorted((e for e in os.scandir(root)
                   if e.name.startswith(workload + "-") and "-base-" not in e.name),
                  key=lambda e: e.stat().st_mtime)
    for old in mine[:max(0, len(mine) - CACHED_INPUTS_PER_WORKLOAD + 1)]:
        shutil.rmtree(old.path, ignore_errors=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    args = [os.path.join(cmake_dir, "perfbench_gen"), "--base", base, "--out", tmp,
            "seed=%d" % seed, "workload=" + workload]
    args += ["%s=%s" % (k, v) for k, v in sorted(params.items())]
    try:
        code = subprocess.run(args, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("input generation did not finish within %d s" % RUN_TIMEOUT_S)
    if code:
        fail("input generation failed")
    os.rename(tmp, path)
    return base, path


def check_metric_names(result_line, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(json.loads(result_line)["metrics"])
    if got != wanted:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(wanted - got), sorted(got - wanted)))


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")

    build_dir = os.path.abspath(os.path.join(
        REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.makedirs(build_dir, exist_ok=True)
    cmake_dir = build(build_dir)
    base, inputs = inputs_for(cmake_dir, build_dir, args.workload, args.seed,
                              workloads[args.workload]["params"])

    command = [os.path.join(cmake_dir, "perfbench_run"), "--workload", args.workload,
               "--base", base, "--inputs", inputs, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    if args.inject_fault:
        command.append("--inject-fault")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode == 0:
        check_metric_names(lines[-1], args.trace)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
