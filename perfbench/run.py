#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs a workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the perfbench program (CMake, RelWithDebInfo, the repository's flags)
into $CARGO_TARGET_DIR (default .bench_build); later runs only re-check
the build. perfbench's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's configuration, environment, raw samples and any failed check.

`--workload all` runs every workload in turn and ends with one combined
result whose metric names are prefixed with the workload name.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mlfma_serial", "cbs_auto", "mlfma_2x2", "service_mix"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("repository sources (CMakeLists.txt, src/) not "
                           f"found next to {HERE}")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def run_one(exe, workload, args):
    """Runs one workload; returns its (info, result) objects."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: perfbench exited with "
                           f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: expected an info and a result line")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise RuntimeError(f"{workload}: malformed result {lines[-1]}")
    return info, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    try:
        exe = build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        runs = [(name, *run_one(exe, name, args)) for name in names]
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1

    for _, info, result in runs:
        if info.get("failed_checks"):
            log(f"{info['workload']}: failed checks: {info['failed_checks']}")
        print(json.dumps(info))
        if len(runs) > 1:
            print(json.dumps(result))
    if len(runs) == 1:
        final = runs[0][2]
    else:
        final = {"correct": all(r["correct"] for _, _, r in runs),
                 "attempted": sum(r["attempted"] for _, _, r in runs),
                 "failed": sum(r["failed"] for _, _, r in runs),
                 "metrics": {f"{name}.{k}": v for name, _, r in runs
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
