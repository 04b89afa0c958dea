#!/usr/bin/env python3
"""Builds and runs the ParaQuery benchmark.

Usage, from the repository root:

    python3 pqbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0
    python3 pqbench/run.py --workload analytic --seed 1 --seconds 10 --ablate wcoj
    python3 pqbench/run.py --selftest

The engine library and the benchmark program are built from source with
CMake into $CARGO_TARGET_DIR/pqbench (default .bench_build/pqbench, relative
to the repository root); build output goes to stderr so the last line of
standard output is the program's JSON result. A traced run (--trace 1) also writes its
span log there as Chrome trace-event JSON.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pqbench")


def build(out, targets):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", out, "-j", "4"]
    for target in targets:
        cmd += ["--target", target]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def arg_value(args, flag):
    for i in range(len(args) - 1):
        if args[i] == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    out = build_dir()
    if args == ["--selftest"]:
        if not build(out, ["pqbench_selftest"]):
            return 1
        return subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"]).returncode
    if not build(out, ["pqbench"]):
        print("pqbench: build failed", file=sys.stderr)
        return 1
    if arg_value(args, "--trace") == "1" and "--spans-out" not in args:
        name = "spans-%s-%s.json" % (arg_value(args, "--workload"),
                                     arg_value(args, "--seed"))
        args += ["--spans-out", os.path.join(out, name)]
    return subprocess.run([os.path.join(out, "pqbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
