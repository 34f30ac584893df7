#!/usr/bin/env python3
"""Builds and runs the RCKT end-to-end benchmark.

Run from the repository root:

    python3 rcktbench/run.py --workload train_offline --seed 1 --seconds 10 --trace 0
    python3 rcktbench/run.py --selftest

The first run in a checkout configures and builds the libraries, `ktcli`
and the benchmark program into .bench_build/, then trains the two serve
models with `ktcli train` (fixed seed and epoch count; not timed). Later
runs reuse both. The program's last stdout line is the run's JSON result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
MODELS = os.path.join(BUILD, "models")

# Serve models: trained on the scenario_base log, which shares the
# question/concept space of every traffic scenario.
BASE_SCALE = "0.25"
BASE_SEED = "7"
TRAIN_EPOCHS = "3"
TRAIN_SEED = "1"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def threads():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def source_id():
    """Identifies the code under test: the git commit when there is one,
    else a digest of the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "rcktbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def run_quiet(cmd, what):
    """Runs a set-up command with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        log("%s failed (exit %d)" % (what, result.returncode))
        sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "cmake configure")
    run_quiet(["cmake", "--build", BUILD, "-j", threads()], "build")


def prepare_models(ktcli, ident):
    stamp = os.path.join(MODELS, "stamp")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == ident:
                return
    shutil.rmtree(MODELS, ignore_errors=True)
    os.makedirs(MODELS)
    csv = os.path.join(MODELS, "base.csv")
    run_quiet([ktcli, "simulate", "--scenario", "scenario_base",
               "--scale", BASE_SCALE, "--seed", BASE_SEED, "--out", csv],
              "simulate")
    for encoder in ("dkt", "sakt"):
        tmp = os.path.join(MODELS, encoder + ".tmp.ktw")
        run_quiet([ktcli, "train", "--data", csv, "--encoder", encoder,
                   "--epochs", TRAIN_EPOCHS, "--patience", TRAIN_EPOCHS,
                   "--seed", TRAIN_SEED, "--verbose", "false",
                   "--save", tmp, "--threads", threads()],
                  "train " + encoder)
        os.replace(tmp, os.path.join(MODELS, encoder + ".ktw"))
    with open(stamp, "w") as f:
        f.write(ident + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    bench = os.path.join(BUILD, "rckt_bench")
    if args.selftest:
        sys.exit(subprocess.run([bench, "--selftest"]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    ident = source_id()
    ktcli = os.path.join(BUILD, "kt_tools", "ktcli")
    prepare_models(ktcli, ident)
    cmd = [bench, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--ktcli", ktcli, "--models", MODELS,
           "--work", os.path.join(BUILD, "work", args.workload),
           "--source-id", ident]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
