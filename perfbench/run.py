#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload spill-write --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the repository's oclmon binary and the
benchmark (a Go module of its own in this directory) into the build directory
($CARGO_TARGET_DIR, default .bench_build), keeping the Go build cache there
too, then runs one workload. The last line of standard output is the result
JSON; a failed build exits non-zero without printing one.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def go_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def build(env, bindir):
    steps = [
        (REPO, ["go", "build", "-o", os.path.join(bindir, "oclmon"), "./cmd/oclmon"]),
        (HERE, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=800)
        if proc.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build"))
    bindir = os.path.join(out, "bin")
    env = go_env(out)
    build(env, bindir)
    # The determinism guard stores exact counts per build: a new build of
    # changed code starts afresh instead of failing against the old counts.
    digest = hashlib.sha256()
    for name in ("perfbench", "oclmon"):
        with open(os.path.join(bindir, name), "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    cmd = [
        os.path.join(bindir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", out,
        "--oclmon", os.path.join(bindir, "oclmon"),
        "--build-id", digest.hexdigest()[:16],
    ]
    proc = subprocess.run(cmd, cwd=REPO, env=env, timeout=170)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
