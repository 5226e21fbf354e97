#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from a source checkout.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

It builds the `cqa` binary and the `perfbench` command from source into
.bench_build/ (Go's build cache, module cache and temporary files live
there too, so nothing is written outside the checkout), runs perfbench
with the given arguments and exits with its exit code. The last line of
standard output is perfbench's JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("XDG_CONFIG_HOME", "config"),
        ("TMPDIR", "tmp"),
        ("GOTMPDIR", "tmp"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = "-mod=readonly"
    env["GOTELEMETRY"] = "off"
    return env


def build(env):
    binaries = os.path.join(BUILD, "bin")
    os.makedirs(binaries, exist_ok=True)
    for cwd, out, pkg in (
        (ROOT, "cqa", "./cmd/cqa"),
        (HERE, "perfbench", "."),
    ):
        cmd = ["go", "build", "-o", os.path.join(binaries, out), pkg]
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if res.returncode != 0:
            sys.exit("perfbench: build of %s failed" % pkg)
    return binaries


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "cmd", "cqa")
    ):
        sys.exit("perfbench: %s is not a checkout of the cqa module" % ROOT)
    env = go_env()
    binaries = build(env)
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [
        os.path.join(binaries, "perfbench"),
        "--cqa", os.path.join(binaries, "cqa"),
        "--out", out,
    ] + sys.argv[1:]
    # A session of its own, so that anything left behind can be stopped
    # as a group once perfbench has exited.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        code = 1
        sys.stderr.write("perfbench: timed out\n")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
