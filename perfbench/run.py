#!/usr/bin/env python3
"""Build the perfbench harness and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pi-traverse --seed 1 --seconds 10 --trace 0

The harness's last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Builds with dune inside the checkout (``_build``, dune's cache off), so
nothing outside the checkout is written. Exits non-zero, printing no
result, when the simulator's sources are missing.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SOURCES = ["dune-project", "lib", "perfbench"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    """The git commit if there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=ROOT)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(top) for f in fs
            if f.endswith((".ml", ".mli", "dune", "dune-project")))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    for p in SOURCES:
        if not os.path.exists(os.path.join(ROOT, p)):
            fail("missing %s: run from the root of a full checkout" % p)
    env = dict(os.environ, DUNE_CACHE="disabled")
    # One build at a time per checkout: two dune processes contending
    # for _build/.lock can hang.
    os.makedirs(os.path.join(ROOT, "_build"), exist_ok=True)
    with open(os.path.join(ROOT, "_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")
    env["PERFBENCH_COMMIT"] = commit()
    run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
