#!/usr/bin/env python3
"""Whole-stack MYCSB benchmark: build perfbench/pb.exe from source, then
run one workload with it.

    python3 perfbench/run.py --workload mycsb-a --seed 1 --seconds 10 --trace 0

The build goes into _build/ of the source tree that holds this file,
with dune's shared cache off; the build log goes to stderr.  The
arguments are handed to `pb.exe run` unchanged, run from the root of
the tree, so its output (perfbench-out/) stays there too.  See
perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/pb.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr,
        ).returncode
    except OSError as e:
        sys.exit("perfbench: cannot run dune: %s" % e)
    if code != 0:
        sys.exit("perfbench: build failed (dune exit %d)" % code)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")
    os.chdir(ROOT)
    os.execv(exe, [exe, "run"] + sys.argv[1:])


if __name__ == "__main__":
    main()
