#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune (from source; dune's shared cache is not used, so nothing is
written outside the checkout) and then runs it with the same arguments
in the checkout root.  The last line of standard output is the JSON
result.  When the checkout cannot be built it exits with code 2 and
prints no result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: not a checkout of the repository (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", root, "--cache=disabled",
         "--display=quiet", "./perfbench/main.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    os.chdir(root)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
