#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.  Run from the repository root:

    python3 perfbench/test/selftest.py

It checks, at the tiny size (a few seconds per workload):
  * every workload, untraced and traced, exits 0 with a correct result
    whose metrics are exactly the ones BENCHMARK.json names;
  * each traced run's exports pass `dvstool stats --check`;
  * a corrupted known answer makes the command fail;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    command fails without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_DIR = os.path.join(ROOT, "perfbench", "_run")
TIMEOUT = 300

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    dvstool = os.path.join(ROOT, "_build", "default", "bin", "dvstool.exe")
    subprocess.run(["dune", "build", "--root", ROOT, "--display=quiet",
                    "./bin/dvstool.exe"], cwd=ROOT, check=True)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            p = bench("--workload", name, "--seed", "7", "--seconds", "1",
                      "--trace", trace, "--size", "tiny")
            r = result_of(p)
            what = "%s trace=%s" % (name, trace)
            check(p.returncode == 0 and r is not None and r["correct"]
                  and r["attempted"] >= 1 and r["failed"] == 0,
                  what + ": exits 0 with a correct result")
            if r is None:
                sys.stderr.write(p.stderr[-2000:])
                continue
            check(set(r["metrics"]) == wanted[trace],
                  what + ": emits exactly the named metrics")
            check(all(isinstance(v["value"], (int, float)) and v["unit"]
                      for v in r["metrics"].values()),
                  what + ": every metric has a value and a unit")
        base = os.path.join(RUN_DIR, name)
        s = subprocess.run([dvstool, "stats", "--check",
                            "--trace", base + ".trace.jsonl",
                            "--metrics", base + ".metrics.json"],
                           capture_output=True, text=True)
        check(s.returncode == 0, name + ": traced exports pass dvstool stats --check")

    # A known answer off by 1% must fail the run.
    answers = json.load(open(os.path.join(ROOT, "perfbench", "known_answers.json")))
    answers["answers"]["grid-unfiltered"]["ghostscript#2"] *= 1.01
    corrupt = os.path.join(RUN_DIR, "corrupt_answers.json")
    os.makedirs(RUN_DIR, exist_ok=True)
    with open(corrupt, "w") as f:
        json.dump(answers, f)
    p = bench("--workload", "grid-unfiltered", "--seed", "7", "--seconds", "1",
              "--trace", "0", "--size", "tiny", "--answers", corrupt)
    r = result_of(p)
    check(p.returncode != 0 and (r is None or not r["correct"]),
          "a corrupted known answer makes the command fail")
    os.remove(corrupt)

    # Only BENCHMARK.json and perfbench/: no program to build.
    bare = os.path.join(RUN_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_run"))
    p = bench("--workload", "grid-unfiltered", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=bare)
    check(p.returncode != 0 and result_of(p) is None,
          "without the program the command fails and prints no result")
    shutil.rmtree(bare)

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
