#!/usr/bin/env python3
"""Self-test of the benchmark definition and its runner.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that

  * BENCHMARK.json is well formed and every name uses only
    [A-Za-z0-9_.-];
  * a short run of every workload exits 0, reports correct with no
    failed run (success_rate 1, i.e. an error rate of 0), and prints
    exactly the end-to-end metrics (--trace 0) or the per-layer metrics
    (--trace 1) that BENCHMARK.json names, with the same units;
  * the traced and untraced runs of a seed print the same
    simulated-result digests, and the traced run writes its spans;
  * the runner fails with a non-zero exit, and prints no result, in a
    directory that holds only BENCHMARK.json and the benchmark itself.

Exit code 0 iff every check passed.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 1
failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    digests = [l for l in lines if l.startswith("digest ")]
    return done.returncode, result, digests, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = workloads + list(end_to_end) + list(per_layer)
    check(all(NAME.match(n) for n in names),
          "every name matches [A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    check(len(set(names)) == len(names), "every name is used once")
    check("setup_s" in end_to_end and
          max(m["bound"] for m in bench["end_to_end"]) ==
          next(m["bound"] for m in bench["end_to_end"]
               if m["name"] == "setup_s"),
          "setup_s is an end-to-end metric with the largest bound")

    for workload in workloads:
        digests = {}
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result, digests[trace], err = run(ROOT, workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            check(code == 0, tag + " exits 0" +
                  ("" if code == 0 else ": " + err.strip()[-400:]))
            if result is None:
                check(False, tag + " prints a JSON result last")
                continue
            check(result.get("correct") is True and
                  result.get("failed") == 0 and
                  result.get("attempted", 0) >= 1,
                  tag + " is correct with no failed run")
            metrics = result.get("metrics", {})
            check(set(metrics) == set(expected),
                  tag + " prints exactly the metrics BENCHMARK.json names")
            check(all(metrics[n]["unit"] == expected[n]
                      for n in expected if n in metrics),
                  tag + " prints the units BENCHMARK.json names")
            if trace == 0:
                check(metrics.get("success_rate", {}).get("value") == 1,
                      tag + " has success_rate 1 (error rate 0)")
        check(digests[0] and digests[0] == digests[1],
              workload + " traced and untraced digests agree")
        trace_file = os.path.join(ROOT, ".bench_build", "perfbench",
                                  "traces", "%s-seed%d.json" % (workload,
                                                                SEED))
        try:
            with open(trace_file) as f:
                spans = json.load(f)["traceEvents"]
            check({s["name"] for s in spans} >= {
                "experiment.run", "setup.machine", "setup.oracle",
                "setup.kernel", "workload.run"},
                workload + " trace holds every span kind")
        except (OSError, ValueError, KeyError) as err:
            check(False, workload + " trace is readable: %s" % err)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _, _ = run(bare, workloads[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "a directory without the simulator sources fails without a "
          "result")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
