#!/usr/bin/env python3
"""Smoke test of the host-time benchmark, at the shortest run length.

  python3 perfbench/smoke_test.py [workload ...]

Checks, for every workload (default: all in BENCHMARK.json), that run.py
emits every metric BENCHMARK.json names, with its unit, in both modes; that
an injected failure (a 1000-tick maxTicks on the first simulation call, so
it cannot complete) raises the failure fraction instead of aborting the run;
that an unwritable results file is an error; and that GEM5RTL_* variables
are cleared by run.py and refused by g5r_perfbench. Exits non-zero on the
first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(*args, env=None):
    proc = subprocess.run(RUN + list(args), cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok: " + what)


def result_of(stdout):
    doc = json.loads(stdout.strip().splitlines()[-1])
    check(sorted(doc) == ["attempted", "correct", "failed", "metrics"],
          "result has exactly correct/attempted/failed/metrics")
    check(isinstance(doc["attempted"], int) and doc["attempted"] >= 1
          and isinstance(doc["failed"], int), "attempted and failed are counts")
    return doc


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for workload in workloads:
        for trace, wanted in modes.items():
            code, out, err = run("--workload", workload, "--seed", "1", "--seconds", "0.5",
                                 "--trace", str(trace))
            check(code == 0, "%s trace %d exits 0 (%s)" % (workload, trace, err[-300:]))
            doc = result_of(out)
            check(doc["correct"] and doc["failed"] == 0,
                  "%s trace %d correct, no failures" % (workload, trace))
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            check(got == want, "%s trace %d emits exactly the named metrics with units"
                  % (workload, trace))
            check(all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values()),
                  "%s trace %d metric values are numbers" % (workload, trace))
            check(any(l.startswith("digest %s " % workload) for l in out.splitlines()),
                  "%s trace %d prints its digest" % (workload, trace))

    code, out, _ = run("--workload", workloads[0], "--seed", "1", "--seconds", "0.5",
                       "--trace", "0", "--inject-fail")
    check(code == 0, "injected failure does not abort the run")
    doc = result_of(out)
    check(doc["failed"] >= 1 and doc["attempted"] > doc["failed"] and not doc["correct"],
          "injected failure is counted (%d of %d failed)" % (doc["failed"], doc["attempted"]))
    fail_line = [l for l in out.splitlines() if l.startswith("fail_frac ")]
    check(fail_line and float(fail_line[0].split()[1]) > 0, "fail_frac is raised")

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        blocker = os.path.join(tmp, "not-a-dir")
        open(blocker, "w").close()
        code, out, _ = run("--workload", workloads[0], "--seed", "1", "--seconds", "0.2",
                           "--trace", "0", "--results", os.path.join(blocker, "r.json"))
        check(code != 0 and not out.strip().endswith("}"),
              "unwritable results file exits non-zero without a result")

        results = os.path.join(tmp, "r.json")
        env = dict(os.environ, GEM5RTL_TRACE="1", GEM5RTL_PROFILE="1")
        code, out, _ = run("--workload", workloads[0], "--seed", "1", "--seconds", "0.2",
                           "--trace", "0", "--results", results, env=env)
        check(code == 0, "run.py measures with GEM5RTL_* set in its environment")
        with open(results) as fh:
            cleared = json.load(fh)["build"]["clearedEnvironment"]
        check({"GEM5RTL_TRACE", "GEM5RTL_PROFILE"} <= set(cleared),
              "run.py clears and records GEM5RTL_* variables")

    binary = os.path.join(ROOT, ".bench_build", "perfbench", "g5r_perfbench")
    proc = subprocess.run([binary, "info"], env=dict(os.environ, GEM5RTL_TRACE="1"),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    check(proc.returncode == 2, "g5r_perfbench refuses to measure with GEM5RTL_* set")
    print("smoke test passed")


if __name__ == "__main__":
    main(sys.argv[1:])
