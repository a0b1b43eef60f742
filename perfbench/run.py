#!/usr/bin/env python3
"""Host-time benchmark of the gem5+rtl simulator.

Builds perfbench/ (which builds the simulator libraries from ../src) into
.bench_build/, then measures one workload:

  python3 perfbench/run.py --workload nvdla_starved --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 the
per-layer ones (a profiled run, microbenchmarks, and the request-tracing
A/B). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Full results, with build
information and the simulated-result digest, go to
.bench_build/results/<workload>-seed<N>-trace<T>.json (or --results PATH);
failing to write them is an error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "g5r_perfbench")
WORKLOADS = ("nvdla_starved", "nvdla_staged", "pmu_sort")
SUBPROCESS_TIMEOUT_S = 170

# Fresh processes that time the cold set-up per run, half before and half
# after the timed simulation calls; the fastest is reported.
SETUP_PROCESSES = 60

# Best time of g5r_perfbench's host-speed probe (referenceSeconds) on a quiet
# 4-vCPU Xeon VM. Host times measured next to probes are scaled by this over
# the best probe of the same process: seconds at the reference host speed.
REFERENCE_PROBE_S = 0.0065

# Profile objects -> layers, by SimObject name. Objects matching none (the
# NVDLA hosts, SPM prefetchers and PMU observer that the experiment harness
# adds) stay unassigned. Traced seconds are owner-inclusive: a dispatch's
# whole synchronous call chain is charged to the event's owner, so membus
# time includes the DRAM recvTimingReq it calls.
LAYER_PATTERNS = (
    ("bridge.rtl_s", re.compile(r"system\.(nvdla\d+|pmu)")),
    ("mem.xbar_s", re.compile(r".*\.(membus|noc|spmbus|l1bus)")),
    ("mem.dram_s", re.compile(r"system\.mem\d+(\.ch\d+)?")),
    ("mem.dma_s", re.compile(r".*\.dma")),
    ("mem.spm_s", re.compile(r".*\.spm")),
    ("mem.cache_s", re.compile(r".*\.(l1d|l1i|l2|llc\d+)")),
    ("cpu.core_s", re.compile(r"system\.cpu\d+")),
)


def layer_of(name):
    return next((layer for layer, pattern in LAYER_PATTERNS if pattern.fullmatch(name)), None)


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build --

def build():
    """Configure (once) and build g5r_perfbench; the build is incremental."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        _run_build(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    _run_build(["cmake", "--build", BUILD_DIR, "--target", "g5r_perfbench", "-j", jobs])


def _run_build(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("build failed: " + " ".join(cmd))


def clean_environment():
    """The simulator applies any GEM5RTL_* / G5R_* variable it finds; drop
    them all so the measured program is the one in the tree."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith(("GEM5RTL_", "G5R_")))
    for k in cleared:
        del env[k]
    return env, cleared


def measure(env, *args):
    """Run g5r_perfbench; return the JSON document on its last stdout line."""
    proc = subprocess.run([BINARY, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("g5r_perfbench %s exited %d" % (" ".join(args), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("g5r_perfbench %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def source_identity():
    """Commit hash when the tree is a git checkout, else a hash of the
    sources the benchmark builds (the benchmark's checkout is not a repo)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if proc.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return "git:" + proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "tree:" + digest.hexdigest()[:16]


# ------------------------------------------------------------- statistics --

def timing_summary(samples):
    """Best (the reported value), median, sample count, and the highest
    standard percentile that still has at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"best": ordered[0], "median": statistics.median(ordered), "n": n,
               "pmax": None}
    for pct in (99.9, 99, 90, 50):
        if n * (1 - pct / 100) >= 10:
            summary["pmax"] = {"pct": pct, "value": ordered[min(n - 1, int(pct / 100 * n))]}
            break
    return summary


class Tally:
    """Failure accounting across every simulation call of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, sim_doc):
        """Count @p sim_doc's calls; return the successful ones."""
        for run in sim_doc["runs"]:
            self.attempted += 1
            if not run["ok"]:
                self.failed += 1
                self.errors.append(run["error"] or
                                   ("incomplete" if not run["completed"] else "bad checksum"))
        return [r for r in sim_doc["runs"] if r["ok"]]


def check_digests(reference, runs):
    """True when every run's simulated-result digest matches @p reference.
    Runs with request tracing off have no stage blame to compare."""
    def fields(run_digest, drop_blame):
        return {k: v for k, v in run_digest["fields"].items()
                if not (drop_blame and k == "stageBlame")}
    return all(fields(r["digest"], r["reqtraceOff"]) ==
               fields(reference, r["reqtraceOff"]) for r in runs)


def setup_runs(env, workload):
    """Half of the cold set-up processes of one run."""
    return [measure(env, "setup", workload) for _ in range(SETUP_PROCESSES // 2)]


def fastest_setup(docs):
    """The fastest of the cold processes, total and per part, each scaled by
    the host-speed probe of its own process: interference only adds time,
    so the minimum is the closest reading of the code's own cost (each
    part's minimum is taken on its own)."""
    return {key: min(d[key] * host_scale([d]) for d in docs)
            for key in ("setup_s", "workload_gen_s", "model_load_s", "construct_s")}


def host_scale(runs):
    """REFERENCE_PROBE_S over the best host-speed probe taken after @p runs:
    turns a host time measured in the same process into seconds at the
    reference host speed."""
    return REFERENCE_PROBE_S / min(r["ref_s"] for r in runs)


def timed_walls(sim_doc, reqtrace_off=False):
    """Wall seconds of the successful timed calls of one variant. The first
    call of a process is its warm-up (cold caches, first dlopen) and is not
    a sample."""
    return [r["wall_s"] for r in sim_doc["runs"][1:]
            if r["ok"] and r["reqtraceOff"] == reqtrace_off]


def best_wall(sim_doc, tally, reqtrace_off=False):
    walls = timed_walls(sim_doc, reqtrace_off)
    if not walls:
        raise BenchError("no successful timed simulation call: %s" % tally.errors[:3])
    return min(walls)


# ------------------------------------------------------------------ modes --

def end_to_end(env, args, tally, report):
    extra = ["--fail-runs", "1"] if args.inject_fail else []
    setup_docs = setup_runs(env, args.workload)
    doc = measure(env, "sim", args.workload, "--seconds", "%.3f" % args.seconds,
                  "--min-runs", "3", *extra)
    ok_runs = tally.add(doc)
    wall = best_wall(doc, tally)
    setup = fastest_setup(setup_docs + setup_runs(env, args.workload))
    report["wall_s"] = timing_summary(timed_walls(doc))
    report["wall_s"]["probe"] = min(r["ref_s"] for r in doc["runs"][1:])
    report["setup"] = setup
    report["digest"] = ok_runs[0]["digest"]
    report["digests_identical"] = check_digests(ok_runs[0]["digest"], ok_runs)
    return {
        "wall_s": wall * host_scale(doc["runs"][1:]),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": doc["peak_rss_mb"],
    }, report["digests_identical"]


def per_layer(env, args, tally, report):
    setup_docs = setup_runs(env, args.workload)
    scratch = tempfile.mkdtemp(prefix="traced-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        # Two calls; the second, warm one is the traced run.
        traced = measure(env, "sim", args.workload, "--min-runs", "2", "--max-runs", "2",
                         "--profile", "--metrics-dir", scratch)
        traced_ok = tally.add(traced)
        counts = final_stats(traced["metricsPath"]) if traced["metricsPath"] else {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    traced_run = traced["runs"][-1]
    if not traced_run["ok"]:
        raise BenchError("the traced run failed: %s" % tally.errors[:3])
    profile = traced["profile"]

    # Untraced, the harness's own request tracing (A) against
    # GEM5RTL_REQTRACE=0 (B): calls alternate in one process for the time
    # ratio; one process per variant for peak RSS.
    ab = measure(env, "sim", args.workload, "--seconds", "%.3f" % (0.45 * args.seconds),
                 "--min-runs", "5", "--reqtrace-ab")
    rss_on = measure(env, "sim", args.workload, "--max-runs", "1")
    rss_off = measure(env, "sim", args.workload, "--max-runs", "1", "--reqtrace-off")
    checked = traced_ok + tally.add(ab) + tally.add(rss_on) + tally.add(rss_off)
    wall_on = best_wall(ab, tally)
    wall_off = best_wall(ab, tally, reqtrace_off=True)
    # Host times at the reference host speed, each scaled by the probes of
    # its own process, as wall_s is.
    traced_scale = host_scale([traced_run])
    wall_on_ref = wall_on * host_scale(ab["runs"][1:])

    depth = max(1, sum(1 for o in profile["objects"] if o["dispatches"] > 0))
    micro = measure(env, "micro", "--seed", str(args.seed), "--depth", str(depth),
                    "--seconds", "%.3f" % (0.2 * args.seconds))
    setup = fastest_setup(setup_docs + setup_runs(env, args.workload))

    identical = check_digests(traced_run["digest"], checked)
    report["digest"] = traced_run["digest"]
    report["digests_identical"] = identical
    report["profile"] = profile
    report["stats"] = counts

    events = profile["dispatches"]
    insts = traced_run["insts"]
    layer_s = {name: 0.0 for name, _ in LAYER_PATTERNS}
    for obj in profile["objects"]:
        layer = layer_of(obj["name"])
        if layer is not None:
            layer_s[layer] += obj["estimatedSeconds"] * traced_scale

    def total(suffix):
        return sum(v for k, v in counts.items() if k.endswith(suffix))

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {name: (seconds, "s") for name, seconds in layer_s.items()}
    metrics.update({
        "sim.events": (events, "count"),
        "sim.ns_per_event": (ratio(wall_on_ref * 1e9, events), "ns"),
        "sim.ticks_per_s": (ratio(traced_run["simTicks"], wall_on_ref), "ticks/s"),
        "sim.queue_s": (profile["buckets"]["queue"]["seconds"] * traced_scale, "s"),
        "cpu.ns_per_inst": (ratio(wall_on_ref * 1e9, insts), "ns"),
        "obs.reqtrace_frac": (ratio(wall_on, wall_off) - 1, "ratio"),
        "obs.reqtrace_rss_mb": (rss_on["peak_rss_mb"] - rss_off["peak_rss_mb"], "MB"),
        "obs.profile_frac": (ratio(traced_run["wall_s"] * traced_scale, wall_on_ref) - 1,
                             "ratio"),
        "soc.workload_gen_s": (setup["workload_gen_s"], "s"),
        "soc.model_load_s": (setup["model_load_s"], "s"),
        "soc.construct_s": (setup["construct_s"], "s"),
        "mem.dram_reads.count": (total(".numReads"), "count"),
        "mem.dram_writes.count": (total(".numWrites"), "count"),
        "mem.dram_row_hit_ratio.count": (
            ratio(total(".rowHits"), total(".rowHits") + total(".rowMisses")), "ratio"),
        "mem.xbar_retries.count": (total(".layerConflicts"), "count"),
        "mem.spm_hit_ratio.count": (
            ratio(total("spm.readHits"), total("spm.readHits") + total("spm.readMisses")),
            "ratio"),
        "mem.spm_mshr_joins.count": (total("spm.mshrJoins"), "count"),
        "mem.dma_descriptors.count": (total("dma.descriptors"), "count"),
        "cpu.insts.count": (insts, "count"),
    })
    for name, value in micro.items():
        metrics[name] = (value, "s" if name.endswith("_s") else "ns")
    return metrics, identical


def final_stats(path):
    """Absolute stat values at the end of the run: the metrics timeline is
    delta-encoded, so each channel is the sum of its deltas."""
    totals = {}
    with open(path) as fh:
        for line in fh:
            for key, delta in json.loads(line).get("d", {}).items():
                totals[key] = totals.get(key, 0) + delta
    return totals


# ------------------------------------------------------------------- main --

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    p.add_argument("--results", help="results file (default under .bench_build/results)")
    p.add_argument("--inject-fail", action="store_true",
                   help="smoke test: give the first simulation call a tiny maxTicks")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        build()
        env, cleared = clean_environment()
        info = measure(env, "info")
        info.update(nproc=os.cpu_count(), commit=source_identity(),
                    clearedEnvironment=cleared)
        if not info["optimized"] or info["sanitized"]:
            log("WARNING: unoptimised or sanitizer build; host times are not comparable")

        tally = Tally()
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "build": info}
        if args.trace == 0:
            values, identical = end_to_end(env, args, tally, report)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        else:
            values, identical = per_layer(env, args, tally, report)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1

    fail_frac = tally.failed / tally.attempted
    report.update(attempted=tally.attempted, failed=tally.failed, fail_frac=fail_frac,
                  errors=tally.errors, metrics=metrics)
    results = args.results or os.path.join(
        ROOT, ".bench_build", "results",
        "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    try:
        os.makedirs(os.path.dirname(os.path.abspath(results)), exist_ok=True)
        with open(results, "w") as fh:
            json.dump(report, fh, indent=1)
    except OSError as e:
        log("perfbench: cannot write results file %s: %s" % (results, e))
        return 1

    build_flag = "" if info["optimized"] and not info["sanitized"] else " UNOPTIMISED"
    print("build %s %s %s nproc=%d%s" % (info["commit"], info["buildType"], info["compiler"],
                                          info["nproc"], build_flag))
    print("digest %s %s %s" % (args.workload, report["digest"]["hash"],
                               json.dumps(report["digest"]["fields"], sort_keys=True)))
    print("fail_frac %.6f (%d of %d simulation calls)" % (fail_frac, tally.failed,
                                                          tally.attempted))
    if "wall_s" in report:
        w = report["wall_s"]
        print("wall_s raw best %.6f median %.6f n=%d pmax=%s, best probe %.6f"
              % (w["best"], w["median"], w["n"], w["pmax"], w["probe"]))
    print(json.dumps({
        "correct": identical and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
