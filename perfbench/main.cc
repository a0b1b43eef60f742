// g5r_perfbench: the measuring half of the host-time benchmark. run.py
// builds it, starts one process per measurement (so peak RSS and cold
// set-up are per workload), and folds the JSON each prints on its last
// stdout line into the benchmark's metrics.
//
//   g5r_perfbench info
//   g5r_perfbench sim <workload> [--seconds S] [--min-runs N] [--max-runs N]
//                 [--fail-runs N] [--reqtrace-off | --reqtrace-ab]
//                 [--profile --metrics-dir D]
//   g5r_perfbench setup <workload>
//   g5r_perfbench micro --seed N --depth D [--seconds S]
//
// The simulator applies any GEM5RTL_* / G5R_* environment variable it finds,
// which would change the measured program, so g5r_perfbench refuses to run
// while one is set. The single exception is GEM5RTL_REQTRACE=0, which it
// sets itself for the obs.reqtrace_frac variant: for every call with
// --reqtrace-off, for every second call with --reqtrace-ab (alternating the
// two variants in one process, so both see the same host conditions).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "exp/json.hh"
#include "micro.hh"
#include "workloads.hh"

extern char** environ;

namespace g5r::perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "g5r_perfbench: %s\n"
                 "usage: g5r_perfbench info | sim <workload> [options] | setup <workload>"
                 " | micro --seed N --depth D [--seconds S]\n",
                 why);
    std::exit(2);
}

bool simulatorEnvironmentClean() {
    bool clean = true;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string_view var(*e);
        if (var.starts_with("GEM5RTL_") || var.starts_with("G5R_")) {
            std::fprintf(stderr, "g5r_perfbench: refusing to measure with %s set\n", *e);
            clean = false;
        }
    }
    return clean;
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Sanitizer builds, as the compiler itself reports them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

exp::Json buildInfo() {
    exp::Json info = exp::Json::object();
    info["buildType"] = G5R_PERFBENCH_BUILD_TYPE;
    info["cxxFlags"] = G5R_PERFBENCH_CXX_FLAGS;
#if defined(__clang__)
    info["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
    info["compiler"] = "gcc " __VERSION__;
#else
    info["compiler"] = "unknown";
#endif
#if defined(__OPTIMIZE__)
    info["optimized"] = true;
#else
    info["optimized"] = false;
#endif
    info["sanitized"] = kSanitized;
    return info;
}

struct Args {
    int argc;
    char** argv;
    int next = 2;

    // Value of "--name <value>" anywhere after the subcommand, or nullptr.
    const char* value(const char* name) const {
        for (int i = next; i + 1 < argc; ++i) {
            if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
        }
        return nullptr;
    }
    bool flag(const char* name) const {
        for (int i = next; i < argc; ++i) {
            if (std::strcmp(argv[i], name) == 0) return true;
        }
        return false;
    }
    double number(const char* name, double dflt) const {
        const char* v = value(name);
        if (v == nullptr) return dflt;
        char* end = nullptr;
        const double parsed = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(parsed >= 0)) usage("bad numeric option");
        return parsed;
    }
};

Workload workloadArg(Args& args) {
    if (args.argc < 3) usage("missing workload");
    const auto w = parseWorkload(args.argv[2]);
    if (!w) usage("unknown workload");
    args.next = 3;
    return *w;
}

// Repeated simulation calls for --seconds (at least --min-runs, at most
// --max-runs). A failing call is recorded and the loop goes on.
int cmdSim(Args& args) {
    const Workload w = workloadArg(args);
    const double seconds = args.number("--seconds", 0);
    const auto minRuns = static_cast<unsigned>(args.number("--min-runs", 1));
    const auto maxRuns = static_cast<unsigned>(args.number("--max-runs", 1e9));
    // Smoke test hook: the first --fail-runs calls get a 1000-tick budget,
    // too short to complete, so they count as failures.
    const auto failRuns = static_cast<unsigned>(args.number("--fail-runs", 0));
    const bool alternate = args.flag("--reqtrace-ab");
    if (args.flag("--reqtrace-off")) setenv("GEM5RTL_REQTRACE", "0", 1);

    obs::ObsOptions obs;
    if (args.flag("--profile")) {
        const char* dir = args.value("--metrics-dir");
        if (dir == nullptr) usage("--profile needs --metrics-dir");
        obs.profileEnabled = true;
        obs.profileStride = 1;
        obs.metricsEnabled = true;
        obs.metricsDir = dir;
    }

    exp::Json runs = exp::Json::array();
    exp::Json profile;
    std::string metricsPath;
    const auto start = std::chrono::steady_clock::now();
    for (unsigned n = 0; n < maxRuns; ++n) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (n >= minRuns && elapsed >= seconds) break;
        const bool reqtraceOff = alternate && n % 2 == 1;
        if (alternate) {
            if (reqtraceOff) {
                setenv("GEM5RTL_REQTRACE", "0", 1);
            } else {
                unsetenv("GEM5RTL_REQTRACE");
            }
        }
        const SimOutcome out = runWorkload(w, obs, n < failRuns ? 1000 : 0);
        exp::Json run = exp::Json::object();
        run["reqtraceOff"] = reqtraceOff || std::getenv("GEM5RTL_REQTRACE") != nullptr;
        run["wall_s"] = out.wallSeconds;
        run["ok"] = out.ok();
        run["completed"] = out.completed;
        run["checksumOk"] = out.checksumOk;
        run["error"] = out.error;
        run["simTicks"] = out.simTicks;
        run["insts"] = out.insts;
        run["digest"] = out.digest;
        // Host-speed probes after the call, about a tenth of its length; run.py
        // scales wall_s by the best probe (see perfbench/README.md).
        double probeBest = referenceSeconds();
        for (double probeTotal = probeBest; probeTotal < 0.1 * out.wallSeconds;) {
            const double probe = referenceSeconds();
            probeTotal += probe;
            probeBest = std::min(probeBest, probe);
        }
        run["ref_s"] = probeBest;
        runs.push(std::move(run));
        // Profiled calls: keep the last call's profile and metrics timeline.
        if (out.profile) profile = out.profile->toJson();
        if (!out.metricsPath.empty()) metricsPath = out.metricsPath;
    }

    exp::Json doc = exp::Json::object();
    doc["workload"] = workloadName(w);
    doc["runs"] = std::move(runs);
    doc["peak_rss_mb"] = peakRssMb();
    doc["profile"] = std::move(profile);
    doc["metricsPath"] = metricsPath;
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

int cmdSetup(Args& args) {
    const Workload w = workloadArg(args);
    const SetupTimes t = timeSetup(w);
    exp::Json doc = exp::Json::object();
    doc["workload"] = workloadName(w);
    doc["setup_s"] = t.total();
    doc["workload_gen_s"] = t.workloadGen;
    doc["model_load_s"] = t.modelLoad;
    doc["construct_s"] = t.construct;
    // Host-speed probe after the set-up, as after a simulation call.
    doc["ref_s"] = std::min({referenceSeconds(), referenceSeconds(), referenceSeconds()});
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

int cmdMicro(Args& args) {
    MicroOptions opts;
    opts.seed = static_cast<std::uint64_t>(args.number("--seed", 1));
    opts.depth = static_cast<unsigned>(args.number("--depth", 16));
    opts.seconds = args.number("--seconds", 2);
    std::printf("%s\n", runMicrobenchmarks(opts).dump().c_str());
    return 0;
}

}  // namespace
}  // namespace g5r::perfbench

int main(int argc, char** argv) {
    using namespace g5r::perfbench;
    if (argc < 2) usage("missing subcommand");
    if (!simulatorEnvironmentClean()) return 2;
    Args args{argc, argv};
    const std::string_view cmd = argv[1];
    if (cmd == "info") {
        std::printf("%s\n", buildInfo().dump().c_str());
        return 0;
    }
    if (cmd == "sim") return cmdSim(args);
    if (cmd == "setup") return cmdSetup(args);
    if (cmd == "micro") return cmdMicro(args);
    usage("unknown subcommand");
}
