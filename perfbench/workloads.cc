#include "workloads.hh"

#include <chrono>
#include <exception>

#include "cpu/workloads.hh"
#include "sim/simulation.hh"
#include "soc/experiments.hh"
#include "soc/model_loader.hh"
#include "soc/soc.hh"

namespace g5r::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}


constexpr unsigned kNumAccelerators = 4;

struct NvdlaPoint {
    MemTech tech;
    unsigned maxInflight;
    MemPath path;
};

NvdlaPoint nvdlaPoint(Workload w) {
    switch (w) {
    case Workload::kNvdlaStarved: return {MemTech::kDdr4_1ch, 1, MemPath::kDirect};
    default: return {MemTech::kHbm, 240, MemPath::kDmaSpm};
    }
}

experiments::DseRunConfig dseConfig(Workload w) {
    const NvdlaPoint point = nvdlaPoint(w);
    experiments::DseRunConfig cfg;
    cfg.memTech = point.tech;
    cfg.numAccelerators = kNumAccelerators;
    cfg.maxInflight = point.maxInflight;
    cfg.memPath = point.path;
    cfg.shape = models::sanity3Shape();
    cfg.workloadName = "sanity3";
    cfg.numCores = 0;
    return cfg;
}

// Table 2's first column at bench scale (baseElems 150, about 0.3 s per
// call), PMU attached, programmed and gated. The middle column (500, about
// 2 s per call) left too few calls per run to find one the shared host did
// not slow: its best-call spread over ten runs reached 0.28.
experiments::PmuRunConfig pmuConfig() {
    experiments::PmuRunConfig cfg;
    cfg.layout.baseElems = 150;
    cfg.layout.sleepNs = 20'000;
    cfg.numCores = 1;
    cfg.memTech = MemTech::kDdr4_1ch;
    return cfg;
}

// The same tolerance tests/soc/soc_test.cc holds the PMU's IPC readings to.
constexpr double kMaxPmuIpcError = 0.25;

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

// Seal a digest: the hash covers the canonical dump of every field.
exp::Json sealDigest(exp::Json fields) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(fields.dump())));
    exp::Json digest = exp::Json::object();
    digest["hash"] = std::string(hex);
    digest["fields"] = std::move(fields);
    return digest;
}

SimOutcome runNvdla(Workload w, const obs::ObsOptions& obs, Tick maxTicks) {
    experiments::DseRunConfig cfg = dseConfig(w);
    cfg.obs = obs;
    if (maxTicks > 0) cfg.maxTicks = maxTicks;
    const auto start = Clock::now();
    const experiments::DseRunResult r = experiments::runNvdlaDse(cfg);
    SimOutcome out;
    out.wallSeconds = secondsSince(start);
    out.completed = r.completed;
    out.checksumOk = r.checksumsOk;
    out.simTicks = r.runtimeTicks;
    out.profile = r.profile;
    out.metricsPath = r.metricsPath;

    exp::Json fields = exp::Json::object();
    fields["runtimeTicks"] = r.runtimeTicks;
    exp::Json perAccel = exp::Json::array();
    for (const Tick t : r.perAcceleratorTicks) perAccel.push(t);
    fields["perAcceleratorTicks"] = std::move(perAccel);
    fields["completed"] = r.completed;
    fields["checksumsOk"] = r.checksumsOk;
    exp::Json blame = exp::Json::object();
    for (const auto& [stage, ticks] : r.stageBlame) blame[stage] = ticks;
    fields["stageBlame"] = std::move(blame);
    fields["memLatencyP50"] = r.memLatencyP50;
    fields["memLatencyP99"] = r.memLatencyP99;
    out.digest = sealDigest(std::move(fields));
    return out;
}

SimOutcome runPmu(const obs::ObsOptions& obs, Tick maxTicks) {
    experiments::PmuRunConfig cfg = pmuConfig();
    cfg.obs = obs;
    if (maxTicks > 0) cfg.maxTicks = maxTicks;
    const auto start = Clock::now();
    const experiments::PmuRunResult r = experiments::runPmuSortExperiment(cfg);
    SimOutcome out;
    out.wallSeconds = secondsSince(start);
    out.completed = r.completed;
    // The PMU's datapath check: it sampled, and its counters agree with the
    // simulator's own statistics.
    out.checksumOk = !r.intervals.empty() && r.maxAbsIpcError < kMaxPmuIpcError;
    out.simTicks = r.finalTick;
    out.insts = r.committedInsts;
    out.profile = r.profile;
    out.metricsPath = r.metricsPath;

    std::string samples;
    for (const auto& s : r.rawSamples) {
        samples += std::to_string(s.irqTick);
        for (const std::uint64_t c : s.counters) samples += ',' + std::to_string(c);
        samples += ';';
    }
    char samplesHash[17];
    std::snprintf(samplesHash, sizeof samplesHash, "%016llx",
                  static_cast<unsigned long long>(fnv1a(samples)));

    exp::Json fields = exp::Json::object();
    fields["finalTick"] = r.finalTick;
    fields["committedInsts"] = r.committedInsts;
    fields["cycles"] = r.cycles;
    fields["completed"] = r.completed;
    fields["pmuSamples"] = static_cast<std::uint64_t>(r.rawSamples.size());
    fields["pmuCounterHash"] = std::string(samplesHash);
    fields["maxAbsIpcError"] = r.maxAbsIpcError;
    fields["memLatencyP50"] = r.memLatencyP50;
    fields["memLatencyP99"] = r.memLatencyP99;
    out.digest = sealDigest(std::move(fields));
    return out;
}

}  // namespace

std::optional<Workload> parseWorkload(std::string_view name) {
    for (const Workload w :
         {Workload::kNvdlaStarved, Workload::kNvdlaStaged, Workload::kPmuSort}) {
        if (name == workloadName(w)) return w;
    }
    return std::nullopt;
}

const char* workloadName(Workload w) {
    switch (w) {
    case Workload::kNvdlaStarved: return "nvdla_starved";
    case Workload::kNvdlaStaged: return "nvdla_staged";
    case Workload::kPmuSort: return "pmu_sort";
    }
    return "?";
}

SimOutcome runWorkload(Workload w, const obs::ObsOptions& obs, Tick maxTicks) {
    try {
        return w == Workload::kPmuSort ? runPmu(obs, maxTicks) : runNvdla(w, obs, maxTicks);
    } catch (const std::exception& e) {
        SimOutcome out;
        out.error = e.what();
        return out;
    }
}

models::NvdlaTrace sanity3Trace(unsigned i) {
    models::NvdlaPlacement placement;
    placement.ifmapBase = 0x2000'0000ULL + i * 0x0400'0000ULL;
    placement.weightBase = placement.ifmapBase + 0x0100'0000ULL;
    placement.ofmapBase = placement.ifmapBase + 0x0200'0000ULL;
    return models::makeConvTrace("sanity3" + std::to_string(i), models::sanity3Shape(),
                                 placement, 0x5EED + i);
}

// Mirrors the set-up half of runNvdlaDse / runPmuSortExperiment through the
// same public calls, stopping before the first event.
SetupTimes timeSetup(Workload w) {
    SetupTimes t;
    Simulation sim;
    if (w == Workload::kPmuSort) {
        const experiments::PmuRunConfig cfg = pmuConfig();
        SocConfig socCfg = table1Config(cfg.memTech);
        socCfg.numCores = cfg.numCores;

        auto start = Clock::now();
        Soc soc{sim, socCfg};
        t.construct = secondsSince(start);

        start = Clock::now();
        const isa::Program program = workloads::sortBenchmarkProgram(cfg.layout);
        workloads::populateSortArrays(soc.memory(), cfg.layout);
        soc.loadProgram(0, program);
        t.workloadGen = secondsSince(start);

        start = Clock::now();
        auto model = loadRtlModel("pmu");
        t.modelLoad = secondsSince(start);

        start = Clock::now();
        RtlObjectParams rp;
        rp.clockPeriod = socCfg.coreClock;
        soc.attachRtlModel("pmu", std::move(model), rp, Soc::MemPorts::kNone,
                           /*wireEventBus=*/true);
        t.construct += secondsSince(start);
        return t;
    }

    const experiments::DseRunConfig cfg = dseConfig(w);
    SocConfig socCfg = table1Config(cfg.memTech);
    socCfg.numCores = cfg.numCores;
    socCfg.memPath = cfg.memPath;
    socCfg.obs.reqtraceEnabled = true;  // As the DSE harness forces it.
    socCfg.obs.reqtracePath = "-";

    auto start = Clock::now();
    Soc soc{sim, socCfg};
    t.construct = secondsSince(start);

    for (unsigned i = 0; i < cfg.numAccelerators; ++i) {
        start = Clock::now();
        const models::NvdlaTrace trace = sanity3Trace(i);
        t.workloadGen += secondsSince(start);

        start = Clock::now();
        auto model = loadRtlModel("nvdla");
        t.modelLoad += secondsSince(start);

        start = Clock::now();
        RtlObjectParams rp;
        rp.clockPeriod = socCfg.rtlClock;
        rp.maxInflight = cfg.maxInflight;
        soc.attachRtlModel("nvdla" + std::to_string(i), std::move(model), rp,
                           Soc::MemPorts::kMainMemory, /*wireEventBus=*/false);
        t.construct += secondsSince(start);
    }
    return t;
}

}  // namespace g5r::perfbench
