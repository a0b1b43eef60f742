#include "obs/stats_cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "exp/json.hh"
#include "obs/metrics.hh"
#include "sim/parse_number.hh"
#include "tools/args.hh"

namespace g5r::obs {

namespace {

// Integer members that are sweep-configuration knobs, not measurements:
// they contribute to a point's identity and are excluded from comparison.
constexpr const char* kConfigIntKeys[] = {"accelerators", "maxInflight", "baseElems",
                                          "rep", "intervalCycles"};

bool isConfigIntKey(std::string_view key) {
    for (const char* k : kConfigIntKeys) {
        if (key == k) return true;
    }
    return false;
}

/// Host-dependent (or free-text) metric paths that must not gate CI.
bool isExcludedMetric(std::string_view path) {
    if (path == "wallSeconds" || path == "sweepWallSeconds") return true;
    if (path.size() >= 5 && path.substr(0, 5) == "host.") return true;
    return path.find("profileBuckets") != std::string_view::npos ||
           path.find("error") != std::string_view::npos;
}

/// Identity key of a bench point: its string members plus the whitelisted
/// integer config knobs, in member order.
std::string pointIdentity(const exp::Json& point) {
    std::string id;
    for (const auto& [key, value] : point.members()) {
        const bool take = value.isString() || (value.isNumber() && isConfigIntKey(key));
        if (!take) continue;
        if (key == "error") continue;
        if (!id.empty()) id += ',';
        id += key;
        id += '=';
        id += value.isString() ? value.asString() : value.dump();
    }
    return id;
}

/// Flatten numeric (and bool) leaves of @p node to dotted-path/value pairs.
void flattenNumeric(const exp::Json& node, const std::string& prefix,
                    std::vector<std::pair<std::string, double>>& out) {
    if (node.isNumber()) {
        out.emplace_back(prefix, node.asDouble());
    } else if (node.isBool()) {
        out.emplace_back(prefix, node.asBool() ? 1.0 : 0.0);
    } else if (node.isObject()) {
        for (const auto& [key, value] : node.members()) {
            flattenNumeric(value, prefix.empty() ? key : prefix + "." + key, out);
        }
    } else if (node.isArray()) {
        for (std::size_t i = 0; i < node.items().size(); ++i) {
            flattenNumeric(node.items()[i], prefix + "." + std::to_string(i), out);
        }
    }
}

double resolveThreshold(const StatsDiffOptions& opts, std::string_view metric) {
    for (const MetricThreshold& t : opts.perMetric) {
        if (metric.find(t.match) == std::string_view::npos) continue;
        return t.threshold.value_or(opts.defaultThreshold);
    }
    return opts.defaultThreshold;
}

/// Compare one metric pair and append a violation if out of threshold.
void compareMetric(const StatsDiffOptions& opts, const std::string& pointId,
                   const std::string& metric, double base, double cur,
                   StatsDiffReport& report) {
    ++report.metricsCompared;
    const double absDelta = std::abs(cur - base);
    if (absDelta < 1e-12) return;
    const double rel = absDelta / std::max(std::abs(base), 1e-9);
    const double threshold = resolveThreshold(opts, metric);
    if (rel <= threshold) return;
    report.violations.push_back(
        StatsDiffViolation{pointId, metric, base, cur, rel, threshold, ""});
}

}  // namespace

StatsDiffReport diffBenchDocuments(const exp::Json& baseline, const exp::Json& current,
                                   const StatsDiffOptions& opts) {
    StatsDiffReport report;
    if (!baseline.isObject() || !baseline.contains("points") ||
        !baseline.at("points").isArray()) {
        report.error = "baseline is not a BENCH document (no points array)";
        return report;
    }
    if (!current.isObject() || !current.contains("points") ||
        !current.at("points").isArray()) {
        report.error = "current is not a BENCH document (no points array)";
        return report;
    }
    if (baseline.contains("bench") && current.contains("bench") &&
        baseline.at("bench").asString() != current.at("bench").asString()) {
        report.error = "bench name mismatch: baseline \"" +
                       baseline.at("bench").asString() + "\" vs current \"" +
                       current.at("bench").asString() + "\"";
        return report;
    }
    report.comparable = true;

    // Index current points by identity (first occurrence wins).
    std::unordered_map<std::string, const exp::Json*> curByIdentity;
    for (const exp::Json& p : current.at("points").items()) {
        curByIdentity.emplace(pointIdentity(p), &p);
    }

    for (const exp::Json& basePoint : baseline.at("points").items()) {
        const std::string id = pointIdentity(basePoint);
        const auto it = curByIdentity.find(id);
        if (it == curByIdentity.end()) {
            report.violations.push_back(
                StatsDiffViolation{id, "", 0, 0, 0, 0, "missing point"});
            continue;
        }
        ++report.pointsCompared;

        std::vector<std::pair<std::string, double>> baseMetrics, curMetrics;
        flattenNumeric(basePoint, "", baseMetrics);
        flattenNumeric(*it->second, "", curMetrics);
        std::unordered_map<std::string_view, double> curByName;
        for (const auto& [name, value] : curMetrics) curByName.emplace(name, value);
        std::unordered_set<std::string_view> baseNames;

        for (const auto& [name, baseValue] : baseMetrics) {
            if (isConfigIntKey(name) || isExcludedMetric(name)) continue;
            baseNames.insert(name);
            const auto cit = curByName.find(name);
            if (cit == curByName.end()) {
                report.violations.push_back(
                    StatsDiffViolation{id, name, baseValue, 0, 0, 0, "missing metric"});
                continue;
            }
            compareMetric(opts, id, name, baseValue, cit->second, report);
        }
        // A metric absent from the baseline reads as 0 there (BENCH points
        // omit masters with no latency samples), so only a nonzero one is new.
        for (const auto& [name, curValue] : curMetrics) {
            if (isConfigIntKey(name) || isExcludedMetric(name) || curValue == 0 ||
                baseNames.count(name) != 0) {
                continue;
            }
            report.violations.push_back(
                StatsDiffViolation{id, name, 0, curValue, 0, 0, "new metric"});
        }
    }
    return report;
}

StatsDiffReport diffTimelines(const MetricsTimeline& baseline,
                              const MetricsTimeline& current,
                              const StatsDiffOptions& opts) {
    StatsDiffReport report;
    report.comparable = true;
    report.pointsCompared = 1;

    const std::vector<std::string> curChannels = current.channels();
    const std::unordered_set<std::string_view> curSet(curChannels.begin(),
                                                      curChannels.end());
    for (const std::string& channel : baseline.channels()) {
        const double baseValue = baseline.finalValue(channel);
        if (curSet.find(channel) == curSet.end()) {
            report.violations.push_back(
                StatsDiffViolation{"", channel, baseValue, 0, 0, 0, "missing metric"});
            continue;
        }
        compareMetric(opts, "", channel, baseValue, current.finalValue(channel), report);
    }
    return report;
}

std::string formatStatsDiffReport(const StatsDiffReport& report,
                                  const std::string& baselinePath,
                                  const std::string& currentPath) {
    std::ostringstream os;
    if (!report.comparable) {
        os << "g5r stats: not comparable: " << report.error << '\n';
        return os.str();
    }
    os << "g5r stats diff\n  baseline: " << baselinePath << "\n  current:  " << currentPath
       << '\n';
    for (const StatsDiffViolation& v : report.violations) {
        if (!v.note.empty()) {
            os << "VIOLATION " << v.note;
            if (!v.point.empty()) os << " [" << v.point << ']';
            if (!v.metric.empty()) os << ' ' << v.metric;
            os << '\n';
            continue;
        }
        char buf[160];
        std::snprintf(buf, sizeof buf, "VIOLATION %s: %.6g -> %.6g (%+.1f%%, limit %.0f%%)",
                      v.metric.c_str(), v.baseline, v.current,
                      100.0 * (v.current - v.baseline) /
                          std::max(std::abs(v.baseline), 1e-9),
                      100.0 * v.threshold);
        os << buf;
        if (!v.point.empty()) os << "  [" << v.point << ']';
        os << '\n';
    }
    os << (report.violations.empty() ? "OK" : "FAIL") << ": " << report.pointsCompared
       << " points, " << report.metricsCompared << " metrics compared, "
       << report.violations.size() << " violation(s)\n";
    return os.str();
}

std::string renderTimeline(const MetricsTimeline& timeline,
                           const std::string& channelFilter, std::size_t maxChannels) {
    std::ostringstream os;
    os << "timeline: run=\"" << timeline.run << "\" interval=" << timeline.intervalTicks
       << " ticks, " << timeline.samples.size() << " samples, end tick "
       << timeline.endTick << '\n';

    static constexpr char kGlyphs[] = " .:-=+*#%@";
    static constexpr std::size_t kWidth = 60;
    std::size_t shown = 0;
    std::size_t matched = 0;
    for (const std::string& channel : timeline.channels()) {
        if (!channelFilter.empty() && channel.find(channelFilter) == std::string::npos) {
            continue;
        }
        ++matched;
        if (maxChannels != 0 && shown >= maxChannels) continue;
        ++shown;

        const auto series = timeline.series(channel);
        double lo = 0.0, hi = 0.0;
        for (const auto& [tick, value] : series) {
            lo = std::min(lo, value);
            hi = std::max(hi, value);
        }
        // Resample the series onto a fixed-width strip: each column shows
        // the last value at or before its share of the sample range.
        std::string strip(kWidth, ' ');
        if (!series.empty() && hi > lo) {
            for (std::size_t col = 0; col < kWidth; ++col) {
                const std::size_t idx =
                    std::min(series.size() - 1, col * series.size() / kWidth);
                const double norm = (series[idx].second - lo) / (hi - lo);
                const std::size_t glyph = static_cast<std::size_t>(
                    norm * (sizeof kGlyphs - 2));
                strip[col] = kGlyphs[std::min<std::size_t>(glyph, sizeof kGlyphs - 2)];
            }
        }
        char head[192];
        std::snprintf(head, sizeof head, "%-48s |%s| final %.6g\n", channel.c_str(),
                      strip.c_str(), series.empty() ? 0.0 : series.back().second);
        os << head;
    }
    if (maxChannels != 0 && matched > shown) {
        os << "... " << (matched - shown) << " more channel(s) hidden (--max)\n";
    }
    return os.str();
}

std::string renderBenchPercentiles(const exp::Json& doc) {
    std::ostringstream os;
    if (!doc.isObject() || !doc.contains("points") || !doc.at("points").isArray()) {
        return "no points array\n";
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-44s %10s %10s %10s %10s %10s %10s\n", "point/master",
                  "count", "min", "mean", "p50", "p99", "max");
    os << buf;
    for (const exp::Json& point : doc.at("points").items()) {
        if (!point.contains("memLatency") || !point.at("memLatency").isObject()) continue;
        const std::string id = pointIdentity(point);
        os << id << '\n';
        for (const auto& [suffix, lat] : point.at("memLatency").members()) {
            if (!lat.isObject()) continue;
            const auto get = [&lat](const char* key) {
                return lat.contains(key) ? lat.at(key).asDouble() : 0.0;
            };
            std::snprintf(buf, sizeof buf,
                          "  %-42s %10.0f %10.0f %10.1f %10.0f %10.0f %10.0f\n",
                          suffix.c_str(), get("count"), get("minTicks"), get("meanTicks"),
                          get("p50Ticks"), get("p99Ticks"), get("maxTicks"));
            os << buf;
        }
        if (point.contains("memLatencyP50")) {
            std::snprintf(buf, sizeof buf, "  %-42s %43s p50 %-10.0f p99 %-10.0f\n",
                          "(merged)", "", point.at("memLatencyP50").asDouble(),
                          point.contains("memLatencyP99")
                              ? point.at("memLatencyP99").asDouble()
                              : 0.0);
            os << buf;
        }
        // dmaSpm-path extras: per-descriptor DMA latency percentiles and the
        // SPM hit/miss/MSHR counters, when the point carries them.
        if (point.contains("dmaLatencyP50")) {
            const auto get = [&point](const char* key) {
                return point.contains(key) ? point.at(key).asDouble() : 0.0;
            };
            std::snprintf(buf, sizeof buf,
                          "  %-42s %10.0f %10s %10s %10.0f %10.0f %10.0f\n",
                          "dma.descriptorLatency", get("dmaDescriptors"), "-", "-",
                          get("dmaLatencyP50"), get("dmaLatencyP99"),
                          get("dmaLatencyMax"));
            os << buf;
            std::snprintf(buf, sizeof buf,
                          "  %-42s hits %-10.0f misses %-10.0f mshrJoins %-10.0f\n",
                          "spm.reads", get("spmReadHits"), get("spmReadMisses"),
                          get("spmMshrJoins"));
            os << buf;
        }
    }
    return os.str();
}

namespace {

constexpr std::string_view kUsage =
    "usage: g5r stats <command> ...\n"
    "  g5r stats timeline <file.metrics.jsonl> [--channel SUBSTR] [--max N]\n"
    "      render a GEM5RTL_METRICS timeline as per-channel strips\n"
    "  g5r stats percentiles <BENCH_*.json | file.metrics.jsonl>\n"
    "      print latency percentile tables\n"
    "  g5r stats diff <baseline> <current> [--threshold F] [--metric NAME[=F]]\n"
    "      compare two BENCH_*.json documents or two metrics timelines;\n"
    "      exit 1 when any metric moves more than its relative threshold\n"
    "      (default 0.25; --metric NAME=F overrides metrics containing NAME)\n";

using tools::Arity;
const tools::Command kTimeline{
    "g5r stats timeline", kUsage, {{"--channel", Arity::kValue}, {"--max", Arity::kValue}}, 1, 1};
const tools::Command kPercentiles{"g5r stats percentiles", kUsage, {}, 1, 1};
const tools::Command kDiff{
    "g5r stats diff", kUsage, {{"--threshold", Arity::kValue}, {"--metric", Arity::kValue}}, 2, 2};

/// A stats input file: a BENCH document (one JSON object) or a metrics
/// timeline (JSONL whose first line carries the g5rMetrics marker).
struct StatsInput {
    bool isTimeline = false;
    exp::Json bench;
    MetricsTimeline timeline;
};

std::optional<StatsInput> loadStatsInput(const std::string& tool, const std::string& path) {
    const auto text = tools::readInputFile(tool, path);
    if (!text) return std::nullopt;
    StatsInput in;
    in.isTimeline = text->substr(0, text->find('\n')).find("\"g5rMetrics\"") != std::string::npos;
    try {
        if (in.isTimeline) {
            in.timeline = readMetricsTimeline(path);
        } else {
            in.bench = exp::Json::parse(*text);
        }
    } catch (const std::exception& e) {
        std::cerr << tool << ": " << (in.isTimeline ? "" : path + ": ") << e.what() << '\n';
        return std::nullopt;
    }
    return in;
}

int runDiff(const tools::Args& args) {
    StatsDiffOptions opts;
    if (!args.readNonNegative("--threshold", opts.defaultThreshold)) return 2;
    for (const tools::Arg& a : args.items) {
        if (a.option != "--metric") continue;
        const std::string& spec = *a.value;
        const auto eq = spec.find('=');
        MetricThreshold t;
        t.match = spec.substr(0, eq);
        if (eq != std::string::npos) {
            t.threshold = parseNonNegative(std::string_view{spec}.substr(eq + 1));
            if (!t.threshold) return args.bad("--metric", spec);
        }
        opts.perMetric.push_back(std::move(t));
    }
    const std::vector<std::string> paths = args.positionals();
    const auto base = loadStatsInput(kDiff.tool, paths[0]);
    if (!base) return 2;
    const auto cur = loadStatsInput(kDiff.tool, paths[1]);
    if (!cur) return 2;
    if (base->isTimeline != cur->isTimeline) {
        std::cerr << kDiff.tool << ": cannot diff a BENCH document against a timeline\n";
        return 2;
    }
    const StatsDiffReport report = base->isTimeline
                                       ? diffTimelines(base->timeline, cur->timeline, opts)
                                       : diffBenchDocuments(base->bench, cur->bench, opts);
    std::cout << formatStatsDiffReport(report, paths[0], paths[1]);
    if (!report.comparable) return 2;
    return report.violations.empty() ? 0 : 1;
}

}  // namespace

int statsCliMain(int argc, const char* const* argv) {
    const std::string_view cmd = argc > 1 ? argv[1] : "";
    if (cmd == "--help" || cmd == "-h") {
        std::cout << kUsage;
        return 0;
    }
    const tools::Command* spec = cmd == "timeline"      ? &kTimeline
                                 : cmd == "percentiles" ? &kPercentiles
                                 : cmd == "diff"        ? &kDiff
                                                        : nullptr;
    if (spec == nullptr) {
        if (!cmd.empty()) std::cerr << "g5r stats: unknown command " << cmd << '\n';
        std::cerr << kUsage;
        return 2;
    }
    const tools::Args args = tools::parseArgs(*spec, argc - 1, argv + 1);
    if (args.exit) return *args.exit;
    if (spec == &kDiff) return runDiff(args);

    std::size_t maxChannels = 32;
    if (!args.readUnsigned("--max", maxChannels)) return 2;
    const std::string path = args.positionals()[0];
    const auto in = loadStatsInput(spec->tool, path);
    if (!in) return 2;
    if (spec == &kTimeline) {
        if (!in->isTimeline) {
            std::cerr << spec->tool << ": " << path << ": not a g5r metrics timeline\n";
            return 2;
        }
        std::cout << renderTimeline(in->timeline, args.value("--channel").value_or(""),
                                    maxChannels);
        return 0;
    }
    if (!in->isTimeline) {
        std::cout << renderBenchPercentiles(in->bench);
        return 0;
    }
    // Timelines: the percentile channels are first-class; show them.
    for (const std::string& channel : in->timeline.channels()) {
        const auto tail = channel.rfind('.');
        const std::string suffix = tail == std::string::npos ? channel : channel.substr(tail);
        if (suffix != ".p50" && suffix != ".p99" && suffix != ".p999") continue;
        std::printf("%-64s %14.6g\n", channel.c_str(), in->timeline.finalValue(channel));
    }
    return 0;
}

}  // namespace g5r::obs
