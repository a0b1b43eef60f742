#include "obs/metrics.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/json.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace g5r::obs {

MetricsSession::MetricsSession(Simulation& sim, std::string path, std::string runLabel,
                               Tick intervalTicks)
    : sim_(sim),
      path_(std::move(path)),
      out_(path_, std::ios::out | std::ios::trunc),
      interval_(intervalTicks > 0 ? intervalTicks : 1),
      nextTick_(sim.curTick()) {
    ok_ = static_cast<bool>(out_);
    if (!ok_) return;
    exp::Json header = exp::Json::object();
    header["g5rMetrics"] = 1;
    header["schema"] = kSchema;
    header["run"] = runLabel;
    header["intervalTicks"] = static_cast<std::uint64_t>(interval_);
    out_ << header.dump() << '\n';
}

MetricsSession::~MetricsSession() { finish(sim_.curTick()); }

void MetricsSession::refreshChannels() {
    for (const SimObject* obj : sim_.objects()) {
        for (const auto& stat : obj->statsGroup().all()) {
            const stats::Stat* s = stat.get();
            if (!seen_.insert(s).second) continue;
            if (const auto* hist = dynamic_cast<const stats::Histogram*>(s)) {
                channels_.push_back({s->name() + ".count",
                                     [hist] { return static_cast<double>(hist->count()); }});
                channels_.push_back({s->name() + ".mean", [hist] { return hist->mean(); }});
                channels_.push_back({s->name() + ".max", [hist] { return hist->maxValue(); }});
                channels_.push_back({s->name() + ".p50", [hist] { return hist->quantile(0.50); }});
                channels_.push_back({s->name() + ".p99", [hist] { return hist->quantile(0.99); }});
                channels_.push_back(
                    {s->name() + ".p999", [hist] { return hist->quantile(0.999); }});
            } else {
                channels_.push_back({s->name(), [s] { return s->value(); }});
            }
        }
    }
}

void MetricsSession::sampleAt(Tick when) {
    nextTick_ = when + interval_;
    if (!ok_) return;
    refreshChannels();
    exp::Json deltas = exp::Json::object();
    for (Channel& ch : channels_) {
        const double cur = ch.read();
        if (cur == ch.prev) continue;
        deltas[ch.name] = cur - ch.prev;
        ch.prev = cur;
    }
    exp::Json line = exp::Json::object();
    line["t"] = static_cast<std::uint64_t>(when);
    line["d"] = std::move(deltas);
    out_ << line.dump() << '\n';
    ++samples_;
}

void MetricsSession::finish(Tick finalTick) {
    if (finished_) return;
    finished_ = true;
    if (!ok_) return;
    // Tail sample: a short run's whole story may live between the last
    // interval boundary and the end tick.
    sampleAt(finalTick);
    exp::Json footer = exp::Json::object();
    footer["end"] = static_cast<std::uint64_t>(finalTick);
    footer["samples"] = samples_;
    out_ << footer.dump() << '\n';
    out_.flush();
    out_.close();
}

// ---------------------------------------------------------------- reading --

MetricsTimeline readMetricsTimeline(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open metrics timeline: " + path);

    MetricsTimeline tl;
    std::string lineText;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (std::getline(in, lineText)) {
        ++lineNo;
        if (lineText.empty()) continue;
        exp::Json line;
        try {
            line = exp::Json::parse(lineText);
        } catch (const std::exception& e) {
            std::ostringstream err;
            err << path << ":" << lineNo << ": bad JSONL line: " << e.what();
            throw std::runtime_error(err.str());
        }
        if (!sawHeader) {
            if (!line.isObject() || !line.contains("g5rMetrics")) {
                throw std::runtime_error(path + ": not a g5r metrics timeline (bad header)");
            }
            tl.schema = static_cast<int>(line.at("schema").asInt());
            if (line.contains("run")) tl.run = line.at("run").asString();
            tl.intervalTicks = static_cast<Tick>(line.at("intervalTicks").asInt());
            sawHeader = true;
            continue;
        }
        if (line.contains("t")) {
            MetricsSample sample;
            sample.tick = static_cast<Tick>(line.at("t").asInt());
            for (const auto& [name, value] : line.at("d").members()) {
                sample.deltas.emplace_back(name, value.asDouble());
            }
            tl.samples.push_back(std::move(sample));
        } else if (line.contains("end")) {
            tl.endTick = static_cast<Tick>(line.at("end").asInt());
            if (line.contains("samples")) {
                tl.declaredSamples = static_cast<std::uint64_t>(line.at("samples").asInt());
            }
        }
    }
    if (!sawHeader) throw std::runtime_error(path + ": empty metrics timeline");
    return tl;
}

std::vector<std::string> MetricsTimeline::channels() const {
    std::vector<std::string> out;
    std::unordered_set<std::string_view> seen;
    for (const MetricsSample& s : samples) {
        for (const auto& [name, delta] : s.deltas) {
            (void)delta;
            if (seen.insert(name).second) out.push_back(name);
        }
    }
    return out;
}

std::vector<std::pair<Tick, double>> MetricsTimeline::series(std::string_view channel) const {
    std::vector<std::pair<Tick, double>> out;
    out.reserve(samples.size());
    double acc = 0.0;
    for (const MetricsSample& s : samples) {
        for (const auto& [name, delta] : s.deltas) {
            if (name == channel) acc += delta;
        }
        out.emplace_back(s.tick, acc);
    }
    return out;
}

double MetricsTimeline::finalValue(std::string_view channel) const {
    double acc = 0.0;
    for (const MetricsSample& s : samples) {
        for (const auto& [name, delta] : s.deltas) {
            if (name == channel) acc += delta;
        }
    }
    return acc;
}

}  // namespace g5r::obs
