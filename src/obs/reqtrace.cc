#include "obs/reqtrace.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/json.hh"

namespace g5r::obs {

ReqTraceSession::ReqTraceSession(std::string path, std::string runLabel)
    : path_(std::move(path)), runLabel_(std::move(runLabel)) {
    // File-mode writability is only probed at finish(); until then the
    // session is a pure in-memory collector either way.
    ok_ = true;
}

ReqTraceSession::~ReqTraceSession() { finish(0); }

std::size_t ReqTraceSession::slotFor(ReqId id) {
    if (id >= index_.size()) index_.resize(id + 1, 0);
    if (index_[id] == 0) {
        records_.emplace_back();
        records_.back().id = id;
        index_[id] = records_.size();
    }
    return index_[id] - 1;
}

void ReqTraceSession::onBegin(ReqId id, ReqId parent, const char* kind, Tick when) {
    if (id == 0) return;
    ReqRecord& rec = records_[slotFor(id)];
    rec.parent = parent;
    rec.kind = kind;
    rec.beginTick = when;
}

void ReqTraceSession::onEnd(ReqId id, Tick when) {
    if (id == 0) return;
    ReqRecord& rec = records_[slotFor(id)];
    rec.endTick = when;
    rec.ended = true;
}

void ReqTraceSession::onSpan(ReqId id, ReqStage stage, Tick begin, Tick end) {
    if (id == 0 || end <= begin) return;
    records_[slotFor(id)].spans.push_back(ReqSpan{stage, begin, end});
}

void ReqTraceSession::finish(Tick finalTick) {
    if (finished_) return;
    finished_ = true;

    // Canonicalize: ID-ordered records, (begin, stage, end)-ordered spans.
    // This erases callback-arrival order, which is the only host-order
    // dependent thing about the collection, so the serialized sidecar is
    // identical across --jobs counts and idle-tick gating.
    std::sort(records_.begin(), records_.end(),
              [](const ReqRecord& a, const ReqRecord& b) { return a.id < b.id; });
    for (ReqRecord& rec : records_) {
        std::sort(rec.spans.begin(), rec.spans.end(),
                  [](const ReqSpan& a, const ReqSpan& b) {
                      if (a.begin != b.begin) return a.begin < b.begin;
                      if (a.stage != b.stage) return a.stage < b.stage;
                      return a.end < b.end;
                  });
    }

    if (path_.empty()) return;  // In-memory mode.
    std::ofstream out(path_, std::ios::out | std::ios::trunc);
    ok_ = static_cast<bool>(out);
    if (!ok_) return;

    exp::Json header = exp::Json::object();
    header["g5rReqTrace"] = 1;
    header["schema"] = kSchema;
    header["run"] = runLabel_;
    out << header.dump() << '\n';

    for (const ReqRecord& rec : records_) {
        exp::Json line = exp::Json::object();
        line["id"] = rec.id;
        line["par"] = rec.parent;
        line["kind"] = rec.kind;
        line["b"] = static_cast<std::uint64_t>(rec.beginTick);
        line["e"] = static_cast<std::uint64_t>(rec.ended ? rec.endTick : 0);
        exp::Json spans = exp::Json::array();
        Tick prevBegin = rec.beginTick;
        for (const ReqSpan& span : rec.spans) {
            exp::Json triple = exp::Json::array();
            triple.push(static_cast<std::uint64_t>(span.stage));
            triple.push(static_cast<std::int64_t>(span.begin) -
                        static_cast<std::int64_t>(prevBegin));
            triple.push(static_cast<std::uint64_t>(span.end - span.begin));
            spans.push(std::move(triple));
            prevBegin = span.begin;
        }
        line["spans"] = std::move(spans);
        out << line.dump() << '\n';
    }

    exp::Json footer = exp::Json::object();
    footer["end"] = static_cast<std::uint64_t>(finalTick);
    footer["requests"] = static_cast<std::uint64_t>(records_.size());
    out << footer.dump() << '\n';
    out.flush();
}

// --------------------------------------------------------------- analysis --

RequestTree::RequestTree(const std::vector<ReqRecord>& recs)
    : records(recs), children(recs.size()), owningRoot(recs.size()) {
    // Record IDs can be sparse, so the tree is indexed by position.
    std::vector<std::size_t> slotOf;  // id -> index + 1
    for (std::size_t i = 0; i < records.size(); ++i) {
        const ReqId id = records[i].id;
        if (id >= slotOf.size()) slotOf.resize(id + 1, 0);
        slotOf[id] = i + 1;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
        const ReqId parent = records[i].parent;
        if (parent != 0 && parent < slotOf.size() && slotOf[parent] != 0) {
            children[slotOf[parent] - 1].push_back(i);
        } else {
            roots.push_back(i);
        }
        owningRoot[i] = i;
    }
    for (const std::size_t root : roots) {
        for (const std::size_t idx : subtree(root)) owningRoot[idx] = root;
    }
}

std::vector<std::size_t> RequestTree::subtree(std::size_t root) const {
    std::vector<std::size_t> out;
    std::vector<std::size_t> stack{root};
    while (!stack.empty()) {
        const std::size_t idx = stack.back();
        stack.pop_back();
        out.push_back(idx);
        for (const std::size_t child : children[idx]) stack.push_back(child);
    }
    return out;
}

namespace {

/// Blame precedence: higher rank wins where spans overlap. Ownership first:
/// a tick inside a DMA descriptor's lifetime is staging (or drain) work no
/// matter which downstream queue the bytes sit in, and an RTL read stalled
/// on an SPM miss is an spmFill tick even while the fill occupies DRAM.
/// Below those owners the deepest shared memory resource wins (dramService
/// over xbarQueue), then the catch-all host/compute windows.
constexpr std::array<int, kNumReqStages> kStageRank = {
    /* hostLoad    */ 1,
    /* dmaStage    */ 6,
    /* spmFill     */ 4,
    /* xbarQueue   */ 2,
    /* dramService */ 3,
    /* rtlCompute  */ 0,
    /* drain       */ 5,
};

struct SweepEvent {
    Tick tick;
    unsigned stage;
    int delta;  ///< +1 span opens, -1 span closes.
};

}  // namespace

int blameRank(ReqStage stage) { return kStageRank[static_cast<unsigned>(stage)]; }

BlameSummary computeBlame(const std::vector<ReqRecord>& records) {
    BlameSummary summary;
    const RequestTree tree(records);

    for (const std::size_t rootIdx : tree.roots) {
        const ReqRecord& root = records[rootIdx];
        RequestBlame blame;
        blame.record = rootIdx;
        blame.id = root.id;
        blame.kind = root.kind;
        blame.begin = root.beginTick;

        // The effective end: the explicit end if every piece of work
        // finished before it, else the last subtree activity (a run cut
        // short mid-request still attributes the ticks it simulated).
        Tick effectiveEnd = root.ended ? root.endTick : root.beginTick;
        for (const std::size_t idx : tree.subtree(rootIdx)) {
            const ReqRecord& rec = records[idx];
            if (rec.ended && rec.endTick > effectiveEnd) effectiveEnd = rec.endTick;
            for (const ReqSpan& span : rec.spans) {
                if (span.end > effectiveEnd) effectiveEnd = span.end;
            }
        }
        blame.end = effectiveEnd;

        std::vector<SweepEvent> events;
        tree.forEachClampedSpan(rootIdx, blame.begin, effectiveEnd, [&events](ReqSpan span) {
            const auto stage = static_cast<unsigned>(span.stage);
            events.push_back(SweepEvent{span.begin, stage, +1});
            events.push_back(SweepEvent{span.end, stage, -1});
        });

        // Sweep line over [begin, effectiveEnd]: within each elementary
        // interval the highest-ranked open stage takes the blame; with no
        // open span the ticks are unattributed.
        std::sort(events.begin(), events.end(), [](const SweepEvent& a, const SweepEvent& b) {
            return a.tick < b.tick;
        });
        std::array<int, kNumReqStages> open{};
        Tick cursor = blame.begin;
        std::size_t i = 0;
        auto accumulate = [&](Tick upTo) {
            if (upTo <= cursor) return;
            int best = -1;
            for (unsigned s = 0; s < kNumReqStages; ++s) {
                if (open[s] > 0 && (best < 0 || kStageRank[s] > kStageRank[best])) {
                    best = static_cast<int>(s);
                }
            }
            const Tick len = upTo - cursor;
            if (best >= 0) {
                blame.stageTicks[static_cast<std::size_t>(best)] += len;
            } else {
                blame.unattributed += len;
            }
            cursor = upTo;
        };
        while (i < events.size()) {
            accumulate(std::min(events[i].tick, effectiveEnd));
            const Tick t = events[i].tick;
            while (i < events.size() && events[i].tick == t) {
                open[events[i].stage] += events[i].delta;
                ++i;
            }
        }
        accumulate(effectiveEnd);

        for (unsigned s = 0; s < kNumReqStages; ++s) summary.stageTicks[s] += blame.stageTicks[s];
        summary.unattributed += blame.unattributed;
        summary.totalTicks += blame.total();
        summary.roots.push_back(std::move(blame));
    }
    return summary;
}

// ---------------------------------------------------------------- reading --

ReqTraceFile readReqTrace(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open request trace: " + path);

    ReqTraceFile file;
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
            if (!line.isObject() || !line.contains("g5rReqTrace")) {
                throw std::runtime_error(path + ": not a g5r request trace (bad header)");
            }
            file.schema = static_cast<int>(line.at("schema").asInt());
            if (line.contains("run")) file.run = line.at("run").asString();
            sawHeader = true;
            continue;
        }
        if (line.contains("id")) {
            ReqRecord rec;
            rec.id = static_cast<ReqId>(line.at("id").asInt());
            rec.parent = static_cast<ReqId>(line.at("par").asInt());
            rec.kind = line.at("kind").asString();
            rec.beginTick = static_cast<Tick>(line.at("b").asInt());
            rec.endTick = static_cast<Tick>(line.at("e").asInt());
            rec.ended = rec.endTick != 0;
            Tick prevBegin = rec.beginTick;
            for (const exp::Json& triple : line.at("spans").items()) {
                const auto& parts = triple.items();
                const auto stage = static_cast<ReqStage>(parts.at(0).asInt());
                const Tick begin = static_cast<Tick>(static_cast<std::int64_t>(prevBegin) +
                                                     parts.at(1).asInt());
                const Tick dur = static_cast<Tick>(parts.at(2).asInt());
                rec.spans.push_back(ReqSpan{stage, begin, begin + dur});
                prevBegin = begin;
            }
            file.records.push_back(std::move(rec));
        } else if (line.contains("end")) {
            file.endTick = static_cast<Tick>(line.at("end").asInt());
            if (line.contains("requests")) {
                file.declaredRequests = static_cast<std::uint64_t>(line.at("requests").asInt());
            }
        }
    }
    if (!sawHeader) throw std::runtime_error(path + ": empty request trace");
    return file;
}

}  // namespace g5r::obs
