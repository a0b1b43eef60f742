#include "obs/reqtrace.hh"

#include <algorithm>
#include <iterator>
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

namespace {

/// The canonical span order: (begin, stage, end).
bool spanLess(const ReqSpan& a, const ReqSpan& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.stage != b.stage) return a.stage < b.stage;
    return a.end < b.end;
}

}  // namespace

void ReqTraceSession::onSpan(ReqId id, ReqStage stage, Tick begin, Tick end) {
    if (id == 0 || end <= begin) return;
    // Spans mostly arrive in canonical order or close behind it (a queue's
    // span is reported when it drains, after younger spans began); they are
    // inserted in place, so the records never need a post-run sort. The
    // search gallops back from the end, so it costs the log of how far back
    // the span goes, not of the record's size.
    std::vector<ReqSpan>& spans = records_[slotFor(id)].spans;
    const ReqSpan span{stage, begin, end};
    auto first = spans.end();
    auto last = first;  // [last, end) all sort after span.
    for (std::ptrdiff_t step = 1; first != spans.begin() && spanLess(span, first[-1]); step *= 2) {
        last = first - 1;
        first -= std::min(step, first - spans.begin());
    }
    spans.insert(std::upper_bound(first, last, span, spanLess), span);
}

void ReqTraceSession::finish(Tick finalTick) {
    if (finished_) return;
    finished_ = true;

    // Spans are already canonical (onSpan); ordering the records by ID
    // erases the last of the callback-arrival order, which is the only
    // host-order dependent thing about the collection, so the serialized
    // sidecar is identical across --jobs counts and idle-tick gating.
    std::sort(records_.begin(), records_.end(),
              [](const ReqRecord& a, const ReqRecord& b) { return a.id < b.id; });

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

/// Blame precedence, highest first: where spans overlap, the earlier stage
/// takes the tick. Ownership first: a tick inside a DMA descriptor's
/// lifetime is staging (or drain) work no matter which downstream queue the
/// bytes sit in, and an RTL read stalled on an SPM miss is an spmFill tick
/// even while the fill occupies DRAM. Below those owners the deepest shared
/// memory resource wins (dramService over xbarQueue), then the catch-all
/// host/compute windows.
constexpr std::array<ReqStage, kNumReqStages> kBlameOrder = {
    ReqStage::kDmaStage,   ReqStage::kDrain,     ReqStage::kSpmFill,
    ReqStage::kDramService, ReqStage::kXbarQueue, ReqStage::kHostLoad,
    ReqStage::kRtlCompute,
};

/// Add @p iv to the cover @p c, whose intervals all begin at or before it.
void extend(Cover& c, Interval iv) {
    if (!c.empty() && iv.begin <= c.back().end) {
        c.back().end = std::max(c.back().end, iv.end);
    } else {
        c.push_back(iv);
    }
}

/// a ∪ b, by a two-pointer merge.
Cover unite(const Cover& a, const Cover& b) {
    Cover out;
    out.reserve(a.size() + b.size());
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() || ib != b.end()) {
        const bool takeA = ib == b.end() || (ia != a.end() && ia->begin <= ib->begin);
        extend(out, takeA ? *ia++ : *ib++);
    }
    return out;
}

/// The union of @p covers, merged pairwise so k covers of n intervals in
/// all cost O(n log k).
Cover uniteAll(std::vector<Cover> covers) {
    if (covers.empty()) return {};
    while (covers.size() > 1) {
        const std::size_t n = covers.size();
        for (std::size_t i = 0; i < n; i += 2) {
            covers[i / 2] = i + 1 < n ? unite(covers[i], covers[i + 1]) : std::move(covers[i]);
        }
        covers.resize((n + 1) / 2);
    }
    return std::move(covers[0]);
}

Tick measure(const Cover& c) {
    Tick sum = 0;
    for (const Interval& iv : c) sum += iv.end - iv.begin;
    return sum;
}

}  // namespace

std::optional<ReqStage> StageCovers::owner(Tick tick) const {
    for (const ReqStage stage : kBlameOrder) {
        const Cover& c = byStage[static_cast<unsigned>(stage)];
        const auto after = std::upper_bound(
            c.begin(), c.end(), tick, [](Tick t, const Interval& iv) { return t < iv.begin; });
        if (after != c.begin() && tick < std::prev(after)->end) return stage;
    }
    return std::nullopt;
}

StageCovers stageCovers(const RequestTree& tree, std::size_t root, Tick begin, Tick end) {
    const auto byBegin = [](const ReqSpan& a, const ReqSpan& b) { return a.begin < b.begin; };
    std::array<std::vector<Cover>, kNumReqStages> parts;  // Per stage: one cover per record.
    std::vector<ReqSpan> sorted;
    for (const std::size_t idx : tree.subtree(root)) {
        const std::vector<ReqSpan>* spans = &tree.records[idx].spans;
        if (!std::is_sorted(spans->begin(), spans->end(), byBegin)) {
            sorted = *spans;
            std::sort(sorted.begin(), sorted.end(), byBegin);
            spans = &sorted;
        }
        std::array<Cover, kNumReqStages> own;
        for (const ReqSpan& span : *spans) {
            const Tick b = std::max(span.begin, begin);
            const Tick e = std::min(span.end, end);
            if (e > b) extend(own[static_cast<unsigned>(span.stage)], Interval{b, e});
        }
        for (unsigned s = 0; s < kNumReqStages; ++s) {
            if (!own[s].empty()) parts[s].push_back(std::move(own[s]));
        }
    }
    StageCovers covers;
    for (unsigned s = 0; s < kNumReqStages; ++s) covers.byStage[s] = uniteAll(std::move(parts[s]));
    return covers;
}

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

        // Claim stages in precedence order: each takes the ticks of its
        // cover that no higher-ranked stage claimed before it, so every tick
        // goes to the highest-ranked stage covering it, and the ticks no
        // span covers are unattributed.
        const StageCovers covers = stageCovers(tree, rootIdx, blame.begin, effectiveEnd);
        Cover claimed;
        Tick claimedTicks = 0;
        for (const ReqStage stage : kBlameOrder) {
            const Cover& c = covers.byStage[static_cast<unsigned>(stage)];
            if (c.empty()) continue;
            claimed = unite(claimed, c);
            const Tick now = measure(claimed);
            blame.stageTicks[static_cast<unsigned>(stage)] = now - claimedTicks;
            claimedTicks = now;
        }
        const Tick window = effectiveEnd > blame.begin ? effectiveEnd - blame.begin : 0;
        blame.unattributed = window - claimedTicks;

        for (unsigned s = 0; s < kNumReqStages; ++s) summary.stageTicks[s] += blame.stageTicks[s];
        summary.unattributed += blame.unattributed;
        summary.totalTicks += blame.total();
        summary.roots.push_back(std::move(blame));
    }
    return summary;
}

// ---------------------------------------------------------------- reading --

ReqTraceFile parseReqTrace(const std::string& text, const std::string& source) {
    std::istringstream in{text};
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
            err << source << ":" << lineNo << ": bad JSONL line: " << e.what();
            throw std::runtime_error(err.str());
        }
        if (!sawHeader) {
            if (!line.isObject() || !line.contains("g5rReqTrace")) {
                throw std::runtime_error(source + ": not a g5r request trace (bad header)");
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
                const std::int64_t stage = parts.at(0).asInt();
                if (stage < 0 || stage >= static_cast<std::int64_t>(kNumReqStages)) {
                    throw std::runtime_error(source + ":" + std::to_string(lineNo) +
                                             ": bad stage index " + std::to_string(stage));
                }
                const Tick begin = static_cast<Tick>(static_cast<std::int64_t>(prevBegin) +
                                                     parts.at(1).asInt());
                const Tick dur = static_cast<Tick>(parts.at(2).asInt());
                rec.spans.push_back(ReqSpan{static_cast<ReqStage>(stage), begin, begin + dur});
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
    if (!sawHeader) throw std::runtime_error(source + ": empty request trace");
    return file;
}

ReqTraceFile readReqTrace(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open request trace: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseReqTrace(text.str(), path);
}

}  // namespace g5r::obs
