#include "rtl/netlist.hh"

#include <algorithm>
#include <climits>
#include <sstream>

#include "lint/netlist_lint.hh"
#include "sim/parse_number.hh"

namespace g5r::rtl {

int Netlist::indexOf(const std::string& name) const {
    const auto it = byName_.find(name);
    if (it == byName_.end()) throw NetlistError("undefined net: " + name);
    return it->second;
}

Netlist::Netlist(std::string_view source) : graph_(parseNetlistGraph(source)) {
    // Strict mode: any error-severity lint finding (syntax, undriven net,
    // multiple drivers, combinational loop) aborts elaboration. Warnings
    // (floating nets, dead cones, width truncation) are tolerated here and
    // surfaced by the g5r lint tool.
    const lint::Report report = lint::run(graph_);
    if (report.hasErrors()) {
        std::string what;
        for (const auto& d : report.diagnostics()) {
            if (d.severity != lint::Severity::kError) continue;
            if (!what.empty()) what += '\n';
            what += lint::formatDiagnostic(d);
        }
        throw NetlistError(what);
    }

    nodes_.reserve(graph_.nodes.size());
    for (const auto& gn : graph_.nodes) {
        Node node;
        node.op = gn.op;
        node.name = gn.name;
        node.width = gn.width;
        node.init = gn.init;
        for (int s = 0; s < 3; ++s) node.src[s] = gn.src[s];
        if (node.op == Op::kReg) {
            node.value = node.init;
            regIndices_.push_back(static_cast<int>(nodes_.size()));
        }
        // Constants never change; initialize once instead of on every eval().
        if (node.op == Op::kConst) node.value = node.init;
        byName_[node.name] = static_cast<int>(nodes_.size());
        nodes_.push_back(std::move(node));
    }
    for (const auto& out : graph_.outputs) outputs_[out.alias] = out.target;

    // The canonical level schedule is the evaluation order for both modes:
    // the dirty-bit walker only needs *a* topological order, the levelized
    // path wants the level-major one, and sharing it keeps the two modes
    // trivially value-identical. Lint already rejected cycles above.
    sched_ = analysis::levelize(graph_);
    evalOrder_ = sched_.order;
    dirty_.assign(nodes_.size(), 1);  // First eval() computes everything.
}

void Netlist::setInput(const std::string& name, std::uint64_t value) {
    const int idx = indexOf(name);
    Node& node = nodes_[idx];
    if (node.op != Op::kInput) throw NetlistError(name + " is not an input");
    const std::uint64_t masked = value & mask(node);
    if (masked != node.value) {
        node.value = masked;
        dirty_[idx] = 1;
        anyDirty_ = true;
    }
}

std::uint64_t Netlist::output(const std::string& name) const {
    const auto it = outputs_.find(name);
    if (it == outputs_.end()) throw NetlistError("unknown output: " + name);
    return nodes_[it->second].value;
}

std::uint64_t Netlist::probe(const std::string& name) const {
    return nodes_[indexOf(name)].value;
}

int Netlist::probeIndex(const std::string& name) const {
    const auto it = byName_.find(name);
    return it == byName_.end() ? -1 : it->second;
}

std::uint64_t Netlist::computeValue(const Node& node) const {
    const auto a = [&] { return nodes_[node.src[0]].value; };
    const auto b = [&] { return nodes_[node.src[1]].value; };
    // Signed compare honors the *source* nets' declared widths: a 4-bit
    // 0xF is -1, not 15. Zero-extending the masked storage (the old
    // behavior) made lt identical to ltu for every net narrower than
    // 64 bits.
    const auto sext = [&](int operand) {
        const Node& s = nodes_[node.src[operand]];
        if (s.width >= 64) return static_cast<std::int64_t>(s.value);
        const unsigned sh = 64 - s.width;
        return static_cast<std::int64_t>(s.value << sh) >> sh;
    };

    std::uint64_t value = 0;
    switch (node.op) {
    case Op::kNot: value = ~a(); break;
    case Op::kAnd: value = a() & b(); break;
    case Op::kOr: value = a() | b(); break;
    case Op::kXor: value = a() ^ b(); break;
    case Op::kAdd: value = a() + b(); break;
    case Op::kSub: value = a() - b(); break;
    case Op::kLt: value = sext(0) < sext(1) ? 1 : 0; break;
    case Op::kLtu: value = a() < b() ? 1 : 0; break;
    case Op::kEq: value = a() == b() ? 1 : 0; break;
    case Op::kMux:
        value = a() != 0 ? nodes_[node.src[1]].value : nodes_[node.src[2]].value;
        break;
    default: value = node.value; break;
    }
    return value & mask(node);
}

void Netlist::captureRegNext() {
    // Capture reg next-values after combinational settle.
    for (const int r : regIndices_) {
        Node& reg = nodes_[r];
        reg.next = nodes_[reg.src[0]].value & mask(reg);
    }
}

void Netlist::eval() {
    if (evalMode_ == EvalMode::kLevelized) {
        evalLevelized();
    } else {
        evalDirtyBit();
    }
}

void Netlist::evalDirtyBit() {
    lastEvalComputed_ = 0;
    // Quiescent fast path: no input or register changed since the last
    // settle, so every combinational value (and every reg next-value
    // captured then) is still correct.
    if (!anyDirty_) return;

    for (const int i : evalOrder_) {
        Node& node = nodes_[i];
        bool srcChanged = false;
        for (const int s : node.src) {
            if (s >= 0 && dirty_[s] != 0) {
                srcChanged = true;
                break;
            }
        }
        if (!srcChanged) continue;  // Cone is quiet; value still valid.
        ++lastEvalComputed_;

        const std::uint64_t value = computeValue(node);
        // Dirtiness propagates only on an actual change, so a glitch that
        // recomputes to the same value stops the wave there.
        if (value != node.value) {
            node.value = value;
            dirty_[i] = 1;
        }
    }
    captureRegNext();
    std::fill(dirty_.begin(), dirty_.end(), 0);
    anyDirty_ = false;
}

void Netlist::evalLevelized() {
    // Full recompute in the canonical level-major order. Because a node's
    // value is a pure function of its sources and both orders are
    // topological, this settles to exactly the values the dirty-bit path
    // computes — it just never consults (only clears) the dirty state, so
    // the two modes can be switched freely between calls.
    for (const int i : evalOrder_) {
        Node& node = nodes_[i];
        node.value = computeValue(node);
    }
    lastEvalComputed_ = evalOrder_.size();
    captureRegNext();
    std::fill(dirty_.begin(), dirty_.end(), 0);
    anyDirty_ = false;
}

void Netlist::tick() {
    eval();
    for (const int r : regIndices_) {
        Node& reg = nodes_[r];
        if (reg.value != reg.next) {
            reg.value = reg.next;
            dirty_[r] = 1;
            anyDirty_ = true;
        }
    }
}

void Netlist::reset() {
    for (const int r : regIndices_) {
        nodes_[r].value = nodes_[r].init;
        nodes_[r].next = nodes_[r].init;
    }
    // Conservative: recompute the whole netlist on the next eval().
    std::fill(dirty_.begin(), dirty_.end(), 1);
    anyDirty_ = true;
}

// ---------------------------------------------------------------------------

std::string bitonicSorterNetlist(unsigned n, unsigned width) {
    if (n == 0 || (n & (n - 1)) != 0) {
        throw NetlistError("bitonic sorter size must be a power of two");
    }
    std::ostringstream os;
    os << "# bitonic sorting network, n=" << n << " width=" << width << "\n";
    for (unsigned i = 0; i < n; ++i) os << "input in" << i << ' ' << width << "\n";

    // stage wires: w<stage>_<lane>; stage 0 is the inputs.
    std::vector<std::string> cur(n);
    for (unsigned i = 0; i < n; ++i) cur[i] = "in" + std::to_string(i);

    unsigned stage = 0;
    auto compareExchange = [&](unsigned lo, unsigned hi, bool ascending,
                               std::vector<std::string>& next) {
        const std::string a = cur[lo];
        const std::string b = cur[hi];
        const std::string tag = "s" + std::to_string(stage) + "_" + std::to_string(lo);
        // Signed compare: lane data are signed words (the model tests sort
        // negative values), sign-extended from the lane width.
        os << "lt " << tag << "_cmp " << a << ' ' << b << "\n";
        // ascending: lo gets min, hi gets max.
        if (ascending) {
            os << "mux " << tag << "_lo " << tag << "_cmp " << a << ' ' << b << "\n";
            os << "mux " << tag << "_hi " << tag << "_cmp " << b << ' ' << a << "\n";
        } else {
            os << "mux " << tag << "_lo " << tag << "_cmp " << b << ' ' << a << "\n";
            os << "mux " << tag << "_hi " << tag << "_cmp " << a << ' ' << b << "\n";
        }
        next[lo] = tag + "_lo";
        next[hi] = tag + "_hi";
    };

    // Standard bitonic network (ascending overall).
    for (unsigned k = 2; k <= n; k <<= 1) {
        for (unsigned j = k >> 1; j > 0; j >>= 1) {
            std::vector<std::string> next = cur;
            for (unsigned i = 0; i < n; ++i) {
                const unsigned partner = i ^ j;
                if (partner > i) {
                    const bool ascending = (i & k) == 0;
                    compareExchange(i, partner, ascending, next);
                }
            }
            cur = std::move(next);
            ++stage;
        }
    }

    for (unsigned i = 0; i < n; ++i) os << "output out" << i << ' ' << cur[i] << "\n";
    return os.str();
}

unsigned bitonicStages(unsigned n) {
    unsigned log2n = 0;
    while ((1u << log2n) < n) ++log2n;
    return log2n * (log2n + 1) / 2;
}

std::optional<DesignSource> builtinDesign(const std::string& spec, std::string& error) {
    const auto colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    const auto n = colon == std::string::npos
                       ? std::optional<std::uint64_t>{8}
                       : parseUnsigned(std::string_view{spec}.substr(colon + 1), UINT_MAX);
    if (!n) {
        error = "bad builtin size in '" + spec + "'";
        return std::nullopt;
    }
    if (name != "bitonic") {
        error = "unknown builtin '" + name + "' (available: bitonic)";
        return std::nullopt;
    }
    const auto elems = static_cast<unsigned>(*n);
    try {
        return DesignSource{"builtin:bitonic:" + std::to_string(elems),
                            "bitonic_c" + std::to_string(elems), bitonicSorterNetlist(elems),
                            bitonicStages(elems)};
    } catch (const NetlistError& e) {
        error = e.what();
        return std::nullopt;
    }
}

}  // namespace g5r::rtl
