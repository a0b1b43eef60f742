#include "rtl/codegen/codegen.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "rtl/analysis/cones.hh"
#include "rtl/analysis/const_prop.hh"
#include "rtl/device_regmap.hh"

namespace g5r::rtl::codegen {
namespace {

std::uint64_t maskFor(unsigned width) {
    return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

std::string hex(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxULL",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// C string literal for @p s: arbitrary bytes are legal net names (the
/// tolerant parser only splits on whitespace), so escape everything that is
/// not plainly printable.
std::string cstr(const std::string& s) {
    std::string out = "\"";
    for (const unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c >= 0x20 && c < 0x7F) {
            out += static_cast<char>(c);
        } else {
            char buf[8];
            // Close and reopen the literal so a following hex digit can't
            // extend the escape ("\x01" "2", not "\x012").
            std::snprintf(buf, sizeof buf, "\\x%02x\" \"", c);
            out += buf;
        }
    }
    out += '"';
    return out;
}

std::string slot(int node) { return "v[" + std::to_string(node) + "]"; }

/// Operand of a signed compare: sign-extended from the *source* net's
/// declared width, exactly like the interpreter's computeValue(). @p opnd is
/// the already-resolved reference (local or v[] slot).
std::string sext(const NetlistGraph& g, int src, const std::string& opnd) {
    if (g.nodes[src].width >= 64) {
        return "static_cast<int64_t>(" + opnd + ")";
    }
    const unsigned sh = 64 - g.nodes[src].width;
    return "(static_cast<int64_t>(" + opnd + " << " + std::to_string(sh) +
           ") >> " + std::to_string(sh) + ")";
}

/// The pure C declarations the generated translation unit needs. Emitted
/// verbatim so the .so is self-contained: it mirrors bridge/rtl_api.h (ABI
/// v2) and rtl/codegen/netlist_kernel.h (ABI v1) field for field — any
/// drift is caught immediately by the conformance tests, which drive the
/// library through the real headers.
constexpr const char* kAbiDecls = R"(
extern "C" {

/* --- mirror of bridge/rtl_api.h (ABI v2) ------------------------------- */
#define G5R_RTL_ABI_VERSION 2u
#define G5R_RTL_MAX_MEM_REQ 8u
#define G5R_RTL_MEM_DATA_BYTES 64u
#define G5R_RTL_NUM_EVENT_LINES 32u

typedef struct G5rRtlMemReq {
    uint64_t id;
    uint64_t addr;
    uint8_t write;
    uint8_t port;
    uint16_t size;
    uint8_t data[G5R_RTL_MEM_DATA_BYTES];
} G5rRtlMemReq;

typedef struct G5rRtlInput {
    uint8_t dev_valid;
    uint8_t dev_write;
    uint64_t dev_addr;
    uint64_t dev_wdata;
    uint8_t mem_resp_valid;
    uint64_t mem_resp_id;
    uint8_t mem_resp_data[G5R_RTL_MEM_DATA_BYTES];
    uint32_t mem_req_credits;
    uint32_t events[G5R_RTL_NUM_EVENT_LINES];
} G5rRtlInput;

typedef struct G5rRtlOutput {
    uint8_t dev_ready;
    uint8_t dev_resp_valid;
    uint64_t dev_rdata;
    uint32_t mem_req_count;
    G5rRtlMemReq mem_req[G5R_RTL_MAX_MEM_REQ];
    uint8_t irq;
    uint8_t done;
    uint8_t idle_hint;
} G5rRtlOutput;

typedef struct G5rRtlModelApi {
    uint32_t abi_version;
    const char* name;
    void* (*create)(const char* config);
    void (*destroy)(void* model);
    void (*reset)(void* model);
    void (*tick)(void* model, const G5rRtlInput* in, G5rRtlOutput* out);
    int (*trace_start)(void* model, const char* vcd_path);
    void (*trace_stop)(void* model);
} G5rRtlModelApi;

/* --- mirror of rtl/codegen/netlist_kernel.h (ABI v1) ------------------- */
#define G5R_NETLIST_KERNEL_ABI_VERSION 1u

typedef struct G5rNetlistKernelApi {
    uint32_t abi_version;
    const char* name;
    uint32_t num_inputs;
    uint32_t num_outputs;
    const char* const* input_names;
    const uint32_t* input_widths;
    const char* const* output_names;
    const uint32_t* output_widths;
    void* (*create)(void);
    void (*destroy)(void* kernel);
    void (*reset)(void* kernel);
    void (*set_input)(void* kernel, uint32_t index, uint64_t value);
    void (*eval)(void* kernel);
    void (*tick)(void* kernel);
    uint64_t (*get_output)(void* kernel, uint32_t index);
} G5rNetlistKernelApi;

}  /* extern "C" */
)";

}  // namespace

std::string emitCompiledModel(const Netlist& netlist, const CodegenOptions& opts,
                              CodegenStats* statsOut) {
    const NetlistGraph& g = netlist.graph();
    const analysis::LevelSchedule& sched = netlist.schedule();
    const analysis::ConstProp cp = analysis::propagateConstants(g, sched);
    const analysis::DuplicateCones dup = analysis::findDuplicateCones(g, sched);

    CodegenStats stats;
    stats.combNodes = sched.order.size();
    stats.depth = sched.depth();

    const int numNodes = static_cast<int>(g.nodes.size());

    // Per node: the canonical member of its verified identical-cone class
    // (or itself). Copying from the canonical slot is safe because class
    // members share one level and levels are emitted ascending-index within
    // a level, so the canonical (smallest-index) member is computed first.
    std::vector<int> canonical(numNodes);
    for (int i = 0; i < numNodes; ++i) canonical[i] = i;
    for (const auto& cls : dup.classes) {
        for (const int member : cls.nodes) canonical[member] = cls.nodes[0];
    }

    std::vector<int> inputNodes, regNodes;
    for (int i = 0; i < numNodes; ++i) {
        if (g.nodes[i].op == NetOp::kInput) inputNodes.push_back(i);
        if (g.nodes[i].op == NetOp::kReg) regNodes.push_back(i);
    }
    stats.inputs = inputNodes.size();
    stats.regs = regNodes.size();
    stats.outputs = g.outputs.size();

    const unsigned latency =
        opts.deviceLatency > 0 ? opts.deviceLatency : std::max(1u, sched.depth());

    std::ostringstream os;
    os << "// Generated by g5r netlistc from " << opts.sourceLabel << ".\n"
       << "// Compiled netlist model \"" << opts.modelName << "\": "
       << numNodes << " net(s), " << stats.combNodes
       << " combinational, depth " << stats.depth << ", " << stats.regs
       << " reg(s). DO NOT EDIT.\n"
       << "#include <stdint.h>\n"
       << "#include <string.h>\n"
       << kAbiDecls
       << "\nnamespace {\n\n"
       << "constexpr uint32_t kNumNodes = " << numNodes << ";\n"
       << "constexpr uint32_t kNumInputs = " << inputNodes.size() << ";\n"
       << "constexpr uint32_t kNumOutputs = " << g.outputs.size() << ";\n"
       << "constexpr uint32_t kNumRegs = " << regNodes.size() << ";\n"
       << "constexpr uint32_t kDeviceLatency = " << latency << ";\n"
       << std::hex << std::showbase
       << "constexpr uint64_t kInputBase = " << regmap::kInputBase << ";\n"
       << "constexpr uint64_t kOutputBase = " << regmap::kOutputBase << ";\n"
       << "constexpr uint64_t kControlReg = " << regmap::kControl << ";\n"
       << "constexpr uint64_t kStatusReg = " << regmap::kStatus << ";\n"
       << "constexpr uint64_t kCountReg = " << regmap::kCount << ";\n"
       << "constexpr uint64_t kOffsetMask = " << regmap::kOffsetMask << ";\n\n"
       << std::dec << std::noshowbase;

    // --- the kernel: packed state + level-block eval functions -----------
    os << "struct Kernel {\n"
       << "    uint64_t v[kNumNodes];\n";
    if (!regNodes.empty()) os << "    uint64_t regNext[kNumRegs];\n";
    os << "    void reset();\n"
       << "    void eval();\n"
       << "    void tick();\n";

    // Emission order: level-major with a greedy readiness chase. The
    // canonical schedule's level-major walk keeps independent nodes adjacent
    // (instruction-level parallelism in the generated straight line); the
    // chase — whenever a node is emitted, any consumer whose operands all
    // just became available is emitted immediately after — keeps short-lived
    // intermediates (a compare feeding its muxes) inside the host compiler's
    // register window instead of spilling a whole level of them. The result
    // is still a topological order (a node is only ever emitted once every
    // dependency is), so it computes exactly what the canonical schedule
    // computes; dedup members depend on their canonical node, so the copy
    // source is always emitted first.
    const auto emits = [&](int i) {
        return !netOpIsSource(g.nodes[i].op) && !cp.range[i].constant();
    };
    std::vector<int> emitOrder;
    {
        std::vector<std::vector<int>> consumers(numNodes);
        std::vector<int> depRemaining(numNodes, 0);
        for (const int i : sched.order) {
            if (!emits(i)) continue;
            const auto addDep = [&](int d) {
                if (d >= 0 && emits(d)) {
                    consumers[d].push_back(i);
                    ++depRemaining[i];
                }
            };
            if (canonical[i] != i) {
                addDep(canonical[i]);
            } else {
                for (const int s : g.nodes[i].src) addDep(s);
            }
        }
        // Chase at most one consumer hop: deeper descendants wait for the
        // level-major main loop, otherwise the chase degenerates into a
        // depth-first walk of the whole circuit and the generated code loses
        // the level's instruction-level parallelism again.
        std::vector<char> done(numNodes, 0);
        std::vector<int> chase;
        for (const int seed : sched.order) {
            if (!emits(seed) || done[seed] != 0 || depRemaining[seed] > 0) {
                continue;
            }
            done[seed] = 1;
            emitOrder.push_back(seed);
            for (const int c : consumers[seed]) {
                if (--depRemaining[c] == 0) chase.push_back(c);
            }
            for (const int n : chase) {
                done[n] = 1;
                emitOrder.push_back(n);
                for (const int c : consumers[n]) --depRemaining[c];
            }
            chase.clear();
        }
    }
    for (const int i : sched.order) {
        // Proven-constant nets: initialized once in reset(), no per-eval
        // work at all.
        if (!netOpIsSource(g.nodes[i].op) && cp.range[i].constant()) {
            ++stats.constFolded;
        }
    }

    // Partition the emission order into basic-block functions: since the
    // order is topological and the blocks run in sequence, any cut is safe.
    std::vector<std::vector<int>> blockNodes;
    {
        std::vector<int> current;
        const std::size_t budget = opts.blockBudget == 0 ? 256 : opts.blockBudget;
        for (const int i : emitOrder) {
            current.push_back(i);
            if (current.size() >= budget) {
                blockNodes.push_back(std::move(current));
                current.clear();
            }
        }
        if (!current.empty()) blockNodes.push_back(std::move(current));
    }
    stats.levelBlocks = blockNodes.size();

    std::vector<int> blockOf(numNodes, -1);
    for (std::size_t b = 0; b < blockNodes.size(); ++b) {
        for (const int i : blockNodes[b]) blockOf[i] = static_cast<int>(b);
    }

    // Escape analysis: an emitted net whose every reader sits in the same
    // block never needs its v[] slot — it becomes a block-local uint64_t the
    // host compiler can keep in a register. Readers outside any block (the
    // output table, regNext capture, the device wrapper) pin the net to the
    // array, as does any cross-block consumer. Sources, constants, and
    // folded nets always live in v[].
    std::vector<char> isLocal(numNodes, 0);
    for (const auto& blk : blockNodes) {
        for (const int i : blk) isLocal[i] = 1;
    }
    const auto pinIfCrossBlock = [&](int x, int readerBlock) {
        if (x >= 0 && blockOf[x] != readerBlock) isLocal[x] = 0;
    };
    for (std::size_t b = 0; b < blockNodes.size(); ++b) {
        const int rb = static_cast<int>(b);
        for (const int i : blockNodes[b]) {
            if (canonical[i] != i) {
                pinIfCrossBlock(canonical[i], rb);
            } else {
                for (const int s : g.nodes[i].src) pinIfCrossBlock(s, rb);
            }
        }
    }
    for (const int r : regNodes) pinIfCrossBlock(g.nodes[r].src[0], -1);
    for (const auto& out : g.outputs) pinIfCrossBlock(out.target, -1);
    for (int i = 0; i < numNodes; ++i) {
        if (isLocal[i]) ++stats.localsPromoted;
    }

    // Resolved reference to net @p x from inside block @p blk.
    const auto ref = [&](int x, int blk) {
        return (isLocal[x] && blockOf[x] == blk) ? "n" + std::to_string(x)
                                                 : slot(x);
    };

    struct Stmt {
        int node;
        std::string text;
    };
    std::vector<std::vector<Stmt>> blocks(blockNodes.size());
    for (std::size_t b = 0; b < blockNodes.size(); ++b) {
        const int rb = static_cast<int>(b);
        for (const int i : blockNodes[b]) {
            const auto& node = g.nodes[i];
            const std::uint64_t m = maskFor(node.width);
            const int level = sched.levelOf[i];
            const std::string lhs =
                isLocal[i] ? "const uint64_t n" + std::to_string(i) : slot(i);

            std::string stmt;
            if (canonical[i] != i) {
                stmt = lhs + " = " + ref(canonical[i], rb) + ";";
                ++stats.dedupReused;
            } else {
                const int a = node.src[0], b2 = node.src[1], c = node.src[2];
                const auto ra = [&] { return ref(a, rb); };
                const auto rbx = [&] { return ref(b2, rb); };
                std::string expr;
                bool boolExpr = false;
                switch (node.op) {
                case NetOp::kNot: expr = "~" + ra(); break;
                case NetOp::kAnd: expr = ra() + " & " + rbx(); break;
                case NetOp::kOr: expr = ra() + " | " + rbx(); break;
                case NetOp::kXor: expr = ra() + " ^ " + rbx(); break;
                case NetOp::kAdd: expr = ra() + " + " + rbx(); break;
                case NetOp::kSub: expr = ra() + " - " + rbx(); break;
                case NetOp::kLt:
                    expr = sext(g, a, ra()) + " < " + sext(g, b2, rbx());
                    boolExpr = true;
                    break;
                case NetOp::kLtu:
                    expr = ra() + " < " + rbx();
                    boolExpr = true;
                    break;
                case NetOp::kEq:
                    expr = ra() + " == " + rbx();
                    boolExpr = true;
                    break;
                case NetOp::kMux: {
                    // Branchless select. A ternary here tempts the host
                    // compiler into conditional branches (it balks at
                    // if-converting the paired swap pattern), and data-
                    // dependent selects mispredict half the time; the
                    // xor-mask form is straight-line for any stimulus. The
                    // !=0 normalization drops when const prop bounds the
                    // select to [0,1] (every compare does).
                    const std::string sel =
                        cp.range[a].hi <= 1
                            ? ra()
                            : "static_cast<uint64_t>(" + ra() + " != 0)";
                    const std::string el = ref(c, rb);
                    expr = el + " ^ ((" + rbx() + " ^ " + el + ") & (0 - " +
                           sel + "))";
                    break;
                }
                default: continue;  // Sources never reach the block list.
                }
                if (boolExpr) {
                    // Compares carry [0,1]: never wider than any mask.
                    stmt = lhs + " = (" + expr + ") ? 1u : 0u;";
                    ++stats.masksSkipped;
                } else if (node.width < 64 && cp.preMask[i].hi > m) {
                    stmt = lhs + " = (" + expr + ") & " + hex(m) + ";";
                    ++stats.masksApplied;
                } else {
                    // Width-64 net, or const prop proved the pre-mask value
                    // already fits: masking folded away.
                    stmt = lhs + " = " + expr + ";";
                    ++stats.masksSkipped;
                }
                ++stats.emittedExprs;
            }
            stmt += "  // L" + std::to_string(level) + ' ' + node.name;
            blocks[b].push_back(Stmt{i, std::move(stmt)});
        }
    }

    for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
        os << "    void block" << blk << "();\n";
    }
    os << "};\n\n";

    // reset(): zero everything, then the once-only values — constants, reg
    // init values, and every comb net const prop proved can hold exactly
    // one value.
    os << "void Kernel::reset() {\n"
       << "    memset(v, 0, sizeof v);\n";
    if (!regNodes.empty()) os << "    memset(regNext, 0, sizeof regNext);\n";
    for (int i = 0; i < numNodes; ++i) {
        const auto& node = g.nodes[i];
        if (node.op == NetOp::kConst) {
            os << "    " << slot(i) << " = " << hex(node.init & maskFor(node.width))
               << ";  // const " << node.name << '\n';
        }
    }
    for (std::size_t j = 0; j < regNodes.size(); ++j) {
        const auto& node = g.nodes[regNodes[j]];
        const std::string init = hex(node.init & maskFor(node.width));
        os << "    " << slot(regNodes[j]) << " = " << init << ";  // reg "
           << node.name << '\n'
           << "    regNext[" << j << "] = " << init << ";\n";
    }
    for (const int i : sched.order) {
        if (!cp.range[i].constant() || netOpIsSource(g.nodes[i].op)) continue;
        os << "    " << slot(i) << " = " << hex(cp.range[i].lo)
           << ";  // const-folded " << g.nodes[i].name << '\n';
    }
    os << "}\n\n";

    for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
        os << "void Kernel::block" << blk << "() {\n";
        for (const Stmt& s : blocks[blk]) os << "    " << s.text << '\n';
        os << "}\n\n";
    }

    os << "void Kernel::eval() {\n";
    for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
        os << "    block" << blk << "();\n";
    }
    // Capture reg next-values after combinational settle, like the
    // interpreter's captureRegNext(). The mask folds away when the data
    // input provably fits the register's width.
    for (std::size_t j = 0; j < regNodes.size(); ++j) {
        const auto& node = g.nodes[regNodes[j]];
        const int src = node.src[0];
        const std::uint64_t m = maskFor(node.width);
        os << "    regNext[" << j << "] = " << slot(src);
        if (node.width < 64 && cp.range[src].hi > m) os << " & " << hex(m);
        os << ";  // reg " << node.name << " <- " << g.nodes[src].name << '\n';
    }
    os << "}\n\n"
       << "void Kernel::tick() {\n"
       << "    eval();\n";
    for (std::size_t j = 0; j < regNodes.size(); ++j) {
        os << "    " << slot(regNodes[j]) << " = regNext[" << j << "];\n";
    }
    os << "}\n\n";

    // --- static name/width/mask tables for the kernel ABI ----------------
    // Always emitted (with one dummy entry when the set is empty) so the
    // wrapper and API code below compile for input-less / output-less
    // netlists; the num_* counts keep callers out of the dummy slot.
    const auto emitTable = [&](const char* type, const char* name,
                               std::vector<std::string> items,
                               const char* dummy) {
        if (items.empty()) items.push_back(dummy);
        os << type << ' ' << name << "[] = {";
        for (std::size_t i = 0; i < items.size(); ++i) {
            os << (i == 0 ? "" : ", ") << items[i];
        }
        os << "};\n";
    };

    std::vector<std::string> inNames, inWidths, inNodes, inMasks;
    for (const int i : inputNodes) {
        inNames.push_back(cstr(g.nodes[i].name));
        inWidths.push_back(std::to_string(g.nodes[i].width) + 'u');
        inNodes.push_back(std::to_string(i) + 'u');
        inMasks.push_back(hex(maskFor(g.nodes[i].width)));
    }
    std::vector<std::string> outNames, outWidths, outNodes;
    for (const auto& out : g.outputs) {
        outNames.push_back(cstr(out.alias));
        outWidths.push_back(std::to_string(g.nodes[out.target].width) + 'u');
        outNodes.push_back(std::to_string(out.target) + 'u');
    }
    emitTable("const char* const", "kInputNames", inNames, "\"\"");
    emitTable("const uint32_t", "kInputWidths", inWidths, "0u");
    emitTable("const uint32_t", "kInputNode", inNodes, "0u");
    emitTable("const uint64_t", "kInputMask", inMasks, "0u");
    emitTable("const char* const", "kOutputNames", outNames, "\"\"");
    emitTable("const uint32_t", "kOutputWidths", outWidths, "0u");
    emitTable("const uint32_t", "kOutputNode", outNodes, "0u");

    // --- kernel ABI ------------------------------------------------------
    os << R"(
void* kernelCreate(void) {
    Kernel* k = new Kernel;
    k->reset();
    return k;
}
void kernelDestroy(void* p) { delete static_cast<Kernel*>(p); }
void kernelReset(void* p) { static_cast<Kernel*>(p)->reset(); }
void kernelSetInput(void* p, uint32_t index, uint64_t value) {
    if (index >= kNumInputs) return;
    static_cast<Kernel*>(p)->v[kInputNode[index]] = value & kInputMask[index];
}
void kernelEval(void* p) { static_cast<Kernel*>(p)->eval(); }
void kernelTick(void* p) { static_cast<Kernel*>(p)->tick(); }
uint64_t kernelGetOutput(void* p, uint32_t index) {
    if (index >= kNumOutputs) return 0;
    return static_cast<Kernel*>(p)->v[kOutputNode[index]];
}
)";
    os << "\nconst G5rNetlistKernelApi kKernelApi = {\n"
       << "    G5R_NETLIST_KERNEL_ABI_VERSION,\n"
       << "    " << cstr(opts.modelName) << ",\n"
       << "    kNumInputs, kNumOutputs,\n"
       << "    kInputNames, kInputWidths,\n"
       << "    kOutputNames, kOutputWidths,\n"
       << "    kernelCreate, kernelDestroy, kernelReset,\n"
       << "    kernelSetInput, kernelEval, kernelTick,\n"
       << "    kernelGetOutput,\n};\n";

    // --- the rtl_api.h device wrapper ------------------------------------
    // Register map: rtl/device_regmap.hh, emitted as the constants above.
    // A start written to kControlReg raises busy for kDeviceLatency cycles.
    os << R"(
struct Model {
    Kernel kernel;
    uint64_t inputs[kNumInputs ? kNumInputs : 1];
    uint64_t outputs[kNumOutputs ? kNumOutputs : 1];
    uint32_t busyCycles;
    uint8_t done;
    uint8_t readPending;
    uint64_t readAddr;
};

void modelReset(Model* m) {
    m->kernel.reset();
    memset(m->inputs, 0, sizeof m->inputs);
    memset(m->outputs, 0, sizeof m->outputs);
    m->busyCycles = 0;
    m->done = 0;
    m->readPending = 0;
    m->readAddr = 0;
}

void* apiCreate(const char* /*config: n and eval mode are baked in*/) {
    Model* m = new Model;
    modelReset(m);
    return m;
}
void apiDestroy(void* p) { delete static_cast<Model*>(p); }
void apiReset(void* p) { modelReset(static_cast<Model*>(p)); }

uint64_t readReg(const Model* m, uint64_t addr) {
    const uint64_t off = addr & kOffsetMask;
    if (off - kOutputBase < 8ull * kNumOutputs) {
        return m->outputs[(off - kOutputBase) / 8];
    }
    if (off == kStatusReg) {
        return (m->busyCycles > 0 ? 1u : 0u) | (m->done ? 2u : 0u);
    }
    if (off == kCountReg) return kNumInputs;
    return 0;
}

void writeReg(Model* m, uint64_t addr, uint64_t data) {
    const uint64_t off = addr & kOffsetMask;
    if (off - kInputBase < 8ull * kNumInputs) {
        m->inputs[(off - kInputBase) / 8] = data;
    } else if (off == kControlReg && (data & 1) != 0) {
        m->busyCycles = kDeviceLatency;
        m->done = 0;
    }
}

void apiTick(void* p, const G5rRtlInput* in, G5rRtlOutput* out) {
    Model* m = static_cast<Model*>(p);
    memset(out, 0, sizeof *out);

    if (m->readPending) {
        out->dev_resp_valid = 1;
        out->dev_rdata = readReg(m, m->readAddr);
        m->readPending = 0;
    }

    if (in->dev_valid != 0) {
        out->dev_ready = 1;
        if (in->dev_write != 0) {
            writeReg(m, in->dev_addr, in->dev_wdata);
        } else {
            m->readPending = 1;
            m->readAddr = in->dev_addr;
        }
    }

    if (m->busyCycles > 0) {
        if (--m->busyCycles == 0) {
            for (uint32_t i = 0; i < kNumInputs; ++i) {
                m->kernel.v[kInputNode[i]] = m->inputs[i] & kInputMask[i];
            }
            m->kernel.eval();
            for (uint32_t i = 0; i < kNumOutputs; ++i) {
                m->outputs[i] = m->kernel.v[kOutputNode[i]];
            }
            m->done = 1;
        }
    }

    out->irq = m->done ? 1 : 0;
    out->done = m->done ? 1 : 0;
    /* Quiescent whenever the compute pipeline is drained and no CSB read
     * awaits its reply beat: with stable inputs nothing changes. Compiled
     * models never trace, so there is no capture clause. */
    out->idle_hint = (m->busyCycles == 0 && !m->readPending) ? 1 : 0;
}

int apiTraceStart(void*, const char*) { return 1; /* no waveform support */ }
void apiTraceStop(void*) {}

const G5rRtlModelApi kModelApi = {
    G5R_RTL_ABI_VERSION,
)";
    os << "    " << cstr(opts.modelName) << ",\n";
    os << R"(    apiCreate, apiDestroy, apiReset, apiTick,
    apiTraceStart, apiTraceStop,
};

}  // namespace

extern "C" const G5rRtlModelApi* g5r_rtl_get_api(void) { return &kModelApi; }
extern "C" const G5rNetlistKernelApi* g5r_netlist_kernel_get_api(void) {
    return &kKernelApi;
}
)";

    if (statsOut != nullptr) *statsOut = stats;
    return os.str();
}

std::string emitCompiledModelFromSource(std::string_view source,
                                        const CodegenOptions& opts,
                                        CodegenStats* stats) {
    const Netlist netlist{source};  // Strict elaboration; throws NetlistError.
    return emitCompiledModel(netlist, opts, stats);
}

}  // namespace g5r::rtl::codegen
