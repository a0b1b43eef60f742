// Driving the host toolchain: netlist source -> generated C++ -> model .so.
//
// This is the moral equivalent of the paper's GHDL invocation: a one-shot
// native compile producing a shared library the simulator dlopen()s through
// the stable C ABI. The simulator itself never links any of it — only
// g5r netlistc (and the conformance tests) run the compiler.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "rtl/codegen/codegen.hh"

namespace g5r::rtl::codegen {

struct CompileOptions {
    /// C++ compiler to invoke. Empty: $CXX, falling back to "c++".
    std::string cxx;

    /// Extra flags appended to the base set (e.g. -fsanitize=... so a
    /// sanitizer-instrumented test binary loads an instrumented model).
    std::vector<std::string> extraFlags;

    /// Keep the generated .cc next to the .so instead of deleting it.
    bool keepSource = false;
};

/// The compiler command line that would be run (testing/--verbose).
std::string compileCommand(const CompileOptions& opts, const std::string& srcPath,
                           const std::string& soPath);

/// Emit @p netlist with @p cgOpts, write the source next to @p soPath
/// (<soPath>.cc), and compile it into @p soPath. On failure returns false
/// and fills @p error with the compiler/tool diagnostics. Throws nothing.
bool compileNetlistModel(const Netlist& netlist, const CodegenOptions& cgOpts,
                         const CompileOptions& opts, const std::string& soPath,
                         std::string* error, CodegenStats* stats = nullptr);

/// Strict-elaborate @p source first (NetlistError text lands in @p error
/// instead of being thrown), then compile as above.
bool compileNetlistModelFromSource(std::string_view source,
                                   const CodegenOptions& cgOpts,
                                   const CompileOptions& opts,
                                   const std::string& soPath, std::string* error,
                                   CodegenStats* stats = nullptr);

}  // namespace g5r::rtl::codegen
