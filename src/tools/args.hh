// The one command-line grammar of the g5r front end.
//
// Every subcommand (g5r lint, netlistc, diff, stats, critpath) declares its
// options and usage text as a Command and gets back an Args: its option
// occurrences and positionals in command-line order. The parser owns the
// exit contract, so no subcommand repeats it:
//   * --help / -h prints the usage to stdout and exits 0;
//   * an unknown option, a missing value, a value given to a flag, or a
//     positional count out of range prints a message plus the usage to
//     stderr and exits 2;
//   * --opt=value and --opt value are the same; an Arity::kOptional option
//     (--waterfall[=N]) takes a value only through '=';
//   * numeric values are read whole (sim/parse_number.hh); a malformed one
//     exits 2 as "bad <opt> value '<text>'".
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/parse_number.hh"

namespace g5r::tools {

enum class Arity { kFlag, kValue, kOptional };

struct Option {
    std::string_view name;
    Arity arity = Arity::kFlag;
};

struct Command {
    std::string tool;        ///< Message prefix, e.g. "g5r lint".
    std::string_view usage;  ///< Full usage text, ending in a newline.
    std::vector<Option> options;
    std::size_t minPositionals = 0;
    std::size_t maxPositionals = std::numeric_limits<std::size_t>::max();
};

/// One option occurrence (option != "") or positional argument.
struct Arg {
    std::string_view option;
    std::optional<std::string> value;
};

struct Args {
    const Command* cmd;
    std::vector<Arg> items;  ///< Command-line order.
    /// Set when parsing already decided the run: 0 after --help, 2 after a
    /// usage error (both reported). The subcommand returns it at once.
    std::optional<int> exit;

    bool has(std::string_view option) const;
    /// Value of the last occurrence of @p option (nullopt: absent or bare).
    std::optional<std::string> value(std::string_view option) const;
    std::vector<std::string> positionals() const;

    /// Read @p option's value into @p out (left as is when absent or bare)
    /// through parseUnsigned, range-checked against T. False once reported.
    template <typename T>
    bool readUnsigned(std::string_view option, T& out) const {
        const auto text = value(option);
        if (!text) return true;
        const auto n = parseUnsigned(*text, std::numeric_limits<T>::max());
        if (!n) {
            bad(option, *text);
            return false;
        }
        out = static_cast<T>(*n);
        return true;
    }
    /// As readUnsigned, through parseNonNegative.
    bool readNonNegative(std::string_view option, double& out) const;

    /// Report "<tool>: bad <option> value '<text>'"; returns 2.
    int bad(std::string_view option, std::string_view text) const;
    /// Report "<tool>: <message>" (if any) plus the usage on stderr; returns 2.
    int usageError(std::string_view message) const;
};

/// Parse argv[1, argc) against @p cmd (argv[0] names the subcommand).
Args parseArgs(const Command& cmd, int argc, const char* const* argv);

/// The whole contents of the regular file @p path. Anything else (missing,
/// a directory, unreadable) is reported on stderr as "<tool>: ..." and
/// yields nullopt; callers exit 2.
std::optional<std::string> readInputFile(std::string_view tool, const std::string& path);

}  // namespace g5r::tools
