#include "exp/bench_report.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

namespace g5r::exp {
namespace {

std::string utcTimestamp() {
    const std::time_t now =
        std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::string hostName() {
    char buf[256] = {};
    if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
    return buf;
}

}  // namespace

Json benchDocument(std::string_view benchName, unsigned jobs) {
    Json doc = Json::object();
    doc["schema"] = 3;
    doc["bench"] = benchName;
    doc["jobs"] = jobs;

    Json host = Json::object();
    host["name"] = hostName();
    host["threads"] = std::thread::hardware_concurrency();
#ifdef __VERSION__
    host["compiler"] = __VERSION__;
#endif
    host["timestampUtc"] = utcTimestamp();
    doc["host"] = std::move(host);

    const char* full = std::getenv("GEM5RTL_FULL");
    doc["fullScale"] = full != nullptr && full[0] != '0';
    doc["points"] = Json::array();
    return doc;
}

std::string benchOutputPath(std::string_view filename) {
    if (const char* dir = std::getenv("GEM5RTL_BENCH_DIR")) {
        if (dir[0] != '\0') return std::string{dir} + "/" + std::string{filename};
    }
    return std::string{filename};
}

std::string writeBenchJson(std::string_view filename, const Json& doc) {
    const std::string path = benchOutputPath(filename);
    std::ofstream out{path};
    if (!out) {
        std::fprintf(stderr, "error: could not open %s for writing\n", path.c_str());
        return "";
    }
    out << doc.dump(2);
    if (!out.good()) {
        std::fprintf(stderr, "error: write to %s failed\n", path.c_str());
        return "";
    }
    return path;
}

}  // namespace g5r::exp
