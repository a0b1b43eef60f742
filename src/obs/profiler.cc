#include "obs/profiler.hh"

#include <algorithm>
#include <cstdio>

#include "exp/json.hh"

namespace g5r::obs {

int HostProfiler::addSlot(std::string name, HostLayer layer) {
    slots_.push_back(Slot{std::move(name), layer, 0, 0, 0.0});
    return static_cast<int>(slots_.size() - 1);
}

ProfileReport HostProfiler::report() const {
    ProfileReport rep;
    rep.runSeconds = runSeconds_;
    rep.stride = stride_;
    for (const Slot& s : slots_) {
        rep.dispatches += s.dispatches;
        if (s.dispatches == 0) continue;
        ProfileEntry e;
        e.name = s.name;
        e.layer = s.layer;
        e.dispatches = s.dispatches;
        e.sampled = s.sampled;
        e.sampledSeconds = s.seconds;
        e.estimatedSeconds =
            s.sampled ? s.seconds * static_cast<double>(s.dispatches) /
                            static_cast<double>(s.sampled)
                      : 0.0;
        rep.entries.push_back(std::move(e));
    }
    std::sort(rep.entries.begin(), rep.entries.end(),
              [](const ProfileEntry& a, const ProfileEntry& b) {
                  if (a.estimatedSeconds != b.estimatedSeconds) {
                      return a.estimatedSeconds > b.estimatedSeconds;
                  }
                  return a.name < b.name;  // Deterministic ties.
              });
    return rep;
}

std::vector<ProfileBucket> ProfileReport::buckets() const {
    // Fixed order so reports diff cleanly run to run; the first four are
    // indexed by HostLayer.
    std::vector<ProfileBucket> out = {
        {"rtl", 0.0, 0.0}, {"memory", 0.0, 0.0}, {"core", 0.0, 0.0},
        {"other", 0.0, 0.0}, {"queue", 0.0, 0.0}};
    double attributed = 0.0;
    for (const ProfileEntry& e : entries) {
        out[static_cast<std::size_t>(e.layer)].seconds += e.estimatedSeconds;
        attributed += e.estimatedSeconds;
    }
    // Remainder: the event loop itself plus sampling skew. Clamped at zero
    // because stride scaling can legitimately over-estimate slightly.
    out.back().seconds = std::max(0.0, runSeconds - attributed);
    for (ProfileBucket& b : out) {
        b.fraction = runSeconds > 0.0 ? b.seconds / runSeconds : 0.0;
    }
    return out;
}

std::string ProfileReport::table() const {
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "host profile: %.6f s over %llu dispatches (stride %u)\n",
                  runSeconds, static_cast<unsigned long long>(dispatches), stride);
    out += buf;
    for (const ProfileBucket& b : buckets()) {
        std::snprintf(buf, sizeof buf, "  %-8s %10.6f s  %5.1f%%\n", b.name.c_str(),
                      b.seconds, 100.0 * b.fraction);
        out += buf;
    }
    for (const ProfileEntry& e : entries) {
        std::snprintf(buf, sizeof buf, "  %-40s %10.6f s  %10llu dispatches\n",
                      e.name.c_str(), e.estimatedSeconds,
                      static_cast<unsigned long long>(e.dispatches));
        out += buf;
    }
    return out;
}

exp::Json ProfileReport::toJson() const {
    exp::Json doc = exp::Json::object();
    doc["runSeconds"] = runSeconds;
    doc["dispatches"] = dispatches;
    doc["stride"] = static_cast<std::uint64_t>(stride);
    exp::Json bucketObj = exp::Json::object();
    for (const ProfileBucket& b : buckets()) {
        exp::Json one = exp::Json::object();
        one["seconds"] = b.seconds;
        one["fraction"] = b.fraction;
        bucketObj[b.name] = std::move(one);
    }
    doc["buckets"] = std::move(bucketObj);
    exp::Json objects = exp::Json::array();
    for (const ProfileEntry& e : entries) {
        exp::Json one = exp::Json::object();
        one["name"] = e.name;
        one["dispatches"] = e.dispatches;
        one["sampled"] = e.sampled;
        one["estimatedSeconds"] = e.estimatedSeconds;
        objects.push(std::move(one));
    }
    doc["objects"] = std::move(objects);
    return doc;
}

}  // namespace g5r::obs
