#include "exp/json.hh"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/bench_report.hh"

namespace g5r::exp {
namespace {

TEST(Json, ScalarsRoundTrip) {
    EXPECT_EQ(Json::parse("null").kind(), Json::Kind::kNull);
    EXPECT_TRUE(Json::parse("true").asBool());
    EXPECT_FALSE(Json::parse("false").asBool());
    EXPECT_EQ(Json::parse("42").asInt(), 42);
    EXPECT_EQ(Json::parse("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(Json::parse("3.25").asDouble(), 3.25);
    EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, LargeTickValuesStayExact) {
    const std::uint64_t ticks = 2'000'000'000'000ULL;
    Json j{ticks};
    EXPECT_EQ(j.dump(), "2000000000000");
    EXPECT_EQ(Json::parse(j.dump()).asInt(), static_cast<std::int64_t>(ticks));
}

TEST(Json, StringsEscapeAndUnescape) {
    Json j{std::string{"a\"b\\c\nd\te"}};
    const std::string text = j.dump();
    EXPECT_EQ(Json::parse(text).asString(), "a\"b\\c\nd\te");
    EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
    Json doc = Json::object();
    doc["zebra"] = 1;
    doc["alpha"] = 2;
    doc["mid"] = 3;
    const std::string text = doc.dump();
    EXPECT_LT(text.find("zebra"), text.find("alpha"));
    EXPECT_LT(text.find("alpha"), text.find("mid"));

    const Json back = Json::parse(text);
    ASSERT_EQ(back.members().size(), 3u);
    EXPECT_EQ(back.members()[0].first, "zebra");
    EXPECT_EQ(back.at("mid").asInt(), 3);
}

TEST(Json, NestedDocumentRoundTrips) {
    Json doc = Json::object();
    doc["schema"] = 1;
    doc["name"] = "fig6";
    Json point = Json::object();
    point["runtimeTicks"] = std::uint64_t{123456789};
    point["normalizedPerf"] = 0.937;
    point["checksumOk"] = true;
    doc["points"].push(std::move(point));
    doc["points"].push(Json::object());

    for (const int indent : {0, 2}) {
        const Json back = Json::parse(doc.dump(indent));
        EXPECT_EQ(back.at("schema").asInt(), 1);
        EXPECT_EQ(back.at("name").asString(), "fig6");
        ASSERT_EQ(back.at("points").items().size(), 2u);
        const Json& p = back.at("points").items()[0];
        EXPECT_EQ(p.at("runtimeTicks").asInt(), 123456789);
        EXPECT_DOUBLE_EQ(p.at("normalizedPerf").asDouble(), 0.937);
        EXPECT_TRUE(p.at("checksumOk").asBool());
    }
}

TEST(Json, ParseRejectsMalformedInput) {
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("tru"), std::runtime_error);
    EXPECT_THROW(Json::parse("01a"), std::runtime_error);
}

TEST(Json, TypeErrorsThrowNotCrash) {
    const Json j{42};
    EXPECT_THROW(j.asString(), std::runtime_error);
    EXPECT_THROW(j.items(), std::runtime_error);
    EXPECT_THROW(Json::object().at("missing"), std::runtime_error);
}

TEST(BenchReport, DocumentCarriesRequiredMetadata) {
    const Json doc = benchDocument("unit-test", 4);
    EXPECT_EQ(doc.at("schema").asInt(), 3);
    EXPECT_EQ(doc.at("bench").asString(), "unit-test");
    EXPECT_EQ(doc.at("jobs").asInt(), 4);
    EXPECT_TRUE(doc.contains("host"));
    EXPECT_GE(doc.at("host").at("threads").asInt(), 0);
    EXPECT_TRUE(doc.at("host").contains("timestampUtc"));
    EXPECT_TRUE(doc.contains("fullScale"));
    EXPECT_TRUE(doc.at("points").isArray());

    // The whole skeleton round-trips through the parser.
    const Json back = Json::parse(doc.dump(2));
    EXPECT_EQ(back.at("bench").asString(), "unit-test");
}

TEST(BenchReport, Schema2PercentilePointRoundTrips) {
    // The schema-2 point shape: per-suffix latency objects carry
    // p50Ticks/p99Ticks and the point carries SoC-wide memLatencyP50/P99.
    Json doc = benchDocument("fig7", 2);
    Json point = Json::object();
    point["memTech"] = "hbm";
    point["maxInflight"] = 64u;
    point["runtimeTicks"] = std::uint64_t{987654321};
    Json lat = Json::object();
    Json one = Json::object();
    one["count"] = std::uint64_t{100000};
    one["minTicks"] = 1500.0;
    one["meanTicks"] = 23456.5;
    one["maxTicks"] = 901234.0;
    one["p50Ticks"] = 21504.0;
    one["p99Ticks"] = 114688.0;
    lat["nvdla0.dbbif"] = std::move(one);
    point["memLatency"] = std::move(lat);
    point["memLatencyP50"] = 21504.0;
    point["memLatencyP99"] = 114688.0;
    doc["points"].push(std::move(point));

    for (const int indent : {0, 2}) {
        const Json back = Json::parse(doc.dump(indent));
        EXPECT_EQ(back.at("schema").asInt(), 3);
        const Json& p = back.at("points").items()[0];
        EXPECT_DOUBLE_EQ(p.at("memLatencyP50").asDouble(), 21504.0);
        EXPECT_DOUBLE_EQ(p.at("memLatencyP99").asDouble(), 114688.0);
        const Json& l = p.at("memLatency").at("nvdla0.dbbif");
        EXPECT_EQ(l.at("count").asInt(), 100000);
        EXPECT_DOUBLE_EQ(l.at("p50Ticks").asDouble(), 21504.0);
        EXPECT_DOUBLE_EQ(l.at("p99Ticks").asDouble(), 114688.0);
        // Percentiles are ordered and bracketed by min/max.
        EXPECT_LE(l.at("minTicks").asDouble(), l.at("p50Ticks").asDouble());
        EXPECT_LE(l.at("p50Ticks").asDouble(), l.at("p99Ticks").asDouble());
        EXPECT_LE(l.at("p99Ticks").asDouble(), l.at("maxTicks").asDouble());
    }
}

}  // namespace
}  // namespace g5r::exp
