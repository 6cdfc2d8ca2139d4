/**
 * @file
 * Unit tests of the metrics registry: exported views over
 * component-owned storage, owned histograms and their bucketing,
 * the sim-time timeline, and a golden JSON snapshot guarding the
 * byte-stable export format.
 */
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "sim/sim_time.h"

namespace ssdcheck::obs {
namespace {

TEST(Registry, DefaultHandlesAreInertNotCrashes)
{
    Histogram h;
    h.observe(1);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Registry, ExportedViewsReadLiveComponentState)
{
    Registry reg;
    uint64_t served = 0;
    int64_t busyNs = 0;
    uint8_t state = 2;
    reg.exportCounter("served", {{"device", "A"}}, &served);
    reg.exportGauge("busy_ns", {}, &busyNs);
    reg.exportGauge("state", {}, &state);
    served = 41;
    busyNs = -7;
    EXPECT_EQ(reg.value("served", {{"device", "A"}}), 41);
    EXPECT_EQ(reg.value("busy_ns"), -7);
    EXPECT_EQ(reg.value("state"), 2);
    state = 3; // views track the component, no re-export needed
    EXPECT_EQ(reg.value("state"), 3);
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_FALSE(reg.value("served", {{"device", "B"}}).has_value());
    EXPECT_FALSE(reg.value("nope").has_value());
}

TEST(Registry, HistogramBucketsInclusiveUpperBound)
{
    Registry reg;
    Histogram h = reg.histogram("lat", {10, 20});
    h.observe(5);
    h.observe(10); // inclusive: lands in the le=10 bucket
    h.observe(15);
    h.observe(25); // +inf bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 55);
    // value() reports the observation count for histograms.
    EXPECT_EQ(reg.value("lat"), 4);
    const std::string json = reg.toJson(sim::kTimeZero);
    EXPECT_NE(json.find("\"buckets\":[{\"le\":10,\"count\":2},"
                        "{\"le\":20,\"count\":1},"
                        "{\"le\":\"+inf\",\"count\":1}]"),
              std::string::npos)
        << json;
    // Get-or-create: the same name and labels reach the same buckets.
    reg.histogram("lat", {10, 20}).observe(1);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, HistogramQuantileInterpolatesWithinBucket)
{
    // 10 observations spread over two finite buckets + the +inf tail:
    // 4 in (0,100], 4 in (100,200], 2 above.
    HistogramData h;
    h.bounds = {100, 200};
    h.counts = {4, 4, 2};
    h.count = 10;
    // p50 -> rank 5, first observation of the (100,200] bucket.
    EXPECT_EQ(histogramQuantile(h, 500), 100 + 100 * 1 / 4);
    // p95 -> rank 10, the +inf bucket clamps to the last finite bound.
    EXPECT_EQ(histogramQuantile(h, 950), 200);
    EXPECT_EQ(histogramQuantile(h, 999), 200);
    // p1 -> rank 1, first observation of the first bucket.
    EXPECT_EQ(histogramQuantile(h, 10), 100 * 1 / 4);

    HistogramData empty;
    empty.bounds = {100};
    empty.counts = {0, 0};
    EXPECT_EQ(histogramQuantile(empty, 500), 0);
}

TEST(Registry, SnapshotMetricsDeepCopiesInRegistrationOrder)
{
    Registry reg;
    uint64_t reqs = 7;
    reg.exportCounter("reqs", {{"device", "A"}}, &reqs);
    uint64_t served = 3;
    reg.exportCounter("served", {}, &served);
    Histogram h = reg.histogram("lat", {10});
    h.observe(4);

    const std::vector<MetricSnapshot> snap = reg.snapshotMetrics();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "reqs");
    EXPECT_EQ(snap[0].type, MetricSnapshot::Type::Counter);
    EXPECT_EQ(snap[0].value, 7);
    EXPECT_EQ(snap[1].name, "served");
    EXPECT_EQ(snap[1].value, 3);
    EXPECT_EQ(snap[2].type, MetricSnapshot::Type::Histogram);
    EXPECT_EQ(snap[2].hist.count, 1u);
    EXPECT_EQ(snap[2].hist.sum, 4);

    // Deep copy: later registry activity must not leak into the
    // snapshot (the exporter thread reads it lock-free).
    reqs += 100;
    served = 99;
    h.observe(5);
    EXPECT_EQ(snap[0].value, 7);
    EXPECT_EQ(snap[1].value, 3);
    EXPECT_EQ(snap[2].hist.count, 1u);
}

TEST(Registry, TimelineSamplesOnFedSimTime)
{
    Registry reg;
    uint64_t reqs = 0;
    reg.exportCounter("reqs", {}, &reqs);
    reg.enableTimeline(sim::milliseconds(1));
    reg.tick(sim::kTimeZero); // before the first interval: no sample
    EXPECT_EQ(reg.timelineSamples(), 0u);
    reqs += 1;
    reg.tick(sim::kTimeZero + sim::milliseconds(1)); // interval boundary
    reqs += 4;
    reg.tick(sim::kTimeZero + sim::milliseconds(1) + 10); // same window
    reg.tick(sim::kTimeZero + sim::milliseconds(5)); // idle gap: one sample
    EXPECT_EQ(reg.timelineSamples(), 2u);
    const std::string json =
        reg.toJson(sim::kTimeZero + sim::milliseconds(5));
    EXPECT_NE(json.find("\"timeline_interval_ns\":1000000"),
              std::string::npos);
    EXPECT_NE(json.find("{\"time_ns\":1000000,\"values\":[1]}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"time_ns\":5000000,\"values\":[5]}"),
              std::string::npos)
        << json;
}

TEST(Registry, GoldenSnapshotJson)
{
    // Full-snapshot golden: guards name/label/type/value layout and
    // the no-float guarantee. Update deliberately when the format
    // changes — downstream tooling parses this.
    Registry reg;
    uint64_t reqs = 12;
    reg.exportCounter("reqs", {{"device", "A"}, {"volume", "0"}}, &reqs);
    uint64_t served = 99;
    reg.exportCounter("served", {{"device", "A"}}, &served);
    int64_t depth = -3;
    reg.exportGauge("depth", {}, &depth);
    Histogram h = reg.histogram("lat", {100});
    h.observe(50);
    h.observe(500);
    const std::string expected =
        "{\"time_ns\":42,\"metrics\":[\n"
        "{\"name\":\"reqs\",\"labels\":{\"device\":\"A\","
        "\"volume\":\"0\"},\"type\":\"counter\",\"value\":12},\n"
        "{\"name\":\"served\",\"labels\":{\"device\":\"A\"},"
        "\"type\":\"counter\",\"value\":99},\n"
        "{\"name\":\"depth\",\"labels\":{},\"type\":\"gauge\","
        "\"value\":-3},\n"
        "{\"name\":\"lat\",\"labels\":{},\"type\":\"histogram\","
        "\"count\":2,\"sum\":550,"
        "\"p50\":100,\"p95\":100,\"p99\":100,\"p999\":100,\"buckets\":["
        "{\"le\":100,\"count\":1},{\"le\":\"+inf\",\"count\":1}]}\n"
        "]}\n";
    EXPECT_EQ(reg.toJson(sim::SimTime{42}), expected);
}

} // namespace
} // namespace ssdcheck::obs
