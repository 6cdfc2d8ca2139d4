/**
 * @file
 * Resume-equivalence property test for the checkpoint/restore
 * subsystem: a fault-heavy accuracy run checkpointed at every k-th
 * request and resumed in a fresh stack must finish with bit-identical
 * final snapshot bytes, identical metrics JSON, identical virtual end
 * time and identical accuracy counters — the determinism contract the
 * chaos soak harness (tools/soak) relies on.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "recovery/invariants.h"
#include "recovery/run_state.h"
#include "recovery/snapshot.h"

namespace ssdcheck::recovery {
namespace {

/** Fault-heavy, supervised run small enough for a unit test. */
RunParams
propParams()
{
    RunParams p;
    p.device = "A";
    p.faults = "hostile";
    p.workload = "RW Mixed";
    p.scale = 0.004;
    p.supervisor = true;
    return p;
}

struct GoldenRun
{
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> snapshots;
    std::vector<uint8_t> finalBytes;
    std::string finalMetrics;
    sim::SimTime finalNow;
    core::AccuracyResult finalAcc;
    uint64_t traceSize = 0;
};

/** One uninterrupted run, checkpointing every @p stride requests. */
GoldenRun
runGolden(const RunParams &params, uint64_t stride)
{
    GoldenRun g;
    std::string err;
    auto run = CheckpointableRun::create(params, false, &err);
    EXPECT_NE(run, nullptr) << err;
    if (!run)
        return g;
    g.traceSize = run->trace().size();
    while (!run->done()) {
        run->step();
        if (!run->done() && run->cursor() % stride == 0)
            g.snapshots.emplace_back(run->cursor(),
                                     run->checkpoint().serialize());
    }
    EXPECT_TRUE(checkInvariants(*run).empty());
    g.finalBytes = run->checkpoint().serialize();
    g.finalMetrics = run->metricsJson();
    g.finalNow = run->now();
    g.finalAcc = run->accuracy();
    return g;
}

TEST(RecoveryRoundtripTest, ResumeAtEveryStrideIsBitIdentical)
{
    const RunParams params = propParams();
    const uint64_t stride = 97; // prime: hits uneven resume points
    const GoldenRun golden = runGolden(params, stride);
    ASSERT_FALSE(golden.snapshots.empty());
    ASSERT_GT(golden.traceSize, 3 * stride)
        << "trace too small to exercise multiple resume points";

    for (const auto &[k, bytes] : golden.snapshots) {
        SCOPED_TRACE("resume at request " + std::to_string(k));
        Snapshot snap;
        std::string detail;
        ASSERT_EQ(snap.parse(bytes, &detail), LoadError::Ok) << detail;
        EXPECT_EQ(snap.requestIndex(), k);

        std::string err;
        auto resumed = CheckpointableRun::create(params, true, &err);
        ASSERT_NE(resumed, nullptr) << err;
        ASSERT_EQ(resumed->restore(snap, &detail), LoadError::Ok) << detail;
        EXPECT_EQ(resumed->cursor(), k);

        const auto violations = checkInvariants(*resumed);
        EXPECT_TRUE(violations.empty())
            << "first violation: "
            << (violations.empty() ? "" : violations.front());

        while (!resumed->done())
            resumed->step();

        EXPECT_EQ(resumed->checkpoint().serialize(), golden.finalBytes)
            << "final snapshot bytes differ from the uninterrupted run";
        EXPECT_EQ(resumed->metricsJson(), golden.finalMetrics);
        EXPECT_EQ(resumed->now(), golden.finalNow);
        EXPECT_EQ(resumed->accuracy().nlTotal, golden.finalAcc.nlTotal);
        EXPECT_EQ(resumed->accuracy().nlCorrect, golden.finalAcc.nlCorrect);
        EXPECT_EQ(resumed->accuracy().hlTotal, golden.finalAcc.hlTotal);
        EXPECT_EQ(resumed->accuracy().hlCorrect, golden.finalAcc.hlCorrect);
        EXPECT_EQ(resumed->accuracy().faulted, golden.finalAcc.faulted);
    }
}

TEST(RecoveryRoundtripTest, ChainedResumesStayBitIdentical)
{
    // Kill-and-resume repeatedly (what the soak does across processes,
    // here in-process): checkpoint, rebuild from bytes, continue.
    const RunParams params = propParams();
    std::string err;
    auto golden = CheckpointableRun::create(params, false, &err);
    ASSERT_NE(golden, nullptr) << err;
    const uint64_t traceSize = golden->trace().size();
    while (!golden->done())
        golden->step();
    const std::vector<uint8_t> goldenFinal =
        golden->checkpoint().serialize();

    auto run = CheckpointableRun::create(params, false, &err);
    ASSERT_NE(run, nullptr) << err;
    const uint64_t hop = traceSize / 7 + 1;
    uint64_t target = hop;
    while (!run->done()) {
        run->step();
        if (run->cursor() >= target && !run->done()) {
            const std::vector<uint8_t> bytes =
                run->checkpoint().serialize();
            Snapshot snap;
            ASSERT_EQ(snap.parse(bytes), LoadError::Ok);
            auto next = CheckpointableRun::create(params, true, &err);
            ASSERT_NE(next, nullptr) << err;
            std::string detail;
            ASSERT_EQ(next->restore(snap, &detail), LoadError::Ok)
                << detail;
            run = std::move(next);
            target += hop;
        }
    }
    EXPECT_EQ(run->checkpoint().serialize(), goldenFinal);
}

TEST(RecoveryRoundtripTest, ConfigMismatchIsRefusedWithDetail)
{
    RunParams params = propParams();
    params.scale = 0.002; // keep this variant quick
    std::string err;
    auto run = CheckpointableRun::create(params, false, &err);
    ASSERT_NE(run, nullptr) << err;
    for (int i = 0; i < 10; ++i)
        run->step();
    const std::vector<uint8_t> bytes = run->checkpoint().serialize();
    Snapshot snap;
    ASSERT_EQ(snap.parse(bytes), LoadError::Ok);

    RunParams other = params;
    other.scale = 0.003;
    auto resumed = CheckpointableRun::create(other, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    std::string detail;
    EXPECT_EQ(resumed->restore(snap, &detail), LoadError::ConfigMismatch);
    // The message names this run's canonical config so the operator
    // can see what to change (or pass --force).
    EXPECT_NE(detail.find("different run configuration"), std::string::npos);
    EXPECT_NE(detail.find(other.canonical()), std::string::npos);
}

TEST(RecoveryRoundtripTest, MissingSectionIsTypedError)
{
    RunParams params = propParams();
    params.scale = 0.002;
    params.supervisor = false;
    std::string err;
    auto run = CheckpointableRun::create(params, false, &err);
    ASSERT_NE(run, nullptr) << err;
    for (int i = 0; i < 5; ++i)
        run->step();
    const Snapshot full = run->checkpoint();

    // Rebuild the container without the registry section.
    Snapshot stripped;
    stripped.begin(full.configHash(), full.requestIndex(),
                   full.simTimeNs());
    for (const SectionId id :
         {SectionId::Device, SectionId::Model, SectionId::Resilient,
          SectionId::Accuracy, SectionId::RunParams}) {
        const std::vector<uint8_t> *payload = full.section(id);
        ASSERT_NE(payload, nullptr);
        stripped.addSection(id, *payload);
    }
    Snapshot reparsed;
    ASSERT_EQ(reparsed.parse(stripped.serialize()), LoadError::Ok);

    auto resumed = CheckpointableRun::create(params, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    std::string detail;
    EXPECT_EQ(resumed->restore(reparsed, &detail),
              LoadError::MissingSection);
    EXPECT_NE(detail.find("registry"), std::string::npos);
}

TEST(RecoveryRoundtripTest, SupervisorSectionRejectedWithoutSupervisor)
{
    RunParams withSup = propParams();
    withSup.scale = 0.002;
    std::string err;
    auto run = CheckpointableRun::create(withSup, false, &err);
    ASSERT_NE(run, nullptr) << err;
    for (int i = 0; i < 5; ++i)
        run->step();
    Snapshot snap;
    ASSERT_EQ(snap.parse(run->checkpoint().serialize()), LoadError::Ok);

    RunParams noSup = withSup;
    noSup.supervisor = false;
    auto resumed = CheckpointableRun::create(noSup, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    // forceConfig=true to get past the (correct) hash refusal and
    // prove the structural check still catches the mismatch.
    std::string detail;
    EXPECT_EQ(resumed->restore(snap, &detail, /*forceConfig=*/true),
              LoadError::Malformed);
    EXPECT_NE(detail.find("supervisor"), std::string::npos);
}

TEST(RunStackTest, ScaleCheckRejectsNonFiniteAndOutOfRange)
{
    // The check alone: a stack is never built on a non-finite scale.
    for (const double bad :
         {std::nan(""), std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), 0.0, -0.5, 1.5})
        EXPECT_FALSE(scaleError(bad).empty()) << bad;
    EXPECT_TRUE(scaleError(1.0).empty());
    EXPECT_TRUE(scaleError(0.002).empty());

    RunParams p = propParams();
    p.scale = 1.5;
    std::string err;
    EXPECT_EQ(CheckpointableRun::create(p, false, &err), nullptr);
    EXPECT_NE(err.find("scale"), std::string::npos) << err;
}

TEST(RunStackTest, SupervisorWithoutModelIsASpecError)
{
    RunSpec spec;
    spec.scale = 0.002;
    spec.model = false;
    spec.supervisor = true;
    std::string err;
    EXPECT_EQ(RunStack::build(spec, false, &err), nullptr);
    EXPECT_NE(err.find("model"), std::string::npos) << err;
}

TEST(RunStackTest, ModelFreeOpenLoopStackResumesBitIdentically)
{
    // The chaos-shard shape: no model, a (disabled) policy layer, open
    // arrivals. The hedge hint is then the last ok latency, and the
    // invariant check must not expect recall counters.
    RunSpec spec;
    spec.device = "C";
    spec.deviceSeed = 7;
    ssd::faultProfileByName("storms", &spec.faults);
    spec.scale = 0.002;
    spec.policy = resilience::ResiliencePolicy{};
    spec.model = false;
    spec.pacing = Pacing::Open;
    spec.arrivalPeriod = sim::microseconds(80);
    std::string err;
    auto golden = RunStack::build(spec, false, &err);
    ASSERT_NE(golden, nullptr) << err;
    auto first = RunStack::build(spec, false, &err);
    ASSERT_NE(first, nullptr) << err;
    while (first->cursor() < golden->trace().size() / 2)
        first->step();
    const Snapshot snap = first->snapshot(42);
    EXPECT_EQ(snap.section(SectionId::Model), nullptr);
    EXPECT_EQ(snap.section(SectionId::Accuracy), nullptr);

    auto resumed = RunStack::build(spec, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    std::string detail;
    ASSERT_EQ(resumed->restoreSections(snap, &detail), LoadError::Ok)
        << detail;
    while (!golden->done())
        golden->step();
    while (!resumed->done())
        resumed->step();
    EXPECT_EQ(resumed->snapshot(42).serialize(),
              golden->snapshot(42).serialize());
    EXPECT_EQ(resumed->accuracy().nlTotal + resumed->accuracy().hlTotal, 0u);
    const auto violations = checkInvariants(*resumed);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front());
}

} // namespace
} // namespace ssdcheck::recovery
