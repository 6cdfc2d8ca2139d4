/**
 * @file
 * The shard-progress telemetry of the two sharded run loops, grid and
 * chaos campaign, checked end to end through a TelemetryHub at jobs 1
 * and jobs 4:
 *   - one publish per shard plus the final one;
 *   - the final /runz and /metrics bodies, pinned byte for byte;
 *   - grid cells and chaos digests equal to a run with no hub.
 * Also the one RunStatus builder, recovery::RunStack::status, that
 * `run` publishes and chaos shards report, pinned with and without a
 * policy layer and supervisor.
 *
 * Part of perf_tests, which the TSan CI job runs: the jobs-4 cases
 * race real shards through the shared publisher.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "obs/exporter/telemetry.h"
#include "perf/grid.h"
#include "recovery/run_state.h"
#include "resilience/chaos.h"
#include "ssd/presets.h"
#include "workload/snia_synth.h"

namespace ssdcheck {
namespace {

/** 2 models x 2 workloads at 1% scale: two shards of two cells. */
perf::GridSpec
gridSpec()
{
    perf::GridSpec s;
    s.models = {ssd::SsdModel::A, ssd::SsdModel::D};
    s.workloads = {workload::SniaWorkload::TPCE,
                   workload::SniaWorkload::RwMixed};
    s.scale = 0.01;
    return s;
}

/** Two seeds at 1% scale; a UNC storm trips the strict breaker,
 *  which sheds. */
resilience::ChaosScenario
chaosScenario()
{
    resilience::ChaosScenario sc;
    std::string err;
    EXPECT_TRUE(resilience::ChaosScenario::parse("name publish\n"
                                                 "device A\n"
                                                 "workload RW Mixed\n"
                                                 "scale 0.01\n"
                                                 "seeds 1 2\n"
                                                 "pacing closed\n"
                                                 "unc-probability 0.005\n"
                                                 "unc-hard-fraction 1.0\n"
                                                 "phase 1500 1560 1.0 "
                                                 "0.000001 200 1\n"
                                                 "policy strict\n"
                                                 "breaker-window 64\n"
                                                 "breaker-threshold 0.15\n"
                                                 "breaker-min-samples 8\n"
                                                 "breaker-cooldown-ms 2\n",
                                                 &sc, &err))
        << err;
    return sc;
}

// The final ("done") snapshots. cursor/total count shards; the grid
// reports the last cell's end time, chaos the campaign's shed total.
const char kGridRunz[] =
    "{\"sequence\":3,\"phase\":\"done\",\"cursor\":2,"
    "\"total_requests\":2,\"sim_time_ns\":142986608118,\"checkpoints\":0,"
    "\"breaker_state\":0,\"ladder_level\":0,\"shed_total\":0,"
    "\"error_budget_ppm\":0,\"supervisor_state\":0,\"healthy\":true,"
    "\"metrics\":2}\n";
const char kGridMetrics[] =
    "# HELP ssdcheck_grid_shards_done ssdcheck registry metric.\n"
    "# TYPE ssdcheck_grid_shards_done counter\n"
    "ssdcheck_grid_shards_done 2\n"
    "# HELP ssdcheck_grid_requests_done ssdcheck registry metric.\n"
    "# TYPE ssdcheck_grid_requests_done counter\n"
    "ssdcheck_grid_requests_done 46000\n";
const char kChaosRunz[] =
    "{\"sequence\":3,\"phase\":\"done\",\"cursor\":2,"
    "\"total_requests\":2,\"sim_time_ns\":0,\"checkpoints\":0,"
    "\"breaker_state\":0,\"ladder_level\":0,\"shed_total\":11729,"
    "\"error_budget_ppm\":0,\"supervisor_state\":0,\"healthy\":true,"
    "\"metrics\":3}\n";
const char kChaosMetrics[] =
    "# HELP ssdcheck_chaos_shards_done ssdcheck registry metric.\n"
    "# TYPE ssdcheck_chaos_shards_done counter\n"
    "ssdcheck_chaos_shards_done 2\n"
    "# HELP ssdcheck_chaos_completed_ok ssdcheck registry metric.\n"
    "# TYPE ssdcheck_chaos_completed_ok counter\n"
    "ssdcheck_chaos_completed_ok 8249\n"
    "# HELP ssdcheck_chaos_shed_total ssdcheck registry metric.\n"
    "# TYPE ssdcheck_chaos_shed_total counter\n"
    "ssdcheck_chaos_shed_total 11729\n";

class GridPublishTest : public testing::TestWithParam<unsigned>
{
};

TEST_P(GridPublishTest, FinalSnapshotPinnedAndCellsUnchanged)
{
    perf::GridSpec spec = gridSpec();
    obs::TelemetryHub hub;
    spec.telemetry = &hub;
    const perf::GridResult published = perf::runGrid(spec, GetParam());
    spec.telemetry = nullptr;
    const perf::GridResult plain = perf::runGrid(spec, GetParam());

    const auto snap = hub.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(hub.sequence(), 2u + 1u);
    EXPECT_EQ(obs::renderRunz(*snap), kGridRunz);
    EXPECT_EQ(obs::renderPrometheus(*snap), kGridMetrics);

    ASSERT_EQ(published.cells.size(), 4u);
    ASSERT_EQ(plain.cells.size(), published.cells.size());
    for (size_t i = 0; i < plain.cells.size(); ++i) {
        const perf::GridCell &a = published.cells[i];
        const perf::GridCell &b = plain.cells[i];
        EXPECT_EQ(a.requests, b.requests) << "cell " << i;
        EXPECT_EQ(a.simEnd, b.simEnd) << "cell " << i;
        EXPECT_EQ(a.accuracy.nlCorrect, b.accuracy.nlCorrect) << "cell " << i;
        EXPECT_EQ(a.accuracy.nlTotal, b.accuracy.nlTotal) << "cell " << i;
        EXPECT_EQ(a.accuracy.hlCorrect, b.accuracy.hlCorrect) << "cell " << i;
        EXPECT_EQ(a.accuracy.hlTotal, b.accuracy.hlTotal) << "cell " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, GridPublishTest, testing::Values(1u, 4u));

class ChaosPublishTest : public testing::TestWithParam<unsigned>
{
};

TEST_P(ChaosPublishTest, FinalSnapshotPinnedAndDigestsUnchanged)
{
    const resilience::ChaosScenario sc = chaosScenario();
    obs::TelemetryHub hub;
    const resilience::ChaosCampaignResult published =
        resilience::runChaosCampaign(sc, GetParam(), &hub);
    const resilience::ChaosCampaignResult plain =
        resilience::runChaosCampaign(sc, GetParam());

    const auto snap = hub.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(hub.sequence(), 2u + 1u);
    EXPECT_EQ(obs::renderRunz(*snap), kChaosRunz);
    EXPECT_EQ(obs::renderPrometheus(*snap), kChaosMetrics);

    ASSERT_EQ(published.shards.size(), 2u);
    ASSERT_EQ(plain.shards.size(), published.shards.size());
    EXPECT_EQ(published.campaignDigest, plain.campaignDigest);
    EXPECT_EQ(published.pass, plain.pass);
    for (size_t i = 0; i < plain.shards.size(); ++i) {
        EXPECT_EQ(published.shards[i].digest, plain.shards[i].digest);
        EXPECT_EQ(published.shards[i].completedOk,
                  plain.shards[i].completedOk);
        EXPECT_EQ(published.shards[i].shed, plain.shards[i].shed);
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ChaosPublishTest, testing::Values(1u, 4u));

/** /runz of @p st as a hub publishes it (sequence 1, no metrics). */
std::string
runzOf(const obs::RunStatus &st)
{
    obs::Registry reg;
    obs::TelemetryHub hub;
    hub.publish(reg, st);
    return obs::renderRunz(*hub.snapshot());
}

/** @p params built fresh and stepped to request @p cursor. */
std::unique_ptr<recovery::CheckpointableRun>
runTo(const recovery::RunParams &params, uint64_t cursor)
{
    std::string err;
    auto run = recovery::CheckpointableRun::create(params, false, &err);
    EXPECT_NE(run, nullptr) << err;
    while (run != nullptr && run->cursor() < cursor)
        run->step();
    return run;
}

TEST(RunStackStatusTest, PlainStackReportsProgressOnly)
{
    recovery::RunParams params;
    params.scale = 0.01;
    const auto run = runTo(params, 2000);
    ASSERT_NE(run, nullptr);
    const obs::RunStatus st = run->status("run");
    EXPECT_EQ(st.cursor, 2000u);
    EXPECT_EQ(st.totalRequests, run->trace().size());
    EXPECT_EQ(st.simTimeNs, run->now().ns());
    EXPECT_EQ(runzOf(st),
              "{\"sequence\":1,\"phase\":\"run\",\"cursor\":2000,"
              "\"total_requests\":10000,\"sim_time_ns\":150924121276,"
              "\"checkpoints\":0,\"breaker_state\":0,\"ladder_level\":0,"
              "\"shed_total\":0,\"error_budget_ppm\":0,"
              "\"supervisor_state\":0,\"healthy\":true,\"metrics\":0}\n");
}

TEST(RunStackStatusTest, PolicyAndSupervisorFillTheirFields)
{
    recovery::RunParams params;
    params.scale = 0.01;
    params.faults = "hostile";
    params.resilience = "strict";
    params.supervisor = true;
    const auto run = runTo(params, 2000);
    ASSERT_NE(run, nullptr);
    const obs::RunStatus st = run->status("run");
    const resilience::PolicyDevice *p = run->policyPtr();
    ASSERT_NE(p, nullptr);
    ASSERT_NE(run->supervisorPtr(), nullptr);
    EXPECT_EQ(st.breakerState, static_cast<uint8_t>(p->breakerState()));
    EXPECT_EQ(st.ladderLevel, static_cast<uint8_t>(p->ladderLevel()));
    EXPECT_EQ(st.shedTotal, p->counters().shedTotal());
    EXPECT_EQ(static_cast<int64_t>(st.errorBudgetPpm), p->errorBudgetPpm());
    EXPECT_EQ(st.supervisorState,
              static_cast<uint8_t>(run->supervisorPtr()->state()));
    // At request 2000 the ladder has turned hedging off (level 1), the
    // error budget is spent and the supervisor is re-diagnosing (3).
    EXPECT_EQ(runzOf(st),
              "{\"sequence\":1,\"phase\":\"run\",\"cursor\":2000,"
              "\"total_requests\":10000,\"sim_time_ns\":151214295893,"
              "\"checkpoints\":0,\"breaker_state\":0,\"ladder_level\":1,"
              "\"shed_total\":0,\"error_budget_ppm\":1000000,"
              "\"supervisor_state\":3,\"healthy\":true,\"metrics\":0}\n");
}

} // namespace
} // namespace ssdcheck
