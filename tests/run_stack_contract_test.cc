/**
 * @file
 * Behaviour pins for the QD1 host run stack, held across commits.
 *
 * The other determinism tests compare two runs of one build (resume
 * vs uninterrupted, --jobs 1 vs --jobs 4). These compare one build
 * against numbers recorded from an earlier one, so a refactor of how
 * the stack is built, stepped or checkpointed cannot change what it
 * computes without failing here:
 *   - the campaign digests of the committed examples/chaos scenarios;
 *   - the FNV-1a of CheckpointableRun snapshot bytes, at every 64th
 *     request and at the end, for a plain and a fully stacked run;
 *   - the FNV-1a of the SSDTRBIN, Chrome JSON and audit JSONL bytes
 *     that `ssdcheck trace` writes;
 *   - `ssdcheck accuracy` and `ssdcheck run` agreeing on accuracy,
 *     end time and metrics JSON for the same configuration.
 *
 * Build wiring provides:
 *   SSDCHECK_CLI_BIN       absolute path of the ssdcheck CLI binary
 *   SSDCHECK_EXAMPLES_DIR  absolute path of examples/
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "recovery/run_state.h"
#include "resilience/chaos.h"

namespace ssdcheck {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Run the CLI; returns its exit status and captures stdout+stderr. */
int
runCli(const std::string &args, std::string *out)
{
    const std::string cmd =
        std::string(SSDCHECK_CLI_BIN) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (pipe == nullptr)
        return -1;
    char buf[512];
    std::ostringstream os;
    while (fgets(buf, sizeof buf, pipe) != nullptr)
        os << buf;
    *out = os.str();
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The lines of @p text that start with @p prefix, in order. */
std::string
linesStartingWith(const std::string &text, const std::string &prefix)
{
    std::istringstream in(text);
    std::string line;
    std::string picked;
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            picked += line + "\n";
    return picked;
}

/** A private scratch path for this test process. */
std::string
scratchPath(const std::string &name)
{
    return testing::TempDir() + "/run_stack_contract_" +
           std::to_string(getpid()) + "_" + name;
}

TEST(RunStackContract, ChaosExampleCampaignDigestsArePinned)
{
    const struct
    {
        const char *file;
        const char *digest;
    } pins[] = {
        {"burst-unc.chaos", "35215d1edb9dd24e"},
        {"drift-overload.chaos", "f42cbb9ed713cb01"},
        {"stall-storm.chaos", "3662fdd727225171"},
    };
    for (const auto &pin : pins) {
        SCOPED_TRACE(pin.file);
        const std::string text = readFile(
            std::string(SSDCHECK_EXAMPLES_DIR) + "/chaos/" + pin.file);
        resilience::ChaosScenario sc;
        std::string err;
        ASSERT_TRUE(resilience::ChaosScenario::parse(text, &sc, &err))
            << err;
        const resilience::ChaosCampaignResult res =
            resilience::runChaosCampaign(sc, 1);
        ASSERT_TRUE(res.error.empty()) << res.error;
        EXPECT_TRUE(res.pass);
        EXPECT_EQ(hex(res.campaignDigest), pin.digest);
    }
}

/** FNV-1a over every 64th checkpoint and the final one, plus the
 *  final bytes' own FNV-1a. */
struct SnapshotPins
{
    std::string everyCursor;
    std::string final;
};

SnapshotPins
snapshotPins(const recovery::RunParams &params)
{
    std::string err;
    auto run = recovery::CheckpointableRun::create(params, false, &err);
    EXPECT_NE(run, nullptr) << err;
    if (!run)
        return {};
    std::string all;
    while (!run->done()) {
        run->step();
        if (run->cursor() % 64 == 0) {
            const std::vector<uint8_t> b = run->checkpoint().serialize();
            all.append(b.begin(), b.end());
        }
    }
    const std::vector<uint8_t> b = run->checkpoint().serialize();
    all.append(b.begin(), b.end());
    return {hex(recovery::fnv1a(all)),
            hex(recovery::fnv1a(std::string(b.begin(), b.end())))};
}

TEST(RunStackContract, PlainRunSnapshotBytesArePinned)
{
    recovery::RunParams p;
    p.device = "A";
    p.scale = 0.003;
    const SnapshotPins pins = snapshotPins(p);
    EXPECT_EQ(pins.everyCursor, "1251b233916e2461");
    EXPECT_EQ(pins.final, "f8b76565237fa553");
}

TEST(RunStackContract, FullyStackedRunSnapshotBytesArePinned)
{
    recovery::RunParams p;
    p.device = "A";
    p.faults = "hostile";
    p.resilience = "guarded";
    p.supervisor = true;
    p.timelineMs = 100;
    p.scale = 0.003;
    const SnapshotPins pins = snapshotPins(p);
    EXPECT_EQ(pins.everyCursor, "880051418c822921");
    EXPECT_EQ(pins.final, "59834fb29c35f179");
}

TEST(RunStackContract, TraceCommandOutputBytesArePinned)
{
    const std::string bin = scratchPath("trace.bin");
    const std::string audit = scratchPath("audit.jsonl");
    const std::string json = scratchPath("trace.json");
    std::string out;
    ASSERT_EQ(runCli("trace --device A --faults flaky-reads --supervisor "
                     "--scale 0.003 --timeline-ms 100 --out " +
                         json + " --binary-out " + bin + " --audit-out " +
                         audit,
                     &out),
              0)
        << out;
    EXPECT_EQ(hex(recovery::fnv1a(readFile(bin))), "81c972a48529d5ca");
    EXPECT_EQ(hex(recovery::fnv1a(readFile(audit))), "8a2f6caee3d90346");
    EXPECT_EQ(hex(recovery::fnv1a(readFile(json))), "b0c6ca00b9ea2805");
    for (const std::string &f : {bin, audit, json})
        std::remove(f.c_str());
}

TEST(RunStackContract, AccuracyAndRunAgreeOnTheSameConfiguration)
{
    const std::string flags =
        "--device A --faults hostile --supervisor --scale 0.004 "
        "--timeline-ms 50";
    const std::string accMetrics = scratchPath("accuracy.json");
    const std::string runMetrics = scratchPath("run.json");
    std::string accOut;
    std::string runOut;
    ASSERT_EQ(runCli("accuracy " + flags + " --metrics-out " + accMetrics,
                     &accOut),
              0)
        << accOut;
    ASSERT_EQ(runCli("run " + flags + " --metrics-out " + runMetrics,
                     &runOut),
              0)
        << runOut;
    // Same recall counts, same fault exclusions, same workload line.
    for (const char *prefix :
         {"workload:", "NL accuracy:", "HL accuracy:", "faulted"})
        EXPECT_EQ(linesStartingWith(accOut, prefix),
                  linesStartingWith(runOut, prefix))
            << prefix;
    EXPECT_FALSE(linesStartingWith(accOut, "HL accuracy:").empty());
    // The metrics snapshot carries the end time ("time_ns") and every
    // layer's counters and histograms.
    const std::string a = readFile(accMetrics);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, readFile(runMetrics));
    std::remove(accMetrics.c_str());
    std::remove(runMetrics.c_str());
}

} // namespace
} // namespace ssdcheck
