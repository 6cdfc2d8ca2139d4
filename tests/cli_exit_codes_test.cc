/**
 * @file Consolidated CLI exit-code contract, asserted through the
 * installed `ssdcheck` binary: every failure class maps to one stable
 * code (tools/exit_codes.h), `help` exits 0 and prints the
 * consolidated table verbatim, and bad invocations are distinguishable
 * from crashed runs by code alone.
 *
 * Build wiring provides:
 *   SSDCHECK_CLI_BIN   absolute path of the ssdcheck CLI binary
 *   SSDCHECK_SOAK_BIN  absolute path of the ssdcheck_soak harness
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exit_codes.h"

namespace {

namespace cli = ssdcheck::cli;

/** Run @p bin with @p args; returns its exit code, captures
 *  stdout+stderr. @p shellPrefix runs in the same shell first. */
int
runBinary(const std::string &bin, const std::string &args, std::string *out,
          const std::string &shellPrefix = "")
{
    const std::string cmd = shellPrefix + bin + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (pipe == nullptr)
        return -1;
    char buf[512];
    std::ostringstream os;
    while (fgets(buf, sizeof buf, pipe) != nullptr)
        os << buf;
    if (out != nullptr)
        *out = os.str();
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** runBinary on the ssdcheck CLI (e.g. @p shellPrefix = a ulimit). */
int
runCli(const std::string &args, std::string *out,
       const std::string &shellPrefix = "")
{
    return runBinary(SSDCHECK_CLI_BIN, args, out, shellPrefix);
}

TEST(CliExitCodes, EnumValuesAreTheDocumentedContract)
{
    // The numeric values are API: scripts and CI match on them, so a
    // renumbering is a breaking change this test makes loud.
    EXPECT_EQ(cli::kOk, 0);
    EXPECT_EQ(cli::kUsage, 1);
    EXPECT_EQ(cli::kBadArgs, 2);
    EXPECT_EQ(cli::kRecoveryFloor, 3);
    EXPECT_EQ(cli::kPerfGate, 4);
    EXPECT_EQ(cli::kCorruptSnapshot, 5);
    EXPECT_EQ(cli::kConfigMismatch, 6);
    EXPECT_EQ(cli::kInvariantViolation, 7);
    EXPECT_EQ(cli::kSloViolation, 8);
}

TEST(CliExitCodes, HelpExitsZeroAndPrintsTheExitCodeTable)
{
    for (const char *spelling : {"help", "--help", "-h"}) {
        std::string out;
        EXPECT_EQ(runCli(spelling, &out), cli::kOk) << spelling;
        // The consolidated table is printed verbatim from the shared
        // header, so CLI and docs can never drift apart.
        EXPECT_NE(out.find(cli::kExitCodeTable), std::string::npos)
            << spelling << " output:\n"
            << out;
        EXPECT_NE(out.find("chaos"), std::string::npos) << spelling;
    }
}

TEST(CliExitCodes, UnknownCommandExitsUsage)
{
    std::string out;
    EXPECT_EQ(runCli("frobnicate", &out), cli::kUsage);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(CliExitCodes, BadArgumentsExitBadArgs)
{
    std::string out;
    // Unknown device preset.
    EXPECT_EQ(runCli("run --device NOPE --scale 0.002", &out),
              cli::kBadArgs)
        << out;
    // Unreadable chaos scenario file.
    EXPECT_EQ(runCli("chaos --scenario /nonexistent.chaos", &out),
              cli::kBadArgs)
        << out;
    // A regress factor outside [0, 1) or a baseline that cannot gate
    // is refused before the grid runs.
    EXPECT_EQ(runCli("bench --max-regress 2", &out), cli::kBadArgs) << out;
    EXPECT_NE(out.find("--max-regress"), std::string::npos) << out;
    const std::string nanBase =
        testing::TempDir() + "/cli_exit_codes_nan_baseline.json";
    {
        std::ofstream f(nanBase);
        f << "{\"ios_per_sec\": nan}\n";
    }
    EXPECT_EQ(runCli("bench --baseline " + nanBase, &out), cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("cannot read baseline"), std::string::npos) << out;
    EXPECT_EQ(out.find("grid:"), std::string::npos) << out;
    std::remove(nanBase.c_str());
}

TEST(CliExitCodes, UnknownFlagsExitBadArgs)
{
    // Retired flags and typos are named, never silently ignored.
    for (const char *args :
         {"run --profile-stages", "bench --max-stage-regress 3",
          "accuracy --scael 0.01", "faults --all"}) {
        std::string out;
        EXPECT_EQ(runCli(args, &out), cli::kBadArgs) << args << "\n" << out;
        EXPECT_NE(out.find("unknown flag --"), std::string::npos)
            << args << "\n" << out;
    }
}

TEST(CliExitCodes, StrayPositionalWordsExitBadArgs)
{
    // A word that is neither a flag nor a flag's value is named and
    // refused; `fingerprint D` used to fingerprint device A and exit 0.
    for (const char *args :
         {"fingerprint D", "accuracy --device A extra",
          "run --scale 0.01 oops", "faults all"}) {
        std::string out;
        EXPECT_EQ(runCli(args, &out), cli::kBadArgs) << args << "\n" << out;
        EXPECT_NE(out.find("unexpected argument '"), std::string::npos)
            << args << "\n" << out;
    }
    std::string out;
    EXPECT_EQ(runBinary(SSDCHECK_SOAK_BIN, "--cycles 1 stray", &out),
              cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("unexpected argument 'stray'"), std::string::npos)
        << out;
}

TEST(CliExitCodes, SynthSpanBelowFivePagesExitsBadArgs)
{
    // Spans 0..4 used to die of SIGFPE in the RW Mixed synthesizer.
    for (const char *span : {"0", "4"}) {
        std::string out;
        EXPECT_EQ(runCli("synth --workload 'RW Mixed' --out /dev/null "
                         "--scale 0.001 --span " +
                             std::string(span),
                         &out),
                  cli::kBadArgs)
            << span << "\n" << out;
        EXPECT_NE(out.find("--span"), std::string::npos) << out;
    }
    for (const char *w :
         {"TPCE", "Homes", "Web", "Exch", "Live", "Build", "'RW Mixed'"}) {
        std::string out;
        EXPECT_EQ(runCli(std::string("synth --workload ") + w +
                             " --out /dev/null --scale 0.001 --span 5",
                         &out),
                  cli::kOk)
            << w << "\n" << out;
    }
}

TEST(CliExitCodes, MalformedNumericFlagsExitBadArgs)
{
    // These used to abort on an uncaught std::invalid_argument or
    // out_of_range (rc 134), or silently wrap (--listen 70000).
    for (const char *args :
         {"bench --jobs abc", "run --scale abc", "accuracy --scale x",
          "run --checkpoint-every -1", "trace-stats --top 1x",
          "run --listen 70000", "chaos --scenario x.chaos --jobs -2",
          "accuracy --timeline-ms",
          "synth --workload Build --out /dev/null --span 1e3"}) {
        std::string out;
        EXPECT_EQ(runCli(args, &out), cli::kBadArgs) << args << "\n" << out;
        EXPECT_NE(out.find("bad value for --"), std::string::npos)
            << args << "\n" << out;
    }
}

TEST(CliExitCodes, NonFiniteOrOutOfRangeScaleExitsBadArgs)
{
    // Only the rejection path may run: the address-space cap turns a
    // regression into a quick allocation failure instead of letting an
    // unchecked scale exhaust the machine's memory.
    const std::string cap = "ulimit -v 4000000; ";
    for (const char *args :
         {"run --scale nan", "run --scale inf", "accuracy --scale -inf",
          "trace --scale nan", "bench --scale nan", "run --scale 0",
          "run --scale 2", "bench --scale 0",
          "synth --workload Build --out /dev/null --scale 2"}) {
        std::string out;
        EXPECT_EQ(runCli(args, &out, cap), cli::kBadArgs)
            << args << "\n" << out;
    }
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_nan_scale.chaos";
    {
        std::ofstream f(path);
        f << "seeds 1\nscale nan\n";
    }
    std::string out;
    EXPECT_EQ(runCli("chaos --scenario " + path, &out, cap), cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("scale"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(CliExitCodes, MalformedChaosScenarioExitsBadArgs)
{
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_bad.chaos";
    {
        std::ofstream f(path);
        f << "seeds 1\nno-such-key 1\n";
    }
    std::string out;
    EXPECT_EQ(runCli("chaos --scenario " + path, &out), cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("no-such-key"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(CliExitCodes, ChaosSloViolationExitsSloViolation)
{
    // An impossible liveness floor forces the SLO-violation path.
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_slo.chaos";
    {
        std::ofstream f(path);
        f << "name impossible\nscale 0.002\nseeds 1\npacing closed\n"
          << "assert-min-completed 18446744073709551615\n";
    }
    std::string out;
    EXPECT_EQ(runCli("chaos --scenario " + path + " --jobs 2", &out),
              cli::kSloViolation)
        << out;
    EXPECT_NE(out.find("liveness"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(CliExitCodes, ChaosCampaignPassesAndVerifies)
{
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_ok.chaos";
    {
        std::ofstream f(path);
        f << "name tiny\nscale 0.002\nseeds 1 2\npacing closed\n"
          << "faults storms\nassert-min-completed 100\n";
    }
    std::string out;
    // --verify reruns the campaign at --jobs 1 and requires a
    // bit-identical digest: the determinism gate, end to end.
    EXPECT_EQ(runCli("chaos --scenario " + path + " --jobs 4 --verify",
                     &out),
              cli::kOk)
        << out;
    EXPECT_NE(out.find("campaign digest:"), std::string::npos) << out;
    std::remove(path.c_str());
}

} // namespace
