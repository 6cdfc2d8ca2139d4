/**
 * @file
 * ssdcheck — command-line front end to the framework (the paper's
 * "software release" artifact). `ssdcheck help` prints every flag and
 * the exit-code table; README.md walks through each command.
 *
 *   fingerprint    §III-B diagnosis: a device's Table-I features.
 *   accuracy       diagnose, model, replay at QD1, report NL/HL recall
 *                  (--supervisor repairs drift online; exit 3 below
 *                  --min-recovered-accuracy).
 *   trace          the accuracy replay with the full obs sink: Chrome
 *                  JSON, trace.bin, metrics and the misprediction audit.
 *   run            the accuracy replay as a checkpointable run:
 *                  --checkpoint-every/--resume (exit 5 corrupt, 6
 *                  mismatch), soak hooks, live telemetry (--listen),
 *                  --check-invariants (exit 7).
 *   chaos          adversarial fault campaign from a scenario file,
 *                  sharded over --jobs (exit 8 on SLO or --verify miss).
 *   bench          the Fig. 11 grid over --jobs threads, BENCH_grid.json
 *                  and the --baseline perf gate (exit 4).
 *   synth, replay  write a synthetic trace; replay one at QD1.
 *   trace-convert, trace-stats   offline trace.bin tools.
 *   faults         list the fault-injection profiles.
 *
 * `accuracy`, `trace` and `run` build their host stack through
 * recovery::RunStack. Devices are the simulated presets; on a real
 * system the same code would sit behind an ioctl-capable block device.
 */
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/resilient_device.h"
#include "cli_args.h"
#include "exit_codes.h"
#include "resilience/chaos.h"
#include "core/accuracy.h"
#include "core/diagnosis.h"
#include "obs/exporter/http_server.h"
#include "obs/exporter/telemetry.h"
#include "obs/sink.h"
#include "obs/trace_binary.h"
#include "obs/trace_stats.h"
#include "perf/grid.h"
#include "perf/thread_pool.h"
#include "recovery/invariants.h"
#include "recovery/run_state.h"
#include "recovery/snapshot.h"
#include "ssd/presets.h"
#include "stats/table_printer.h"
#include "usecases/runner.h"
#include "workload/snia_synth.h"

using namespace ssdcheck;
using cli::Args;
using cli::numFlag;

namespace {

/** The host-stack flags `accuracy`, `trace` and `run` share. */
recovery::RunParams
runParams(const Args &args)
{
    recovery::RunParams p;
    p.device = args.get("device", "A");
    p.faults = args.get("faults", "none");
    p.workload = args.get("workload", "RW Mixed");
    p.scale = numFlag(args, "scale", 0.05);
    p.supervisor = args.has("supervisor");
    p.timelineMs = numFlag<int64_t>(args, "timeline-ms", 0);
    return p;
}

/** The run stack for @p params with @p sink attached; prints why and
 *  returns nullptr when it cannot be built. */
std::unique_ptr<recovery::RunStack>
buildStack(const recovery::RunParams &params, const obs::Sink &sink)
{
    recovery::RunSpec spec;
    std::string err;
    std::unique_ptr<recovery::RunStack> stack;
    if (params.toSpec(&spec, &err)) {
        spec.sink = sink;
        stack = recovery::RunStack::build(spec, false, &err);
    }
    if (!stack)
        std::fprintf(stderr, "%s\n", err.c_str());
    return stack;
}

/** Device @p name with --faults injected (nullptr after printing why). */
std::unique_ptr<ssd::SsdDevice>
makeDevice(const std::string &name, const Args &args)
{
    recovery::RunParams params;
    params.faults = args.get("faults", "none");
    recovery::RunSpec spec;
    std::string err;
    ssd::SsdConfig cfg;
    if (params.toSpec(&spec, &err) && !ssd::presetByName(name, &cfg))
        err = "unknown device '" + name + "'";
    if (!err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return nullptr;
    }
    cfg.faults = spec.faults;
    return std::make_unique<ssd::SsdDevice>(cfg);
}

/** Print device-side injections and host-side error counters. */
void
printFaultReport(const ssd::SsdDevice &dev,
                 const blockdev::ResilientDevice &rdev)
{
    if (dev.config().faults.inert())
        return;
    stats::printBanner(std::cout, "fault report (profile '" +
                                      dev.config().faults.name + "')");
    stats::TablePrinter t;
    t.header({"counter", "value"});
    const ssd::FaultCounters &fc = dev.faultCounters();
    t.row({"injected: transient UNC reads", std::to_string(fc.readUncTransient)});
    t.row({"injected: hard UNC reads", std::to_string(fc.readUncHard)});
    t.row({"injected: program failures", std::to_string(fc.programFailures)});
    t.row({"injected: erase failures", std::to_string(fc.eraseFailures)});
    t.row({"injected: blocks retired", std::to_string(fc.blocksRetired)});
    t.row({"injected: stalls", std::to_string(fc.stalls)});
    t.row({"injected: drift events", std::to_string(fc.driftEvents)});
    const blockdev::ResilienceCounters &rc = rdev.counters();
    t.row({"host: media errors seen", std::to_string(rc.mediaErrors)});
    t.row({"host: timeouts classified", std::to_string(rc.timeouts)});
    t.row({"host: device faults", std::to_string(rc.deviceFaults)});
    t.row({"host: retries issued", std::to_string(rc.retries)});
    t.row({"host: recovered by retry", std::to_string(rc.recovered)});
    t.row({"host: retries exhausted", std::to_string(rc.exhausted)});
    t.row({"host: errored requests", std::to_string(rc.erroredRequests)});
    t.print(std::cout);
}

/** Print the recall summary of a replayed stack. */
void
printAccuracy(const recovery::RunStack &stack)
{
    const core::AccuracyResult &acc = stack.accuracy();
    std::printf("workload: %s (%zu requests, HL fraction %.2f%%)\n",
                stack.trace().name().c_str(), stack.trace().size(),
                acc.hlFraction() * 100);
    std::printf("NL accuracy: %.2f%%\nHL accuracy: %.2f%%\n",
                acc.nlAccuracy() * 100, acc.hlAccuracy() * 100);
    if (acc.faulted > 0)
        std::printf("faulted requests excluded from recall: %llu\n",
                    static_cast<unsigned long long>(acc.faulted));
}

/** Read the binary trace at @p path into @p reader; false + stderr on
 *  failure. */
bool
readTraceBinary(const std::string &path, obs::TraceBinaryReader *reader)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    if (!reader->read(is)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     reader->error().c_str());
        return false;
    }
    return true;
}

/** Write @p body via @p writer to @p path; false + stderr on failure. */
template <typename Writer>
bool
writeFile(const std::string &path, Writer &&writer)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    writer(os);
    return true;
}

/** Write @p reg at time @p t to --metrics-out, when given; false +
 *  stderr on failure. */
bool
writeMetrics(const Args &args, const obs::Registry &reg, sim::SimTime t)
{
    if (!args.has("metrics-out"))
        return true;
    const std::string path = args.get("metrics-out", "metrics.json");
    if (!writeFile(path, [&](std::ostream &os) { reg.writeJson(os, t); }))
        return false;
    std::printf("wrote %zu metrics to %s\n", reg.size(), path.c_str());
    return true;
}

/**
 * The live telemetry endpoint of one command invocation: a hub the
 * run loop publishes into plus the HTTP server scraping it. Inactive
 * (hub unused, no server) unless --listen was given.
 */
struct Telemetry
{
    obs::TelemetryHub hub;
    std::unique_ptr<obs::HttpServer> server;

    bool active() const { return server != nullptr; }
    obs::TelemetryHub *hubPtr() { return active() ? &hub : nullptr; }
};

/**
 * Start the telemetry server when --listen PORT is present (PORT 0 =
 * ephemeral; the bound port is printed either way). --stale-ms N
 * tunes the /healthz staleness watchdog (default 10s).
 * @return false when the server could not start (@p rc set).
 */
bool
startTelemetry(const Args &args, Telemetry *t, int *rc)
{
    if (!args.has("listen"))
        return true;
    const uint16_t port = numFlag<uint16_t>(args, "listen", 0);
    const uint64_t staleMs = numFlag<uint64_t>(args, "stale-ms", 10000);
    t->server = std::make_unique<obs::HttpServer>(t->hub);
    if (args.has("stale-ms"))
        t->server->setStaleNs(staleMs * 1000000ull);
    std::string err;
    if (!t->server->start(port, &err)) {
        std::fprintf(stderr, "cannot start telemetry server: %s\n",
                     err.c_str());
        t->server.reset();
        *rc = cli::kBadArgs;
        return false;
    }
    std::printf("telemetry: http://127.0.0.1:%u  "
                "(/metrics /runz /healthz)\n",
                t->server->port());
    // Scrape harnesses grep this line from a redirected log while the
    // run is still going; don't leave it in the stdio buffer.
    std::fflush(stdout);
    return true;
}

int
cmdFingerprint(const Args &args)
{
    std::vector<std::string> names;
    if (args.has("all")) {
        for (const auto m : ssd::allModels())
            names.push_back(ssd::toString(m));
        names.push_back("nvm");
    } else {
        names.push_back(args.get("device", "A"));
    }
    for (const auto &n : names) {
        auto dev = makeDevice(n, args);
        if (!dev)
            return cli::kBadArgs;
        core::DiagnosisRunner runner(*dev, core::DiagnosisConfig{});
        const core::FeatureSet fs = runner.extractFeatures();
        std::printf("%-8s %s\n", dev->name().c_str(),
                    fs.summary().c_str());
    }
    return 0;
}

int
cmdAccuracy(const Args &args)
{
    const double floor = numFlag(args, "min-recovered-accuracy", 0.0);
    // Optional metrics snapshot of the run (registry views over every
    // layer's counters; attaching never changes the results).
    obs::Registry registry;
    obs::Sink sink;
    if (args.has("metrics-out"))
        sink.metrics = &registry;
    // Diagnosis is a one-time offline procedure on a healthy twin, so
    // the whole fault budget lands on the measured run and the runtime
    // machinery — retries, tainted-completion exclusion, drift
    // response — is what's tested.
    const auto stack = buildStack(runParams(args), sink);
    if (!stack)
        return cli::kBadArgs;
    const core::SsdCheck &check = *stack->checkPtr();
    std::printf("features: %s\n", check.features().summary().c_str());

    while (!stack->done())
        stack->step();
    if (!writeMetrics(args, registry, stack->now()))
        return cli::kBadArgs;
    printAccuracy(*stack);
    printFaultReport(stack->device(), stack->resilient());

    const core::HealthSupervisor *sup = stack->supervisorPtr();
    const double rollingHl = check.monitor().rollingHlAccuracy();
    if (sup != nullptr) {
        stats::printBanner(std::cout, "model health");
        std::printf("%s", sup->report().c_str());
        std::printf("rolling HL accuracy at end of run: %.2f%%\n",
                    rollingHl * 100);
    }
    if (args.has("min-recovered-accuracy")) {
        const bool disabled =
            (sup != nullptr && sup->state() == core::HealthState::Disabled) ||
            !check.enabled();
        if (disabled || rollingHl < floor) {
            std::fprintf(stderr,
                         "FAIL: run ended %s with rolling HL accuracy "
                         "%.2f%% (floor %.2f%%)\n",
                         disabled ? "disabled" : "enabled",
                         rollingHl * 100, floor * 100);
            return cli::kRecoveryFloor;
        }
        std::printf("rolling HL accuracy %.2f%% meets floor %.2f%%\n",
                    rollingHl * 100, floor * 100);
    }
    return 0;
}

int
cmdSynth(const Args &args)
{
    workload::SniaWorkload w = workload::SniaWorkload::RwMixed;
    if (!workload::sniaWorkloadByName(args.get("workload", "RW Mixed"), &w)) {
        std::fprintf(stderr, "unknown workload\n");
        return cli::kBadArgs;
    }
    const std::string out = args.get("out", "");
    if (out.empty()) {
        std::fprintf(stderr, "--out FILE required\n");
        return cli::kBadArgs;
    }
    const double scale = numFlag(args, "scale", 0.05);
    const uint64_t span = numFlag<uint64_t>(args, "span", 131072);
    const std::string se = recovery::scaleError(scale);
    if (!se.empty()) {
        std::fprintf(stderr, "%s\n", se.c_str());
        return cli::kBadArgs;
    }
    // The synthesizer draws offsets below span - 4 (a 4-page request).
    if (span < 5) {
        std::fprintf(stderr, "--span must be at least 5 pages\n");
        return cli::kBadArgs;
    }
    const auto trace = workload::buildSniaTrace(w, span, scale);
    std::ofstream os(out);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return cli::kBadArgs;
    }
    trace.saveText(os);
    std::printf("wrote %zu records to %s\n", trace.size(), out.c_str());
    return 0;
}

int
cmdReplay(const Args &args)
{
    auto dev = makeDevice(args.get("device", "A"), args);
    if (!dev)
        return cli::kBadArgs;
    const std::string path = args.get("trace", "");
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return cli::kBadArgs;
    }
    size_t errorLine = 0;
    const auto trace = workload::Trace::loadText(is, &errorLine);
    if (!trace) {
        if (errorLine == 0)
            std::fprintf(stderr, "malformed trace file %s: empty\n",
                         path.c_str());
        else
            std::fprintf(stderr, "malformed trace file %s: line %zu\n",
                         path.c_str(), errorLine);
        return cli::kBadArgs;
    }
    blockdev::ResilientDevice rdev(*dev);
    core::DiagnosisRunner prep(rdev, core::DiagnosisConfig{});
    prep.precondition();
    const auto res =
        usecases::runClosedLoop(rdev, *trace, 1, 0, prep.now());
    std::printf("%s on %s: %llu requests, %.1f MB/s\n",
                trace->name().c_str(), dev->name().c_str(),
                static_cast<unsigned long long>(res.requests),
                res.throughputMbps());
    for (const double p : {50.0, 90.0, 99.0, 99.5, 99.9}) {
        std::printf("  p%-5.1f %s\n", p,
                    sim::formatDuration(res.latency.percentile(p)).c_str());
    }
    // Error accounting comes from the resilient path's counters (the
    // single tally; replay engines no longer duplicate it).
    const blockdev::ResilienceCounters &rc = rdev.counters();
    if (rc.erroredRequests > 0 || rc.retries > 0)
        std::printf("errors: %llu media, %llu timeout, %llu fault; "
                    "%llu of %llu requests errored (%.2f%%)\n",
                    static_cast<unsigned long long>(rc.mediaErrors),
                    static_cast<unsigned long long>(rc.timeouts),
                    static_cast<unsigned long long>(rc.deviceFaults),
                    static_cast<unsigned long long>(rc.erroredRequests),
                    static_cast<unsigned long long>(rc.submissions),
                    rc.errorRate() * 100);
    printFaultReport(*dev, rdev);
    return 0;
}

int
cmdTrace(const Args &args)
{
    obs::TraceRecorder recorder;
    obs::Registry registry;
    obs::AuditLog audit;
    const auto stack =
        buildStack(runParams(args), obs::Sink{&recorder, &registry, &audit});
    if (!stack)
        return cli::kBadArgs;
    while (!stack->done())
        stack->step();
    printAccuracy(*stack);

    const std::string tracePath = args.get("out", "trace.json");
    if (!writeFile(tracePath,
                   [&](std::ostream &os) { recorder.writeChromeJson(os); }))
        return cli::kBadArgs;
    std::printf("wrote %zu trace events to %s "
                "(open in chrome://tracing or ui.perfetto.dev)\n",
                recorder.events(), tracePath.c_str());
    if (!writeMetrics(args, registry, stack->now()))
        return cli::kBadArgs;
    if (args.has("binary-out")) {
        const std::string path = args.get("binary-out", "trace.bin");
        if (!writeFile(path, [&](std::ostream &os) {
                obs::writeTraceBinary(recorder, os);
            }))
            return cli::kBadArgs;
        std::printf("wrote binary trace to %s "
                    "(convert with `ssdcheck trace-convert`)\n",
                    path.c_str());
    }
    if (args.has("audit-out")) {
        const std::string path = args.get("audit-out", "audit.jsonl");
        if (!writeFile(path,
                       [&](std::ostream &os) { audit.writeJsonl(os); }))
            return cli::kBadArgs;
        std::printf("wrote %zu audit records to %s\n", audit.size(),
                    path.c_str());
    }

    stats::printBanner(std::cout, "misprediction audit");
    std::printf("%s", audit.analyze().format().c_str());
    printFaultReport(stack->device(), stack->resilient());
    return 0;
}

int
cmdTraceConvert(const Args &args)
{
    const std::string inPath = args.get("in", "trace.bin");
    const std::string outPath = args.get("out", "trace.json");
    obs::TraceBinaryReader reader;
    if (!readTraceBinary(inPath, &reader))
        return cli::kBadArgs;
    if (!writeFile(outPath, [&](std::ostream &os) {
            reader.recorder().writeChromeJson(os);
        }))
        return cli::kBadArgs;
    std::printf("converted %zu trace events: %s -> %s\n",
                reader.recorder().events(), inPath.c_str(),
                outPath.c_str());
    return 0;
}

int
cmdTraceStats(const Args &args)
{
    const size_t topN = numFlag<size_t>(args, "top", 10);
    obs::TraceBinaryReader reader;
    if (!readTraceBinary(args.get("in", "trace.bin"), &reader))
        return cli::kBadArgs;
    const obs::TraceStats stats =
        obs::computeTraceStats(reader.recorder(), topN);
    const std::string format = args.get("format", "text");
    if (format == "json") {
        std::printf("%s", obs::renderTraceStatsJson(stats).c_str());
    } else if (format == "text") {
        std::printf("%s", obs::renderTraceStatsText(stats).c_str());
    } else {
        std::fprintf(stderr,
                     "unknown --format '%s' (text or json)\n",
                     format.c_str());
        return cli::kBadArgs;
    }
    return cli::kOk;
}

int
cmdBench(const Args &args)
{
    const unsigned jobs =
        numFlag<unsigned>(args, "jobs", perf::ThreadPool::defaultJobs());
    const double scale = numFlag(args, "scale", 0.03);
    const uint64_t seedCount = numFlag<uint64_t>(args, "seeds", 1);
    const double maxRegress = numFlag(args, "max-regress", 0.30);
    if (seedCount == 0 || !recovery::scaleError(scale).empty()) {
        std::fprintf(stderr, "--seeds must be positive and --scale in "
                             "(0, 1]\n");
        return cli::kBadArgs;
    }
    if (maxRegress < 0 || maxRegress >= 1) {
        std::fprintf(stderr, "--max-regress must be in [0, 1)\n");
        return cli::kBadArgs;
    }
    // Read the baseline before the grid runs: one that cannot gate
    // (missing, nan, <= 0) is a bad argument, not a result.
    std::optional<double> baseline;
    if (args.has("baseline")) {
        const std::string basePath = args.get("baseline", "");
        baseline = perf::readBaselineIosPerSec(basePath);
        if (!baseline) {
            std::fprintf(stderr,
                         "cannot read baseline %s: needs a finite "
                         "\"ios_per_sec\" > 0\n",
                         basePath.c_str());
            return cli::kBadArgs;
        }
    }

    Telemetry tele;
    int rc = cli::kOk;
    if (!startTelemetry(args, &tele, &rc))
        return rc;

    perf::GridSpec spec = perf::GridSpec::fig11(scale);
    spec.seeds.clear();
    for (uint64_t s = 0; s < seedCount; ++s)
        spec.seeds.push_back(s);
    spec.telemetry = tele.hubPtr();

    std::printf("grid: %zu models x %zu workloads x %llu seeds, "
                "jobs=%u, scale=%.3f\n",
                spec.models.size(), spec.workloads.size(),
                static_cast<unsigned long long>(seedCount), jobs, scale);
    const perf::GridResult grid = perf::runGrid(spec, jobs);

    stats::TablePrinter t;
    t.header({"shard", "requests", "wall", "IOs/s"});
    for (const auto &task : grid.timing.tasks)
        t.row({task.label, std::to_string(task.simulatedIos),
               stats::TablePrinter::num(task.wallSeconds, 2) + "s",
               stats::TablePrinter::num(task.iosPerSec(), 0)});
    t.print(std::cout);
    std::printf("\nwall %.2fs (serial estimate %.2fs), aggregate "
                "speedup %.2fx, %.0f simulated IOs/s\n",
                grid.timing.wallSeconds, grid.timing.taskWallSum(),
                grid.timing.aggregateSpeedup(),
                grid.timing.iosPerSec());

    const std::string out = args.get("out", "BENCH_grid.json");
    if (!perf::writeBenchGridJson(out, "cli_bench_grid", grid.timing)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return cli::kBadArgs;
    }
    std::printf("wrote %s\n", out.c_str());

    if (baseline) {
        const double floor = *baseline * (1.0 - maxRegress);
        const double measured = grid.timing.iosPerSec();
        if (measured < floor) {
            std::fprintf(stderr,
                         "FAIL: %.0f IOs/s is below the regression floor "
                         "%.0f (baseline %.0f, max regress %.0f%%)\n",
                         measured, floor, *baseline, maxRegress * 100);
            return cli::kPerfGate;
        }
        std::printf("perf gate OK: %.0f IOs/s vs floor %.0f "
                    "(baseline %.0f, max regress %.0f%%)\n",
                    measured, floor, *baseline, maxRegress * 100);
        // Two-sided: a result far above the baseline is not an error,
        // but it means the floor has lost its teeth — a subsequent
        // regression back to the stale baseline would pass the gate.
        // Warn (never fail) so the baseline gets re-recorded.
        const double ceiling = *baseline * (1.0 + maxRegress);
        if (measured > ceiling)
            std::printf(
                "WARN: %.0f IOs/s is more than %.0f%% above the "
                "baseline %.0f — re-baseline bench/baseline.json so "
                "the regression floor keeps its teeth\n",
                measured, maxRegress * 100, *baseline);
    }
    return 0;
}

/**
 * Chaos hook: start writing a checkpoint the non-atomic way — dump
 * half the bytes into the temp file — then die by SIGKILL, leaving a
 * torn temp next to the intact previous checkpoint. The soak harness
 * uses this to prove the atomic-rename protocol: a resume must load
 * the previous checkpoint, never the torn temp.
 */
[[noreturn]] void
dieInCheckpointWrite(const std::string &path,
                     const std::vector<uint8_t> &bytes)
{
    std::ofstream os(path + ".tmp", std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size() / 2));
    os.flush();
    std::raise(SIGKILL);
    std::abort(); // unreachable; SIGKILL cannot be handled
}

int
cmdRun(const Args &args)
{
    recovery::RunParams params = runParams(args);
    params.resilience = args.get("resilience", "off");

    const std::string resumePath = args.get("resume", "");
    const std::string ckptOut = args.get("checkpoint-out", "");
    const uint64_t ckptEvery = numFlag<uint64_t>(args, "checkpoint-every", 0);
    const std::string finalOut = args.get("final-state-out", "");
    const bool force = args.has("force");
    const uint64_t killAfter =
        numFlag<uint64_t>(args, "kill-after-requests", 0);
    const bool killInCkpt = args.has("kill-in-checkpoint");
    uint64_t publishEvery = numFlag<uint64_t>(args, "publish-every", 1024);
    if (publishEvery == 0)
        publishEvery = 1;
    // Chaos hook for the telemetry watchdog: park the sim thread after
    // N requests so /healthz flips 503 once the snapshot goes stale.
    const uint64_t hangAfter =
        numFlag<uint64_t>(args, "hang-after-requests", 0);

    if ((ckptEvery > 0) != !ckptOut.empty()) {
        std::fprintf(stderr, "--checkpoint-every and --checkpoint-out "
                             "must be given together\n");
        return cli::kBadArgs;
    }
    if (!ckptOut.empty() && ckptOut != resumePath &&
        cli::fileExists(ckptOut) && !force) {
        std::fprintf(stderr,
                     "refusing to overwrite existing checkpoint %s; "
                     "pass --force to allow it\n",
                     ckptOut.c_str());
        return cli::kBadArgs;
    }

    recovery::Snapshot snap;
    const bool resuming = !resumePath.empty();
    if (resuming) {
        std::vector<uint8_t> bytes;
        std::string detail;
        recovery::LoadError e =
            recovery::readFile(resumePath, &bytes, &detail);
        if (e != recovery::LoadError::Ok) {
            std::fprintf(stderr, "cannot read snapshot %s: %s\n",
                         resumePath.c_str(), detail.c_str());
            return cli::kBadArgs;
        }
        e = snap.parse(bytes, &detail);
        if (e != recovery::LoadError::Ok) {
            std::fprintf(stderr,
                         "corrupt snapshot %s [%s]: %s\n"
                         "the file cannot be resumed; re-run without "
                         "--resume to start over\n",
                         resumePath.c_str(),
                         recovery::toString(e).c_str(), detail.c_str());
            return cli::kCorruptSnapshot;
        }
        if (snap.configHash() != params.configHash() && !force) {
            std::string taken = "<unrecorded>";
            if (const auto *p =
                    snap.section(recovery::SectionId::RunParams)) {
                recovery::StateReader r(*p);
                taken = r.str();
            }
            std::fprintf(stderr,
                         "config mismatch: snapshot %s was taken with\n"
                         "  %s\nbut this run is configured as\n  %s\n"
                         "re-run with matching flags, or pass --force "
                         "to resume anyway\n",
                         resumePath.c_str(), taken.c_str(),
                         params.canonical().c_str());
            return cli::kConfigMismatch;
        }
    }

    Telemetry tele;
    int rc = cli::kOk;
    if (!startTelemetry(args, &tele, &rc))
        return rc;

    std::string err;
    auto run = recovery::CheckpointableRun::create(params, resuming, &err);
    if (!run) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return cli::kBadArgs;
    }
    if (resuming) {
        std::string detail;
        // The config hash was checked above (or --force waived it).
        const recovery::LoadError e = run->restore(snap, &detail, true);
        if (e != recovery::LoadError::Ok) {
            std::fprintf(stderr, "unusable snapshot %s [%s]: %s\n",
                         resumePath.c_str(),
                         recovery::toString(e).c_str(), detail.c_str());
            return cli::kCorruptSnapshot;
        }
        std::printf("resumed %s at request %llu of %zu (t=%s)\n",
                    resumePath.c_str(),
                    static_cast<unsigned long long>(run->cursor()),
                    run->trace().size(),
                    sim::formatDuration(run->now().ns()).c_str());
    }

    uint64_t checkpoints = 0;
    auto publish = [&](const char *phase) {
        if (!tele.active())
            return;
        obs::RunStatus st = run->status(phase);
        st.checkpoints = checkpoints;
        tele.hub.publish(run->registry(), st);
    };
    publish("run");

    uint64_t nextCkpt =
        ckptEvery > 0 ? (run->cursor() / ckptEvery + 1) * ckptEvery : 0;
    while (!run->done()) {
        run->step();
        if (ckptEvery > 0 && run->cursor() >= nextCkpt) {
            const std::vector<uint8_t> bytes =
                run->checkpoint().serialize();
            if (killInCkpt && killAfter > 0 && run->cursor() >= killAfter)
                dieInCheckpointWrite(ckptOut, bytes);
            const std::string werr =
                recovery::writeFileAtomic(ckptOut, bytes);
            if (!werr.empty()) {
                std::fprintf(stderr, "checkpoint failed: %s\n",
                             werr.c_str());
                return cli::kBadArgs;
            }
            nextCkpt += ckptEvery;
            ++checkpoints;
            // Checkpoint boundaries are natural publish points: the
            // run is quiescent and the registry self-consistent.
            publish("run");
        }
        if (run->cursor() % publishEvery == 0)
            publish("run");
        if (hangAfter > 0 && run->cursor() >= hangAfter) {
            std::printf("hanging after %llu requests (telemetry "
                        "watchdog hook); kill me\n",
                        static_cast<unsigned long long>(run->cursor()));
            std::fflush(stdout);
            for (;;)
                std::this_thread::sleep_for(std::chrono::seconds(3600));
        }
        if (killAfter > 0 && !killInCkpt && run->cursor() >= killAfter)
            std::raise(SIGKILL);
    }
    publish("done");

    // The final state goes to the checkpoint file and --final-state-out.
    for (const std::string &path : {ckptOut, finalOut}) {
        if (path.empty())
            continue;
        const std::string werr =
            recovery::writeFileAtomic(path, run->checkpoint().serialize());
        if (!werr.empty()) {
            std::fprintf(stderr, "final state write failed: %s\n",
                         werr.c_str());
            return cli::kBadArgs;
        }
    }
    if (args.has("metrics-out")) {
        const std::string path = args.get("metrics-out", "metrics.json");
        if (!writeFile(path, [&](std::ostream &os) {
                os << run->metricsJson();
            }))
            return cli::kBadArgs;
    }

    printAccuracy(*run);
    if (run->supervisorPtr() != nullptr) {
        stats::printBanner(std::cout, "model health");
        std::printf("%s", run->supervisorPtr()->report().c_str());
    }
    printFaultReport(run->device(), run->resilient());

    if (args.has("check-invariants")) {
        const auto violations = recovery::checkInvariants(*run);
        for (const std::string &v : violations)
            std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", v.c_str());
        if (!violations.empty())
            return cli::kInvariantViolation;
        std::printf("cross-layer invariants: OK\n");
    }
    return 0;
}

int
cmdChaos(const Args &args)
{
    const unsigned jobs =
        numFlag<unsigned>(args, "jobs", perf::ThreadPool::defaultJobs());
    const std::string path = args.get("scenario", "");
    if (path.empty()) {
        std::fprintf(stderr, "--scenario FILE required\n");
        return cli::kBadArgs;
    }
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return cli::kBadArgs;
    }
    std::stringstream buf;
    buf << is.rdbuf();

    resilience::ChaosScenario scenario;
    std::string err;
    if (!resilience::ChaosScenario::parse(buf.str(), &scenario, &err)) {
        std::fprintf(stderr, "bad scenario %s: %s\n", path.c_str(),
                     err.c_str());
        return cli::kBadArgs;
    }
    Telemetry tele;
    int rc = cli::kOk;
    if (!startTelemetry(args, &tele, &rc))
        return rc;

    std::printf("chaos campaign '%s': %zu seeds, jobs=%u, policy "
                "deadline %s\n",
                scenario.name.c_str(), scenario.seeds.size(), jobs,
                sim::formatDuration(scenario.policy.deadlineBudget).c_str());
    const resilience::ChaosCampaignResult res =
        resilience::runChaosCampaign(scenario, jobs, tele.hubPtr());
    if (!res.error.empty()) {
        std::fprintf(stderr, "%s\n", res.error.c_str());
        return cli::kBadArgs;
    }

    stats::TablePrinter t;
    t.header({"seed", "ok", "shed", "expired", "hedges(won)", "breaker",
              "p99.9", "verdict"});
    for (const resilience::ChaosShardResult &s : res.shards) {
        t.row({std::to_string(s.seed), std::to_string(s.completedOk),
               std::to_string(s.shed), std::to_string(s.deadlineExpired),
               std::to_string(s.hedgesIssued) + "(" +
                   std::to_string(s.hedgeWins) + ")",
               std::to_string(s.breakerOpens) + "/" +
                   std::to_string(s.breakerCloses),
               sim::formatDuration(s.p999),
               s.failures.empty() ? "pass" : "FAIL"});
    }
    t.print(std::cout);
    for (const resilience::ChaosShardResult &s : res.shards)
        for (const std::string &f : s.failures)
            std::fprintf(stderr, "seed %llu: %s\n",
                         static_cast<unsigned long long>(s.seed),
                         f.c_str());
    std::printf("campaign digest: %016llx\n",
                static_cast<unsigned long long>(res.campaignDigest));

    if (args.has("verify")) {
        // Bit-exactness gate: the whole campaign must reproduce on a
        // single thread — any divergence means hidden cross-shard
        // state or nondeterminism in the policy stack.
        const resilience::ChaosCampaignResult serial =
            resilience::runChaosCampaign(scenario, 1);
        if (serial.campaignDigest != res.campaignDigest) {
            std::fprintf(stderr,
                         "FAIL: --jobs 1 rerun digest %016llx differs "
                         "from %016llx\n",
                         static_cast<unsigned long long>(
                             serial.campaignDigest),
                         static_cast<unsigned long long>(
                             res.campaignDigest));
            return cli::kSloViolation;
        }
        std::printf("determinism verify OK: --jobs 1 rerun reproduced "
                    "the digest\n");
    }
    if (!res.pass)
        return cli::kSloViolation;
    std::printf("all %zu shards passed their SLO assertions\n",
                res.shards.size());
    return cli::kOk;
}

int
cmdFaults(const Args &)
{
    stats::TablePrinter t;
    t.header({"profile", "unc-read", "prog-fail", "erase-fail", "stall",
              "drift"});
    for (const auto &p : ssd::allFaultProfiles()) {
        t.row({p.name, stats::TablePrinter::pct(p.readUncProbability),
               stats::TablePrinter::pct(p.programFailProbability),
               stats::TablePrinter::pct(p.eraseFailProbability),
               stats::TablePrinter::pct(p.stallProbability),
               p.driftAfterRequests == 0
                   ? "-"
                   : toString(p.driftKind) + " @" +
                         std::to_string(p.driftAfterRequests)});
    }
    t.print(std::cout);
    return 0;
}

int
usage(int rc)
{
    std::printf(
        "ssdcheck <command> [options]\n"
        "  fingerprint [--device A..G|nvm | --all] [--faults PROFILE]\n"
        "  accuracy   --device X [--workload NAME] [--scale F]"
        " [--faults PROFILE]\n"
        "             [--supervisor] [--min-recovered-accuracy F]\n"
        "             [--metrics-out FILE] [--timeline-ms N]\n"
        "  trace      --device X [--workload NAME] [--scale F]"
        " [--faults PROFILE]\n"
        "             [--out FILE] [--binary-out FILE]"
        " [--metrics-out FILE]\n"
        "             [--audit-out FILE] [--timeline-ms N]"
        " [--supervisor]\n"
        "  trace-convert [--in trace.bin] [--out trace.json]\n"
        "  trace-stats [--in trace.bin] [--format text|json] [--top N]\n"
        "  synth      --workload NAME --out FILE [--scale F] [--span P]\n"
        "  replay     --device X --trace FILE [--faults PROFILE]\n"
        "  run        --device X [--workload NAME] [--scale F]"
        " [--faults PROFILE]\n"
        "             [--supervisor] [--resilience off|guarded|strict]\n"
        "             [--timeline-ms N] [--metrics-out FILE]\n"
        "             [--checkpoint-every N --checkpoint-out FILE]"
        " [--resume FILE]\n"
        "             [--force] [--final-state-out FILE]"
        " [--check-invariants]\n"
        "             [--kill-after-requests N] [--kill-in-checkpoint]\n"
        "             [--listen PORT] [--stale-ms N] [--publish-every N]\n"
        "  chaos      --scenario FILE [--jobs N] [--verify]"
        " [--listen PORT]\n"
        "  faults\n"
        "  bench      [--jobs N] [--scale F] [--seeds K] [--out FILE]\n"
        "             [--baseline FILE] [--max-regress F] [--listen PORT]\n"
        "  help\n"
        "workloads: TPCE Homes Web Exch Live Build 'RW Mixed'\n"
        "fault profiles: none flaky-reads wearout stalls drift storms"
        " hostile\n"
        "resilience policies: off guarded strict\n"
        "%s",
        cli::kExitCodeTable);
    return rc;
}

/** One subcommand: its entry point and every flag it reads. */
struct Command
{
    const char *name;
    int (*run)(const Args &);
    std::vector<std::string> flags;
};

/** The subcommands; dispatch() rejects a flag its command does not
 *  list, so a typo or a retired flag never runs silently ignored. */
const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"fingerprint", cmdFingerprint, {"all", "device", "faults"}},
        {"accuracy", cmdAccuracy,
         {"device", "faults", "workload", "scale", "supervisor",
          "timeline-ms", "min-recovered-accuracy", "metrics-out"}},
        {"trace", cmdTrace,
         {"device", "faults", "workload", "scale", "supervisor",
          "timeline-ms", "out", "binary-out", "metrics-out", "audit-out"}},
        {"trace-convert", cmdTraceConvert, {"in", "out"}},
        {"trace-stats", cmdTraceStats, {"in", "format", "top"}},
        {"synth", cmdSynth, {"workload", "out", "scale", "span"}},
        {"replay", cmdReplay, {"device", "trace", "faults"}},
        {"run", cmdRun,
         {"device", "faults", "workload", "scale", "supervisor",
          "timeline-ms", "resilience", "metrics-out", "checkpoint-every",
          "checkpoint-out", "resume", "force", "final-state-out",
          "check-invariants", "kill-after-requests", "kill-in-checkpoint",
          "hang-after-requests", "listen", "stale-ms", "publish-every"}},
        {"chaos", cmdChaos,
         {"scenario", "jobs", "verify", "listen", "stale-ms"}},
        {"faults", cmdFaults, {}},
        {"bench", cmdBench,
         {"jobs", "scale", "seeds", "out", "baseline", "max-regress",
          "listen", "stale-ms"}},
    };
    return table;
}

int
dispatch(const Args &args)
{
    if (args.command == "help" || args.command == "--help" ||
        args.command == "-h")
        return usage(cli::kOk);
    for (const Command &c : commands()) {
        if (args.command != c.name)
            continue;
        if (!args.positional.empty()) {
            std::fprintf(stderr,
                         "unexpected argument '%s' for '%s' (see ssdcheck "
                         "help)\n",
                         args.positional[0].c_str(), c.name);
            return cli::kBadArgs;
        }
        for (const auto &[key, value] : args.options) {
            if (std::find(c.flags.begin(), c.flags.end(), key) ==
                c.flags.end()) {
                std::fprintf(stderr,
                             "unknown flag --%s for '%s' (see ssdcheck "
                             "help)\n",
                             key.c_str(), c.name);
                return cli::kBadArgs;
            }
        }
        return c.run(args);
    }
    return usage(cli::kUsage);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return dispatch(cli::parseArgs(argc, argv, true));
    } catch (const cli::BadFlag &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return cli::kBadArgs;
    }
}
