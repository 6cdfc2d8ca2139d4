#include "perf/grid.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "core/diagnosis.h"
#include "core/ssdcheck.h"
#include "obs/exporter/telemetry.h"
#include "perf/thread_pool.h"
#include "ssd/ssd_device.h"

namespace ssdcheck::perf {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

GridSpec
GridSpec::fig11(double scale)
{
    GridSpec s;
    s.models = ssd::allModels();
    s.workloads = workload::allSniaWorkloads();
    s.scale = scale;
    return s;
}

uint64_t
BatchTiming::simulatedIos() const
{
    uint64_t total = 0;
    for (const auto &t : tasks)
        total += t.simulatedIos;
    return total;
}

double
BatchTiming::iosPerSec() const
{
    return wallSeconds > 0
               ? static_cast<double>(simulatedIos()) / wallSeconds
               : 0.0;
}

double
BatchTiming::taskWallSum() const
{
    double sum = 0;
    for (const auto &t : tasks)
        sum += t.wallSeconds;
    return sum;
}

double
BatchTiming::aggregateSpeedup() const
{
    return wallSeconds > 0 ? taskWallSum() / wallSeconds : 1.0;
}

BatchTiming
runTimedBatch(
    const std::vector<std::pair<std::string, std::function<uint64_t()>>>
        &tasks,
    unsigned jobs)
{
    BatchTiming out;
    out.jobs = jobs == 0 ? 1 : jobs;
    out.tasks.resize(tasks.size());
    const auto batchStart = std::chrono::steady_clock::now();
    {
        // No more workers than tasks: idle threads only cost start-up.
        ThreadPool pool(
            static_cast<unsigned>(std::min<size_t>(out.jobs, tasks.size())));
        out.workerThreads = pool.threads();
        parallelFor(pool, tasks.size(), [&](size_t i) {
            const auto t0 = std::chrono::steady_clock::now();
            const uint64_t ios = tasks[i].second();
            out.tasks[i] =
                TaskTiming{tasks[i].first, secondsSince(t0), ios};
        });
    }
    out.wallSeconds = secondsSince(batchStart);
    return out;
}

GridResult
runGrid(const GridSpec &spec, unsigned jobs)
{
    GridResult out;
    // One shard per (model, seed): the device plus its diagnosis are
    // the expensive shared setup, and carrying one SSDcheck instance
    // across the workloads is the Fig. 11 protocol.
    struct Shard
    {
        ssd::SsdModel model;
        uint64_t seed;
    };
    std::vector<Shard> shards;
    for (const auto m : spec.models)
        for (const auto s : spec.seeds)
            shards.push_back(Shard{m, s});

    // Pre-sized so shard tasks write disjoint slots without locking.
    std::vector<std::vector<GridCell>> cellsByShard(shards.size());

    obs::ShardProgress progress(spec.telemetry, "grid", shards.size(),
                                {"grid_requests_done"});

    std::vector<std::pair<std::string, std::function<uint64_t()>>> tasks;
    tasks.reserve(shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
        const Shard sh = shards[i];
        std::string label = ssd::toString(sh.model);
        if (spec.seeds.size() > 1 || sh.seed != 0)
            label += "/seed" + std::to_string(sh.seed);
        tasks.emplace_back(label, [&spec, sh, i, &cellsByShard,
                                   &progress]() {
            auto dev = std::make_unique<ssd::SsdDevice>(
                ssd::makePreset(sh.model, sh.seed));
            core::DiagnosisRunner runner(*dev, core::DiagnosisConfig{});
            const core::FeatureSet features = runner.extractFeatures();
            core::SsdCheck check(features);
            sim::SimTime now = runner.now();
            uint64_t ios = 0;
            auto &cells = cellsByShard[i];
            cells.reserve(spec.workloads.size());
            for (const auto w : spec.workloads) {
                const auto trace = workload::buildSniaTrace(
                    w, dev->capacityPages(), spec.scale,
                    spec.traceSeedBase + static_cast<uint64_t>(w));
                sim::SimTime end = now;
                GridCell cell;
                cell.model = sh.model;
                cell.workload = w;
                cell.seed = sh.seed;
                cell.accuracy = core::evaluatePredictionAccuracy(
                    *dev, check, trace, now, &end);
                cell.requests = trace.size();
                cell.simEnd = end;
                now = end + spec.interWorkloadGap;
                ios += trace.size();
                cells.push_back(cell);
            }
            progress.shardDone(obs::RunStatus{}, {ios});
            return ios;
        });
    }

    out.timing = runTimedBatch(tasks, jobs);

    // Merge in grid order — independent of scheduling.
    for (auto &shardCells : cellsByShard)
        for (auto &c : shardCells)
            out.cells.push_back(c);

    // Deterministic final publish: all shards merged, cursor = total.
    obs::RunStatus last;
    last.simTimeNs = out.cells.empty() ? 0 : out.cells.back().simEnd.ns();
    progress.finish(last);
    return out;
}

bool
writeBenchGridJson(const std::string &path, const std::string &name,
                   const BatchTiming &timing)
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::ostringstream body;
    body.precision(6);
    body << std::fixed;
    body << "{\n";
    body << "  \"name\": \"" << name << "\",\n";
    body << "  \"jobs\": " << timing.jobs << ",\n";
    body << "  \"worker_threads\": " << timing.workerThreads << ",\n";
    body << "  \"wall_seconds\": " << timing.wallSeconds << ",\n";
    body << "  \"task_wall_sum_seconds\": " << timing.taskWallSum()
         << ",\n";
    body << "  \"aggregate_speedup\": " << timing.aggregateSpeedup()
         << ",\n";
    body << "  \"simulated_ios\": " << timing.simulatedIos() << ",\n";
    body << "  \"ios_per_sec\": " << timing.iosPerSec() << ",\n";
    body << "  \"tasks\": [\n";
    for (size_t i = 0; i < timing.tasks.size(); ++i) {
        const TaskTiming &t = timing.tasks[i];
        body << "    {\"label\": \"" << t.label
             << "\", \"wall_seconds\": " << t.wallSeconds
             << ", \"simulated_ios\": " << t.simulatedIos
             << ", \"ios_per_sec\": " << t.iosPerSec() << "}"
             << (i + 1 < timing.tasks.size() ? "," : "") << "\n";
    }
    body << "  ]\n}\n";
    os << body.str();
    return static_cast<bool>(os);
}

std::optional<double>
readBaselineIosPerSec(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return std::nullopt;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    // The writer emits the aggregate "ios_per_sec" before the
    // per-task entries, so the first occurrence is the right one.
    const size_t key = text.find("\"ios_per_sec\"");
    if (key == std::string::npos)
        return std::nullopt;
    const size_t colon = text.find(':', key);
    if (colon == std::string::npos)
        return std::nullopt;
    // The number token runs to the next ',' '}' or whitespace; all of
    // it must parse, and a floor needs a finite positive value.
    const size_t begin = text.find_first_not_of(" \t\r\n", colon + 1);
    if (begin == std::string::npos)
        return std::nullopt;
    size_t stop = text.find_first_of(",} \t\r\n", begin);
    if (stop == std::string::npos)
        stop = text.size();
    double v = 0;
    const char *first = text.data() + begin;
    const char *last = text.data() + stop;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last || !std::isfinite(v) || v <= 0)
        return std::nullopt;
    return v;
}

} // namespace ssdcheck::perf
