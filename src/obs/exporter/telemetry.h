/**
 * @file
 * The live telemetry plane's snapshot hub and renderers.
 *
 * Publish rule (the determinism argument, see DESIGN.md "Live
 * telemetry"): the run loop calls TelemetryHub::publish() at QD1 step
 * barriers, which deep-copies the registry into an immutable
 * TelemetrySnapshot and swaps it in under a mutex. The HTTP thread
 * only ever reads the latest immutable snapshot — it never touches
 * live simulator state — so attaching a hub cannot perturb results,
 * and runs with `--listen` are bit-identical to runs without it.
 *
 * src/obs/exporter is the one obs directory allowlisted for wall
 * clocks (lint R1): snapshots carry a wall-clock publish stamp that
 * /healthz compares against now to detect a stuck or killed run loop.
 *
 * Rendering is pure over a snapshot: renderPrometheus() emits text
 * exposition format 0.0.4 (HELP/TYPE per family in first-registration
 * order, escaped label values, cumulative `_bucket`/`_sum`/`_count`
 * plus interpolated p50/p95/p99/p99.9 quantile gauges), renderRunz()
 * a JSON run-progress document. Both are byte-stable functions of the
 * snapshot contents.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/annotations.h"
#include "obs/registry.h"

namespace ssdcheck::obs {

/** Run progress published alongside the metric snapshot (/runz). */
struct RunStatus
{
    std::string phase;           ///< "run" | "grid" | "chaos" | "done".
    uint64_t cursor = 0;         ///< Requests replayed so far.
    uint64_t totalRequests = 0;  ///< Trace length (0 when open-ended).
    int64_t simTimeNs = 0;       ///< Virtual time of the run.
    uint64_t checkpoints = 0;    ///< Checkpoints written so far.
    uint8_t breakerState = 0;    ///< resilience::BreakerState.
    uint8_t ladderLevel = 0;     ///< resilience::DegradationLevel.
    uint64_t shedTotal = 0;      ///< Requests shed by the policy layer.
    uint64_t errorBudgetPpm = 0; ///< SLO error budget consumed (ppm).
    uint8_t supervisorState = 0; ///< core::HealthSupervisor state.
    bool healthy = true;         ///< Publisher's own health verdict.
};

/** One immutable published snapshot (shared with the HTTP thread). */
struct TelemetrySnapshot
{
    uint64_t sequence = 0; ///< Monotonic publish counter.
    uint64_t wallNs = 0;   ///< Wall-clock publish stamp (staleness).
    std::vector<MetricSnapshot> metrics;
    RunStatus run;
};

/**
 * The atomic double-buffer between one publisher (the run loop) and
 * any number of reader threads (the HTTP server). publish() is the
 * only wall-clock-touching mutation; readers share the latest
 * immutable snapshot by shared_ptr.
 */
class TelemetryHub
{
  public:
    TelemetryHub() = default;
    TelemetryHub(const TelemetryHub &) = delete;
    TelemetryHub &operator=(const TelemetryHub &) = delete;

    /** Deep-copy @p reg + @p run into a fresh immutable snapshot and
     *  make it the current one (stamps sequence and wall time). */
    void publish(const Registry &reg, const RunStatus &run);

    /** Latest published snapshot; null before the first publish. */
    std::shared_ptr<const TelemetrySnapshot> snapshot() const;

    /** Publishes so far (tests/introspection). */
    uint64_t sequence() const;

  private:
    mutable std::mutex mu_;
    std::shared_ptr<const TelemetrySnapshot> snap_;
    uint64_t sequence_ = 0;
};

/**
 * The one progress publisher of a sharded loop (the grid, a chaos
 * campaign). Shard tasks on any thread report completion here; with a
 * hub attached, each report publishes a campaign view. The private
 * registry holds `<phase>_shards_done` followed by the caller's named
 * counters, each a campaign total. Every published RunStatus has
 * cursor = shards done, totalRequests = shard count and shedTotal =
 * the shards' shedTotal summed so far. One mutex orders the counter
 * updates and the publish (the annotated core::Mutex, so Clang checks
 * it), and concurrent completions publish consistent snapshots.
 * Without a hub every call is a no-op.
 */
class ShardProgress
{
  public:
    ShardProgress(TelemetryHub *hub, const std::string &phase,
                  uint64_t shards, const std::vector<std::string> &counters);
    ShardProgress(const ShardProgress &) = delete;
    ShardProgress &operator=(const ShardProgress &) = delete;

    /** One shard finished: add @p deltas to the named counters (in
     *  constructor order) and publish @p st under the phase. */
    void shardDone(RunStatus st, const std::vector<uint64_t> &deltas);

    /** The final publish, once every shard is merged: phase "done". */
    void finish(RunStatus st);

  private:
    void publish(RunStatus st, const std::string &phase)
        SSDCHECK_REQUIRES(mu_);

    TelemetryHub *const hub_;
    const std::string phase_;
    const uint64_t shards_;
    core::Mutex mu_;
    Registry reg_ SSDCHECK_GUARDED_BY(mu_);
    uint64_t shardsDone_ SSDCHECK_GUARDED_BY(mu_) = 0;
    uint64_t shedTotal_ SSDCHECK_GUARDED_BY(mu_) = 0;
    /** Sized once: the registry views its elements. */
    std::vector<uint64_t> totals_ SSDCHECK_GUARDED_BY(mu_);
};

/** Prometheus text exposition (format 0.0.4) of @p snap. */
std::string renderPrometheus(const TelemetrySnapshot &snap);

/** JSON run-progress document served at /runz. */
std::string renderRunz(const TelemetrySnapshot &snap);

/**
 * /healthz verdict: healthy iff a snapshot exists, its publish stamp
 * is no older than @p staleNs against @p nowWallNs, and the publisher
 * reported itself healthy. @p body receives a small JSON document
 * either way.
 */
bool renderHealthz(const TelemetrySnapshot *snap, uint64_t nowWallNs,
                   uint64_t staleNs, std::string *body);

/** Wall-clock now for staleness checks (exporter-local clock read). */
uint64_t exporterWallNs();

/** Escape a label value per the exposition format (\\, \", \n). */
std::string escapeLabelValue(const std::string &v);

} // namespace ssdcheck::obs
