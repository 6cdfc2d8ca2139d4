/**
 * @file
 * Typed metrics registry (the observability tentpole's second
 * pillar) — the single source of truth for counters previously
 * scattered across ad-hoc structs (VolumeCounters, FaultCounters,
 * ResilienceCounters, HealthCounters).
 *
 * Two ways onto the registry:
 *  - Owned histograms: histogram() returns a light handle over
 *    registry-owned buckets (get-or-create by name+labels, so callers
 *    need no registration phase). A hot-path observe is one
 *    pointer-indirect bucket add.
 *  - Exported views: exportCounter()/exportGauge() register a pointer
 *    into an existing component-owned struct; the registry reads it at
 *    snapshot time. This is how the legacy counter structs surface
 *    without double counting — the component keeps its struct, the
 *    registry becomes the reporting surface.
 *
 * Determinism: metrics snapshot in registration order (attach order is
 * deterministic), values are integers, and the JSON writer uses no
 * float formatting — the same run produces a byte-identical snapshot.
 * Sim-time-only: the optional timeline samples on sim::SimTime ticks
 * fed by the replay loop, never on the wall clock.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_time.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::obs {

/** Metric labels, e.g. {{"device","A"},{"volume","0"}}. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Registry-owned histogram state (fixed upper-bound buckets). */
struct HistogramData
{
    std::vector<int64_t> bounds;  ///< Inclusive upper bounds, ascending.
    std::vector<uint64_t> counts; ///< bounds.size() + 1 (+inf) buckets.
    uint64_t count = 0;
    int64_t sum = 0;
};

/**
 * Bucket-interpolated quantile estimate (integer math only, so the
 * result is byte-stable across hosts). @p permille is the quantile in
 * thousandths (500 = p50, 999 = p99.9). Linear interpolation within
 * the covering bucket; the +inf bucket clamps to the last finite
 * bound. 0 when the histogram is empty. Shared by the JSON snapshot
 * and the Prometheus exporter's quantile gauges.
 */
int64_t histogramQuantile(const HistogramData &h, uint32_t permille);

/** One metric copied out of the registry (see snapshotMetrics()). */
struct MetricSnapshot
{
    enum class Type : uint8_t
    {
        Counter,
        Gauge,
        Histogram,
    };

    std::string name;
    Labels labels;
    Type type = Type::Counter;
    int64_t value = 0;  ///< Counter/gauge value; histogram count.
    HistogramData hist; ///< Histogram detail (empty otherwise).
};

/** Handle to a registry-owned histogram. */
class Histogram
{
  public:
    Histogram() = default;

    /** Bucket @p v (inline: one observe per replayed request). */
    void observe(int64_t v)
    {
        if (d_ == nullptr)
            return;
        size_t i = 0;
        while (i < d_->bounds.size() && v > d_->bounds[i])
            ++i;
        ++d_->counts[i];
        ++d_->count;
        d_->sum += v;
    }
    uint64_t count() const { return d_ == nullptr ? 0 : d_->count; }
    int64_t sum() const { return d_ == nullptr ? 0 : d_->sum; }

  private:
    friend class Registry;
    explicit Histogram(HistogramData *d) : d_(d) {}
    HistogramData *d_ = nullptr;
};

/** The registry: owned histograms + exported views + timeline. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;
    ~Registry();

    // -- owned histograms (get-or-create by name+labels) ------------------
    /** @param bounds ascending inclusive upper bounds in the metric's
     *        unit; a final +inf bucket is implicit. */
    Histogram histogram(const std::string &name,
                        std::vector<int64_t> bounds, Labels labels = {});

    // -- exported views (component-owned storage) -------------------------
    /** Surface an existing uint64 counter field. @p src must outlive
     *  the registry (or be removed via dropExports). */
    void exportCounter(const std::string &name, Labels labels,
                       const uint64_t *src);
    /** Surface an existing int64 field (gauges, SimDurations). */
    void exportGauge(const std::string &name, Labels labels,
                     const int64_t *src);
    /** Surface an existing uint8 field (small state enums). */
    void exportGauge(const std::string &name, Labels labels,
                     const uint8_t *src);

    /** Current value of a metric; nullopt when absent. Histograms
     *  report their observation count. */
    std::optional<int64_t> value(const std::string &name,
                                 const Labels &labels = {}) const;

    /** Registered metrics (tests/introspection). */
    size_t size() const;

    /**
     * Deep-copy every metric, in registration order, resolving view
     * sources to their current values. The returned vector shares no
     * storage with the registry — the telemetry publisher hands it to
     * the exporter thread as an immutable snapshot.
     */
    std::vector<MetricSnapshot> snapshotMetrics() const;

    // -- timeline ---------------------------------------------------------
    /** Start sampling every metric's value each @p interval of fed
     *  sim time (see tick()). */
    void enableTimeline(sim::SimDuration interval);

    /** Feed the current sim time; appends a timeline sample when the
     *  interval elapsed. Near-zero when the timeline is disabled. */
    void tick(sim::SimTime now)
    {
        if (timelineInterval_ > 0 && now >= timelineNext_)
            sample(now);
    }

    /** Timeline samples taken so far. */
    size_t timelineSamples() const;

    // -- export -----------------------------------------------------------
    /**
     * JSON snapshot: every metric (name, labels, type, value; full
     * bucket detail for histograms) plus the timeline when enabled.
     */
    void writeJson(std::ostream &os, sim::SimTime now) const;

    /** writeJson into a string (tests, golden snapshots). */
    std::string toJson(sim::SimTime now) const;

    /**
     * Serialize owned histograms and the timeline. Exported views
     * are skipped: their storage lives in component structs that
     * serialize themselves; after a component-level restore the views
     * read the restored values with no further work.
     */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState(). Every owned histogram must
     *  already be registered, in the same order, with the same name
     *  and shape. @return reader still ok. */
    bool loadState(recovery::StateReader &r);

  private:
    struct Metric;
    struct TimelineSample
    {
        sim::SimTime time;
        std::vector<int64_t> values; ///< One per metric, in order.
    };

    Metric *find(const std::string &name, const Labels &labels) const;
    Metric &add(Metric m);
    void sample(sim::SimTime now);
    static int64_t read(const Metric &m);

    std::vector<Metric *> metrics_; ///< Owned; stable addresses.
    std::vector<TimelineSample> timeline_;
    sim::SimDuration timelineInterval_ = 0; // snapshot:skip(run-setup config; the restore path calls enableTimeline from RunParams, only the timelineNext_ deadline is state)
    sim::SimTime timelineNext_;
};

} // namespace ssdcheck::obs
