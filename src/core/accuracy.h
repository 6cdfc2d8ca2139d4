/**
 * @file
 * Prediction-accuracy evaluation (paper §V-B, Fig. 11).
 *
 * Replays a trace closed-loop (QD1, like the paper's modified fio
 * replay), querying SSDcheck before every request and comparing the
 * predicted class against the measured one. NL accuracy and HL
 * accuracy are per-class recall, reported separately because they
 * matter differently (§II-C): missing an HL request loses a scheduling
 * opportunity; flagging an NL request delays latency-critical work.
 */
#pragma once

#include <cstdint>

#include "blockdev/block_device.h"
#include "core/ssdcheck.h"
#include "obs/sink.h"
#include "sim/sim_time.h"
#include "workload/trace.h"

namespace ssdcheck::recovery {
class StateReader;
class StateWriter;
} // namespace ssdcheck::recovery

namespace ssdcheck::core {

class HealthSupervisor;

/** Confusion counts of one accuracy evaluation. */
struct AccuracyResult
{
    uint64_t nlTotal = 0;
    uint64_t nlCorrect = 0;
    uint64_t hlTotal = 0;
    uint64_t hlCorrect = 0;
    /** Requests that failed or were retried (excluded from recall). */
    uint64_t faulted = 0;

    /** NL recall (1.0 when no NL requests occurred). */
    double nlAccuracy() const
    {
        return nlTotal == 0 ? 1.0
                            : static_cast<double>(nlCorrect) /
                                  static_cast<double>(nlTotal);
    }

    /** HL recall (1.0 when no HL requests occurred). */
    double hlAccuracy() const
    {
        return hlTotal == 0 ? 1.0
                            : static_cast<double>(hlCorrect) /
                                  static_cast<double>(hlTotal);
    }

    /** Fraction of requests that were HL. */
    double hlFraction() const
    {
        const uint64_t total = nlTotal + hlTotal;
        return total == 0 ? 0.0
                          : static_cast<double>(hlTotal) /
                                static_cast<double>(total);
    }

    /** The snapshot Accuracy section: the five counters. */
    void saveState(recovery::StateWriter &w) const;
    bool loadState(recovery::StateReader &r);
};

/** What one host request of the QD1 loop produced. */
struct HostStep
{
    sim::SimTime submitted; ///< Host submit time, after probe I/O.
    blockdev::IoResult res;
};

/**
 * The host loop of the runtime protocol (§IV, Fig. 11): predict
 * before issue, submit, then learn from the completion.
 * evaluatePredictionAccuracy(), recovery::RunStack and
 * usecases::runScheduled run every request through it, so the replay,
 * the checkpointable run and the schedulers cannot drift apart.
 */
class HostLoop
{
  public:
    HostLoop() = default;

    /**
     * @p dev (top of the host stack) gets the model's forecast as its
     * submitHinted() hint — the last ok latency when @p check is null,
     * which also skips the recall fold. Optional @p sup (needs a model)
     * is pumped, fed completions, and passed on via trustForecasts().
     * @p sink: host.request spans, the host_latency_ns histogram
     * (registered here) with registry ticks.
     */
    HostLoop(blockdev::BlockDevice &dev, SsdCheck *check,
             HealthSupervisor *sup, const obs::Sink &sink);

    /** Run @p req issued at host time @p t: pump(), then issue(). */
    HostStep request(const blockdev::IoRequest &req, sim::SimTime t)
    {
        return issue(req, pump(t));
    }

    /** Let the supervisor run its probe I/O up to @p t; returns the
     *  host time after it. */
    sim::SimTime pump(sim::SimTime t);

    /** Predict, submit and learn from @p req at host time @p t. */
    HostStep issue(const blockdev::IoRequest &req, sim::SimTime t);

    AccuracyResult acc;               ///< Recall fold so far.
    sim::SimDuration lastOkLatency = 0; ///< Hint when there is no model.

  private:
    blockdev::BlockDevice *dev_ = nullptr;
    SsdCheck *check_ = nullptr;
    HealthSupervisor *sup_ = nullptr;
    obs::Sink sink_;
    obs::Histogram hostLatency_;
};

/**
 * Replay @p trace on @p dev at QD1 starting at @p startTime, running
 * @p check in predict-before-issue mode (one HostLoop over the trace).
 * @param endTime receives the virtual finish time (optional).
 * @param supervisor optional health supervisor: pumped for probe I/O
 *        between requests and fed every completion.
 * @param sink optional observability targets: host.request spans and
 *        a host-latency histogram per request, plus registry timeline
 *        ticks on completion times. Attaching a sink never changes
 *        the replay's results.
 */
AccuracyResult evaluatePredictionAccuracy(blockdev::BlockDevice &dev,
                                          SsdCheck &check,
                                          const workload::Trace &trace,
                                          sim::SimTime startTime,
                                          sim::SimTime *endTime = nullptr,
                                          HealthSupervisor *supervisor =
                                              nullptr,
                                          const obs::Sink *sink = nullptr);

} // namespace ssdcheck::core

