#include "core/accuracy.h"

#include "core/health_supervisor.h"
#include "recovery/state_io.h"

namespace ssdcheck::core {

namespace {

/** Host-latency histogram bounds (ns): 50µs .. 100ms decades. */
const std::vector<int64_t> kHostLatencyBounds = {
    50'000,     100'000,    250'000,    500'000,    1'000'000,
    2'500'000,  5'000'000,  10'000'000, 25'000'000, 100'000'000};

} // namespace

void
AccuracyResult::saveState(recovery::StateWriter &w) const
{
    w.u64(nlTotal);
    w.u64(nlCorrect);
    w.u64(hlTotal);
    w.u64(hlCorrect);
    w.u64(faulted);
}

bool
AccuracyResult::loadState(recovery::StateReader &r)
{
    nlTotal = r.u64();
    nlCorrect = r.u64();
    hlTotal = r.u64();
    hlCorrect = r.u64();
    faulted = r.u64();
    return r.ok();
}

HostLoop::HostLoop(blockdev::BlockDevice &dev, SsdCheck *check,
                   HealthSupervisor *sup, const obs::Sink &sink)
    : dev_(&dev), check_(check), sup_(sup), sink_(sink)
{
    if (sink_.metrics != nullptr)
        hostLatency_ =
            sink_.metrics->histogram("host_latency_ns", kHostLatencyBounds);
}

sim::SimTime
HostLoop::pump(sim::SimTime t)
{
    return sup_ != nullptr ? sup_->pump(t) : t;
}

HostStep
HostLoop::issue(const blockdev::IoRequest &req, sim::SimTime t)
{
    Prediction pred;
    if (check_ != nullptr) {
        pred = check_->predict(req, t);
        check_->onSubmit(req, t);
    }
    if (sup_ != nullptr)
        dev_->trustForecasts(forecastsTrusted(sup_->state()));
    // Without a model the last ok latency is the hint: a crude
    // predictor, but deterministic and monotone in slowness.
    const blockdev::IoResult res = dev_->submitHinted(
        req, t, check_ != nullptr ? pred.eet : lastOkLatency);
    bool actualHl = false;
    if (check_ != nullptr) {
        actualHl = check_->onComplete(req, pred, t, res.completeTime,
                                      res.status, res.attempts);
        if (sup_ != nullptr)
            sup_->onCompletion(req, actualHl, res);
    }
    if (sink_.trace != nullptr) {
        obs::TraceArg *a = sink_.trace->completeFill(
            "host", "host.request",
            obs::TraceTrack{obs::kHostPid, obs::kHostWorkloadTid}, t,
            res.completeTime - t, 4);
        a[0] = {"lba", static_cast<int64_t>(req.lba)};
        a[1] = {"write", req.isWrite() ? 1 : 0};
        a[2] = {"pred_hl", pred.hl ? 1 : 0};
        a[3] = {"actual_hl", actualHl ? 1 : 0};
    }
    if (sink_.metrics != nullptr) {
        hostLatency_.observe(res.completeTime - t);
        sink_.metrics->tick(res.completeTime);
    }
    if (res.ok())
        lastOkLatency = res.completeTime - t;
    if (check_ == nullptr)
        return {t, res};
    if (!res.ok() || res.attempts > 1) {
        // Error-path exchanges measure the resilience layer, not the
        // prediction model; keep recall clean of them.
        ++acc.faulted;
    } else if (actualHl) {
        ++acc.hlTotal;
        if (pred.hl)
            ++acc.hlCorrect;
    } else {
        ++acc.nlTotal;
        if (!pred.hl)
            ++acc.nlCorrect;
    }
    return {t, res};
}

AccuracyResult
evaluatePredictionAccuracy(blockdev::BlockDevice &dev, SsdCheck &check,
                           const workload::Trace &trace,
                           sim::SimTime startTime, sim::SimTime *endTime,
                           HealthSupervisor *supervisor,
                           const obs::Sink *sink)
{
    if (sink != nullptr && sink->audit != nullptr)
        sink->audit->reserve(sink->audit->size() + trace.records().size());
    HostLoop loop(dev, &check, supervisor,
                  sink != nullptr ? *sink : obs::Sink{});
    sim::SimTime t = startTime;
    for (const auto &rec : trace.records())
        t = loop.request(rec.req, t).res.completeTime;
    if (endTime != nullptr)
        *endTime = t;
    return loop.acc;
}

} // namespace ssdcheck::core
