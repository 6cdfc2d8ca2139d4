#include "usecases/runner.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "core/accuracy.h"

namespace ssdcheck::usecases {

double
StreamResult::throughputMbps() const
{
    const sim::SimDuration span = endTime - startTime;
    if (span <= 0)
        return 0.0;
    return static_cast<double>(bytes) / 1e6 / sim::toSeconds(span);
}

namespace {

void
record(StreamResult &out, const blockdev::IoRequest &req,
       sim::SimTime issue, sim::SimTime baseline,
       const blockdev::IoResult &res)
{
    const sim::SimTime complete = res.completeTime;
    const sim::SimDuration lat = complete - baseline;
    out.latency.add(lat);
    if (req.isRead())
        out.readLatency.add(lat);
    else if (req.isWrite())
        out.writeLatency.add(lat);
    // Timeline windows are relative to the stream's own start so runs
    // launched late in virtual time don't carry empty leading windows.
    out.timeline.add(complete - out.startTime, req.bytes());
    ++out.requests;
    out.bytes += req.bytes();
    (void)issue;
}

} // namespace

StreamResult
runClosedLoop(blockdev::BlockDevice &dev, const workload::Trace &trace,
              uint32_t queueDepth, sim::SimDuration thinktime,
              sim::SimTime start)
{
    assert(queueDepth > 0);
    StreamResult out;
    out.name = trace.name();
    out.startTime = start;

    std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                        std::greater<>> inflight;
    sim::SimTime t = start;
    sim::SimTime lastComplete = start;
    for (const auto &rec : trace.records()) {
        if (inflight.size() >= queueDepth) {
            t = std::max(t, inflight.top());
            inflight.pop();
        }
        const auto res = dev.submit(rec.req, t);
        record(out, rec.req, t, t, res);
        inflight.push(res.completeTime + thinktime);
        lastComplete = std::max(lastComplete, res.completeTime);
    }
    out.endTime = lastComplete;
    return out;
}

std::vector<StreamResult>
runTenantsClosedLoop(const std::vector<TenantSpec> &tenants,
                     sim::SimTime start)
{
    struct State
    {
        size_t next = 0;           ///< Next trace index.
        sim::SimTime ready;    ///< Earliest next submission.
    };
    std::vector<StreamResult> out(tenants.size());
    std::vector<State> st(tenants.size());
    for (size_t i = 0; i < tenants.size(); ++i) {
        out[i].name = tenants[i].name.empty() ? tenants[i].trace->name()
                                              : tenants[i].name;
        out[i].startTime = start;
        out[i].endTime = start;
        st[i].ready = start;
    }

    auto allForegroundDone = [&]() {
        for (size_t i = 0; i < tenants.size(); ++i) {
            if (!tenants[i].loop && st[i].next < tenants[i].trace->size())
                return false;
        }
        return true;
    };

    while (!allForegroundDone()) {
        // Pick the runnable tenant with the earliest next submission.
        size_t best = tenants.size();
        for (size_t i = 0; i < tenants.size(); ++i) {
            if (!tenants[i].loop && st[i].next >= tenants[i].trace->size())
                continue;
            if (best == tenants.size() || st[i].ready < st[best].ready)
                best = i;
        }
        assert(best < tenants.size());

        State &s = st[best];
        const auto &rec =
            (*tenants[best].trace)[s.next % tenants[best].trace->size()];
        const auto res = tenants[best].dev->submit(rec.req, s.ready);
        record(out[best], rec.req, s.ready, s.ready, res);
        out[best].endTime = std::max(out[best].endTime, res.completeTime);
        s.ready = res.completeTime + tenants[best].thinktime;
        ++s.next;
    }
    return out;
}

ScheduledRunResult
runScheduled(blockdev::BlockDevice &dev, Scheduler &sched,
             const workload::Trace &trace, sim::SimTime start,
             core::SsdCheck *check, uint32_t dispatchWidth,
             core::HealthSupervisor *supervisor)
{
    assert(dispatchWidth > 0);
    assert(supervisor == nullptr || check != nullptr);
    ScheduledRunResult out;
    out.schedulerName = sched.name();
    out.stream.name = trace.name();
    out.stream.startTime = start;

    const auto &records = trace.records();
    size_t next = 0;
    uint64_t seq = 0;
    sim::SimTime t = start;
    // Completion times of requests currently at the device.
    std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                        std::greater<>> inflight;
    core::HostLoop loop(dev, check, supervisor, obs::Sink{});

    while (next < records.size() || !sched.empty()) {
        if (sched.empty()) {
            // Idle until the next arrival (in-flight work continues).
            t = std::max(t, start + records[next].arrival);
        }
        while (next < records.size() &&
               start + records[next].arrival <= t) {
            QueuedRequest qr;
            qr.req = records[next].req;
            qr.arrival = start + records[next].arrival;
            qr.seq = seq++;
            sched.enqueue(qr);
            ++next;
        }
        out.maxQueueDepth = std::max<uint64_t>(out.maxQueueDepth,
                                               sched.depth());
        if (sched.empty())
            continue;

        // Wait for a free dispatch slot.
        if (inflight.size() >= dispatchWidth) {
            t = std::max(t, inflight.top());
            inflight.pop();
            continue; // new arrivals may have landed meanwhile
        }

        // The supervisor's probes go first: the dispatch decision sees
        // the clock after them.
        t = loop.pump(t);
        const QueuedRequest qr = sched.dequeue(t);
        const blockdev::IoResult res = loop.issue(qr.req, t).res;
        inflight.push(res.completeTime);
        // Latency includes queueing: completion minus arrival.
        record(out.stream, qr.req, t, qr.arrival, res);
        out.stream.endTime = std::max(out.stream.endTime, res.completeTime);
        if (dispatchWidth == 1) {
            // Classic QD1 dispatch: next decision at completion.
            t = res.completeTime;
            inflight.pop();
        }
    }
    return out;
}

} // namespace ssdcheck::usecases
