#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>

#include "blockdev/resilient_device.h"
#include "core/diagnosis.h"
#include "core/health_supervisor.h"
#include "obs/trace_binary.h"
#include "perf/grid.h"
#include "probe.h"
#include "recovery/invariants.h"
#include "recovery/run_state.h"
#include "resilience/policy.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "stats/latency_recorder.h"
#include "usecases/pas.h"
#include "usecases/runner.h"
#include "workload/snia_synth.h"

namespace perfbench {

namespace {

using blockdev::BlockDevice;
using blockdev::IoRequest;
using blockdev::IoResult;

/** splitmix64 of (seed, stream): every derived input seed. */
uint64_t
derive(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
pct(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0
                    : 100.0 * static_cast<double>(num) /
                          static_cast<double>(den);
}

/** Correctness checks; each failure is printed to stderr. */
struct Checker
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    bool expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                         what.c_str());
        }
        return ok;
    }
};

void
accumulate(core::AccuracyResult &sum, const core::AccuracyResult &a)
{
    sum.nlTotal += a.nlTotal;
    sum.nlCorrect += a.nlCorrect;
    sum.hlTotal += a.hlTotal;
    sum.hlCorrect += a.hlCorrect;
    sum.faulted += a.faulted;
}

/** Simulated outcomes of one pass (simulated time only). */
struct SimTally
{
    stats::LatencyRecorder reads; ///< Read latency from arrival.
    uint64_t requests = 0;
    uint64_t ok = 0;       ///< Completed Ok (see README per workload).
    uint64_t okBytes = 0;  ///< Bytes moved by Ok requests.
    sim::SimDuration simNs = 0;
    core::AccuracyResult acc;

};

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (const double x : v)
        s += x;
    return s;
}

/**
 * What one pass measured in host time, plus its digests. Set-up and
 * timed phase are each recorded as pieces of work (a preset's
 * diagnosis, a grid cell, the steps up to a checkpoint, ...) that
 * every pass repeats identically.
 */
struct Pass
{
    std::vector<double> setup; ///< Host seconds per set-up piece.
    std::vector<double> timed; ///< Host seconds per timed piece.
    uint64_t requests = 0;
    std::string result; ///< What the program's calls returned.
    std::string digest; ///< Per-request outcomes (checked/traced only).
};

/**
 * How a pass runs its timed phase. Timed passes call the program's
 * entry points and nothing else; they give req_per_s, setup_s and
 * peak_rss_mib. The checked pass runs once, after them, with the
 * benchmark's per-request folds and the workload's correctness
 * checks. Traced passes are checked passes with spans.
 */
enum class Mode { Timed, Checked, Traced };

/** Device-model counters over one phase (simulated work done). */
struct DeviceCounts
{
    ssd::VolumeCounters c;

    void add(const ssd::VolumeCounters &after,
             const ssd::VolumeCounters &before)
    {
        c.writes += after.writes - before.writes;
        c.reads += after.reads - before.reads;
        c.flushes += after.flushes - before.flushes;
        c.backpressureStalls +=
            after.backpressureStalls - before.backpressureStalls;
        c.gcInvocations += after.gcInvocations - before.gcInvocations;
        c.gcPagesMoved += after.gcPagesMoved - before.gcPagesMoved;
        c.bufferHits += after.bufferHits - before.bufferHits;
    }
};

void
foldCounters(Digest &d, const ssd::VolumeCounters &c)
{
    for (const uint64_t v :
         {c.writes, c.reads, c.flushes, c.backpressureStalls,
          c.gcInvocations, c.gcBlocksErased, c.gcPagesMoved,
          c.slcMigrations, c.bufferHits, c.wearLevelMoves,
          c.readRefreshMoves, c.retiredBlocks})
        d.add(v);
}

void
foldAccuracy(Digest &d, const core::AccuracyResult &a)
{
    for (const uint64_t v :
         {a.nlTotal, a.nlCorrect, a.hlTotal, a.hlCorrect, a.faulted})
        d.add(v);
}

void
foldBytes(Digest &d, const std::vector<uint8_t> &bytes)
{
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        uint64_t w;
        std::memcpy(&w, bytes.data() + i, 8);
        d.add(w);
    }
    for (; i < bytes.size(); ++i)
        d.add(static_cast<uint64_t>(bytes[i]));
    d.add(static_cast<uint64_t>(bytes.size()));
}

/**
 * Host seconds of one pass's work, each piece at its median over
 * @p passes. Every pass does identical simulated work (the digests
 * prove it), so a piece's time varies only with the host.
 */
double
medianSum(const std::vector<Pass> &passes, std::vector<double> Pass::*pieces)
{
    double total = 0;
    for (size_t i = 0; i < (passes[0].*pieces).size(); ++i) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back((p.*pieces)[i]);
        total += median(std::move(v));
    }
    return total;
}

class Report
{
  public:
    explicit Report(Result *r) : r_(r) {}

    void add(const std::string &name, double value, const std::string &unit)
    {
        r_->metrics.push_back(Metric{name, value, unit});
    }

    /** Median/tail/count of one timed call (@p scale converts ns). */
    void timed(const std::string &name, const Tracer::Stats &s,
               double scale, const std::string &unit)
    {
        const Summary sum = summarize(s.hist, scale);
        add(name, sum.median, unit);
        add(name + ".tail", sum.tail, unit);
        add(name + ".tail_pct", sum.tailPct, "%");
        add(name + ".count", static_cast<double>(sum.count), "count");
    }

    /** Host-time end-to-end metrics over the timed passes. */
    void hostTimes(const std::vector<Pass> &passes, double peakRss)
    {
        add("req_per_s",
            static_cast<double>(passes[0].requests) /
                medianSum(passes, &Pass::timed),
            "1/s");
        add("setup_s", medianSum(passes, &Pass::setup), "s");
        add("peak_rss_mib", peakRss, "MiB");
    }

    /** Simulated end-to-end metrics (latencies in ns). */
    void simulated(double hlPct, double nlPct, double okPct, double p50Ns,
                   double p999Ns, double mbps)
    {
        add("hl_recall_pct", hlPct, "%");
        add("nl_recall_pct", nlPct, "%");
        add("sim_ok_pct", okPct, "%");
        add("sim_read_p50_us", p50Ns / 1e3, "us");
        add("sim_read_p999_us", p999Ns / 1e3, "us");
        add("sim_mbps", mbps, "MB/s");
    }

    void endToEnd(const std::vector<Pass> &passes, double peakRss,
                  const SimTally &sim)
    {
        hostTimes(passes, peakRss);
        simulated(pct(sim.acc.hlCorrect, sim.acc.hlTotal),
                  pct(sim.acc.nlCorrect, sim.acc.nlTotal),
                  pct(sim.ok, sim.requests),
                  static_cast<double>(sim.reads.percentile(50)),
                  static_cast<double>(sim.reads.percentile(99.9)),
                  sim.simNs > 0 ? static_cast<double>(sim.okBytes) / 1e6 /
                                      (static_cast<double>(sim.simNs) / 1e9)
                                : 0.0);
    }

    void deviceCounts(const DeviceCounts &d)
    {
        const ssd::VolumeCounters &c = d.c;
        add("ssd.flushes", static_cast<double>(c.flushes), "count");
        add("ssd.gc_invocations", static_cast<double>(c.gcInvocations),
            "count");
        add("ssd.gc_pages_moved", static_cast<double>(c.gcPagesMoved),
            "count");
        add("ssd.write_amp",
            c.writes == 0 ? 0.0
                          : static_cast<double>(c.writes + c.gcPagesMoved) /
                                static_cast<double>(c.writes),
            "ratio");
        add("ssd.buffer_hit_pct", pct(c.bufferHits, c.reads), "%");
        add("ssd.backpressure_stalls",
            static_cast<double>(c.backpressureStalls), "count");
    }

    /** Calibration, tracing overhead and closure of a traced run. */
    void tracing(const Calibration &cal, double untracedS, double tracedS,
                 double selfS)
    {
        add("bench.clock_ns", cal.clockNs, "ns");
        add("bench.span_cost_ns", cal.spanNs, "ns");
        add("bench.trace_overhead_pct", (tracedS / untracedS - 1.0) * 100.0,
            "%");
        add("bench.closure_pct", selfS / untracedS * 100.0, "%");
    }

  private:
    Result *r_;
};

/** All passes of one run, and the outputs kept for reporting. */
template <typename Out>
struct Runs
{
    std::vector<Pass> passes; ///< Timed and traced passes, in order.
    Pass check;               ///< The checked pass.
    Out checked;              ///< ... and its outputs.
    Out traced;               ///< The first traced pass's outputs.
    std::string tracedDigest; ///< ... and its per-request digest.
    double peakRss = 0;   ///< At the end of pass 0's timed phase.
    double untracedS = 0; ///< Mean timed seconds of timed passes.
    double tracedS = 0;   ///< ... and of traced passes.
    double fastestS = 0;  ///< Fastest timed pass's timed seconds.
    size_t tracedPasses = 0;
};

/** Runs of each ablation rung; the fastest one counts. */
constexpr int kRungRepeats = 3;

void
logPass(const std::string &what, const Pass &p)
{
    std::fprintf(stderr, "%s: setup %.3f s, timed %.3f s, %.0f req/s\n",
                 what.c_str(), sum(p.setup), sum(p.timed),
                 static_cast<double>(p.requests) / sum(p.timed));
}

/**
 * Run passes while the next one, if it takes as long as the last,
 * still ends within @p o.seconds of host time; then the checked pass.
 * Untraced runs make at least three timed passes (set-up and rate
 * medians); traced runs alternate timed and traced passes.
 * pass(mode, tracer, chk, out, peakRss) runs one pass from scratch;
 * the tracer is null unless the mode is Traced. Every pass must
 * return the checked pass's results, and every traced pass must
 * reproduce its per-request digest.
 */
template <typename Out, typename PassFn>
Runs<Out>
runPasses(const Options &o, Tracer *tracer, Checker &chk, PassFn &&pass)
{
    Runs<Out> r;
    const size_t minPasses = o.trace ? 2 : 3;
    size_t untraced = 0;
    const int64_t t0 = hostNs();
    int64_t last = 0; // Host ns of the latest pass.
    do {
        const int64_t p0 = hostNs();
        const size_t i = r.passes.size();
        Tracer *tr = tracer != nullptr && i % 2 == 1 ? tracer : nullptr;
        Out out;
        double peak = 0;
        const Pass p = pass(tr != nullptr ? Mode::Traced : Mode::Timed, tr,
                            chk, out, &peak);
        logPass("pass " + std::to_string(i) +
                    (tr != nullptr ? " (traced)" : ""),
                p);
        if (tr != nullptr) {
            r.tracedS += sum(p.timed);
            if (r.tracedPasses++ == 0) {
                r.traced = std::move(out);
                r.tracedDigest = p.digest;
            }
        } else {
            r.untracedS += sum(p.timed);
            r.fastestS = untraced++ == 0 ? sum(p.timed)
                                         : std::min(r.fastestS, sum(p.timed));
        }
        if (i == 0)
            r.peakRss = peak;
        r.passes.push_back(p);
        last = hostNs() - p0;
    } while (r.passes.size() < minPasses ||
             secondsBetween(t0, hostNs() + last) <= o.seconds);
    r.untracedS /= static_cast<double>(untraced);
    if (r.tracedPasses > 0)
        r.tracedS /= static_cast<double>(r.tracedPasses);

    double peak = 0;
    r.check = pass(Mode::Checked, nullptr, chk, r.checked, &peak);
    logPass("checked pass", r.check);
    for (size_t i = 0; i < r.passes.size(); ++i) {
        const Pass &p = r.passes[i];
        if (p.digest.empty())
            chk.expect(p.setup.size() == r.passes[0].setup.size() &&
                           p.timed.size() == r.passes[0].timed.size(),
                       "pass " + std::to_string(i) +
                           " splits its work into other pieces");
        chk.expect(p.result == r.check.result,
                   "pass " + std::to_string(i) + " results " + p.result +
                       " differ from the checked pass's " + r.check.result);
        if (!p.digest.empty())
            chk.expect(p.digest == r.check.digest,
                       "traced pass " + std::to_string(i) + " digest " +
                           p.digest + " differs from the checked pass's " +
                           r.check.digest);
    }
    return r;
}

/** A calibrated tracer for traced runs, else null. */
std::unique_ptr<Tracer>
makeTracer(const Options &o)
{
    return o.trace ? std::make_unique<Tracer>(Tracer::calibrate()) : nullptr;
}

/** The tracing metrics of a traced run, and its span file. */
void
finishTrace(const Options &o, const Tracer &tr, double untracedS,
            double tracedS, double selfS, Report &rep, Checker &chk)
{
    rep.tracing(tr.calibration(), untracedS, tracedS, selfS);
    if (!o.spanOut.empty())
        chk.expect(tr.writeChromeJson(o.spanOut),
                   "could not write " + o.spanOut);
}

/** Digest, size and check counts of a finished run. */
template <typename Out>
void
finishResult(const Options &o, const Runs<Out> &runs, const Checker &chk,
             Result *r)
{
    // A traced run reports its first traced pass's digest, so callers
    // can compare traced and untraced runs directly.
    r->digest = o.trace ? runs.tracedDigest : runs.check.digest;
    r->requests = runs.passes[0].requests;
    r->checks = chk.attempted;
    r->failed = chk.failed;
}

/** Span ids of the QD1 predict-before-issue loop. */
struct LoopSpans
{
    uint32_t replay = 0, predict = 0, onSubmit = 0, onComplete = 0,
             supervisor = 0, policy = 0;

    explicit LoopSpans(Tracer *t)
    {
        if (t == nullptr)
            return;
        replay = t->id("bench.replay");
        predict = t->id("core.predict");
        onSubmit = t->id("core.on_submit");
        onComplete = t->id("core.on_complete");
        supervisor = t->id("core.supervisor");
        policy = t->id("resilience.submit");
    }
};

/** Accuracy bookkeeping of core::evaluatePredictionAccuracy. */
uint64_t
classify(core::AccuracyResult &acc, const IoResult &res, bool predHl,
         bool actualHl)
{
    if (!res.ok() || res.attempts > 1) {
        ++acc.faulted;
        return 0;
    }
    if (actualHl) {
        ++acc.hlTotal;
        acc.hlCorrect += predHl ? 1 : 0;
        return predHl ? 1 : 2;
    }
    ++acc.nlTotal;
    acc.nlCorrect += predHl ? 0 : 1;
    return predHl ? 3 : 4;
}

// ---------------------------------------------------------------------
// grid_fig11: the Fig. 11 protocol on bare SsdDevice + SsdCheck.

perf::GridSpec
gridSpec(const Options &o)
{
    perf::GridSpec spec = perf::GridSpec::fig11(0.03);
    spec.seeds = {derive(o.seed, 1) % 1000000};
    spec.traceSeedBase = derive(o.seed, 2) % 1000000000;
    return spec;
}

/**
 * The checked replica of core::evaluatePredictionAccuracy without
 * supervisor or sink: the same calls in the same order, plus spans
 * and the per-request fold.
 */
core::AccuracyResult
replayQd1(BlockDevice &dev, ProbeDevice *probe, core::SsdCheck &check,
          const workload::Trace &trace, sim::SimTime start,
          sim::SimTime *end, Tracer *tr, const LoopSpans &ids, Digest &d,
          SimTally &sim, uint64_t &nextRequest)
{
    core::AccuracyResult acc;
    sim::SimTime t = start;
    const Span root(tr, ids.replay);
    for (const auto &rec : trace.records()) {
        const uint64_t id = nextRequest++;
        const IoRequest &req = rec.req;
        core::Prediction pred;
        {
            const Span s(tr, ids.predict, id);
            pred = check.predict(req, t);
        }
        {
            const Span s(tr, ids.onSubmit, id);
            check.onSubmit(req, t);
        }
        if (probe != nullptr)
            probe->setRequest(id);
        const IoResult res = dev.submit(req, t);
        bool actualHl = false;
        {
            const Span s(tr, ids.onComplete, id);
            actualHl = check.onComplete(req, pred, t, res.completeTime,
                                        res.status, res.attempts);
        }
        const uint64_t cls = classify(acc, res, pred.hl, actualHl);
        d.add(res.completeTime.ns());
        d.add(static_cast<uint64_t>(res.status) << 8 | cls);
        ++sim.requests;
        if (res.ok()) {
            ++sim.ok;
            sim.okBytes += req.bytes();
        }
        if (req.isRead())
            sim.reads.add(res.completeTime - t);
        t = res.completeTime;
    }
    sim.simNs += t - start;
    if (end != nullptr)
        *end = t;
    return acc;
}

struct GridPassOut
{
    std::vector<perf::GridCell> cells;
    SimTally sim;
    DeviceCounts counts;
    uint64_t diagnoseIos = 0;
    uint64_t diagnoses = 0;
};

Pass
gridPass(const perf::GridSpec &spec, Mode mode, Tracer *tr,
         GridPassOut &out, double *peakRss)
{
    Pass p;
    Digest d;      // Per request, then device counters.
    Digest result; // Per cell, then device counters.
    const LoopSpans ids(tr);
    const uint32_t diagId = tr != nullptr ? tr->id("core.diagnose") : 0;
    const uint32_t synthId = tr != nullptr ? tr->id("workload.synth") : 0;
    uint64_t nextRequest = 0;
    for (const auto m : spec.models) {
        for (const uint64_t salt : spec.seeds) {
            const int64_t s0 = hostNs();
            auto dev =
                std::make_unique<ssd::SsdDevice>(ssd::makePreset(m, salt));
            // Diagnosis runs through the probe for its I/O count only;
            // spans per diagnostic submit would inflate core.diagnose.
            ProbeDevice probe(*dev, nullptr, nullptr);
            BlockDevice &io = tr != nullptr
                                  ? static_cast<BlockDevice &>(probe)
                                  : static_cast<BlockDevice &>(*dev);
            core::DiagnosisRunner runner(io, core::DiagnosisConfig{});
            core::FeatureSet fs;
            {
                const Span s(tr, diagId);
                fs = runner.extractFeatures();
            }
            probe.setTracer(tr);
            out.diagnoseIos += probe.submits();
            ++out.diagnoses;
            core::SsdCheck check(fs);
            sim::SimTime now = runner.now();
            std::vector<workload::Trace> traces;
            for (const auto w : spec.workloads) {
                const Span s(tr, synthId);
                traces.push_back(workload::buildSniaTrace(
                    w, dev->capacityPages(), spec.scale,
                    spec.traceSeedBase + static_cast<uint64_t>(w)));
            }
            p.setup.push_back(secondsBetween(s0, hostNs()));

            const ssd::VolumeCounters before = dev->totalCounters();
            for (size_t i = 0; i < spec.workloads.size(); ++i) {
                sim::SimTime end = now;
                core::AccuracyResult acc;
                const int64_t r0 = hostNs();
                if (mode == Mode::Timed) {
                    // Exactly the call perf::runGrid makes per cell.
                    acc = core::evaluatePredictionAccuracy(
                        *dev, check, traces[i], now, &end);
                } else {
                    acc = replayQd1(io, tr != nullptr ? &probe : nullptr,
                                    check, traces[i], now, &end, tr, ids, d,
                                    out.sim, nextRequest);
                }
                p.timed.push_back(secondsBetween(r0, hostNs()));
                foldAccuracy(result, acc);
                result.add(end.ns());
                perf::GridCell cell;
                cell.model = m;
                cell.workload = spec.workloads[i];
                cell.seed = salt;
                cell.accuracy = acc;
                cell.requests = traces[i].size();
                cell.simEnd = end;
                out.cells.push_back(cell);
                accumulate(out.sim.acc, acc);
                p.requests += traces[i].size();
                now = end + spec.interWorkloadGap;
            }
            out.counts.add(dev->totalCounters(), before);
            foldCounters(d, dev->totalCounters());
            foldCounters(result, dev->totalCounters());
        }
    }
    *peakRss = peakRssMib();
    p.result = result.hex();
    if (mode != Mode::Timed)
        p.digest = d.hex();
    return p;
}

bool
sameAccuracy(const core::AccuracyResult &a, const core::AccuracyResult &b)
{
    return a.nlTotal == b.nlTotal && a.nlCorrect == b.nlCorrect &&
           a.hlTotal == b.hlTotal && a.hlCorrect == b.hlCorrect &&
           a.faulted == b.faulted;
}

bool
sameCell(const perf::GridCell &a, const perf::GridCell &b)
{
    return a.model == b.model && a.workload == b.workload &&
           a.seed == b.seed && a.requests == b.requests &&
           a.simEnd == b.simEnd && sameAccuracy(a.accuracy, b.accuracy);
}

bool
sameCells(const std::vector<perf::GridCell> &a,
          const std::vector<perf::GridCell> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!sameCell(a[i], b[i]))
            return false;
    return true;
}

void
runGridFig11(const Options &o, Result *r)
{
    const perf::GridSpec spec = gridSpec(o);
    Checker chk;
    Report rep(r);
    const auto tracer = makeTracer(o);
    const auto runs = runPasses<GridPassOut>(
        o, tracer.get(), chk,
        [&](Mode mode, Tracer *tr, Checker &, GridPassOut &out,
            double *peak) { return gridPass(spec, mode, tr, out, peak); });
    // The replay must reproduce perf::runGrid cell for cell.
    chk.expect(sameCells(perf::runGrid(spec, 1).cells, runs.checked.cells),
               "grid_fig11 cells differ from perf::runGrid");
    if (!o.trace) {
        rep.endToEnd(runs.passes, runs.peakRss, runs.checked.sim);
    } else {
        const GridPassOut &t = runs.traced;
        const Tracer &tr = *tracer;
        rep.timed("ssd.submit_ns", tr.stats("ssd.submit"), 1, "ns");
        rep.timed("core.predict_ns", tr.stats("core.predict"), 1, "ns");
        rep.timed("core.on_submit_ns", tr.stats("core.on_submit"), 1, "ns");
        rep.timed("core.on_complete_ns", tr.stats("core.on_complete"), 1,
                  "ns");
        rep.timed("core.diagnose_ms", tr.stats("core.diagnose"), 1e-6, "ms");
        rep.timed("workload.synth_ms", tr.stats("workload.synth"), 1e-6,
                  "ms");
        rep.add("core.diagnose_ios",
                static_cast<double>(t.diagnoseIos) /
                    static_cast<double>(std::max<uint64_t>(t.diagnoses, 1)),
                "count");
        rep.deviceCounts(runs.checked.counts);
        finishTrace(o, tr, runs.untracedS, runs.tracedS,
                    tr.selfNsUnder("bench.replay") / 1e9 /
                        static_cast<double>(runs.tracedPasses),
                    rep, chk);
    }
    finishResult(o, runs, chk, r);
}

// ---------------------------------------------------------------------
// run_hostile: the `ssdcheck run` stack through CheckpointableRun.

recovery::RunParams
hostileParams(const Options &o)
{
    recovery::RunParams p;
    p.device = "A";
    p.faults = "hostile";
    p.workload = "RW Mixed";
    // CheckpointableRun derives its preset salt and trace seed
    // itself; the trace length is the one input the seed can reach.
    p.scale = 0.875 + static_cast<double>(derive(o.seed, 3) % 1024) / 8192.0;
    p.supervisor = true;
    p.timelineMs = 100;
    p.resilience = "guarded";
    return p;
}

/** Requests between two checkpoint().serialize() calls. */
constexpr uint64_t kCheckpointEvery = 100000;

/** Per-step fold shared by CheckpointableRun and the replica stacks. */
void
foldStep(Digest &d, SimTally &sim, const IoRequest &req, sim::SimTime before,
         sim::SimTime after, uint64_t cls)
{
    d.add(after.ns());
    d.add(cls);
    ++sim.requests;
    if (cls != 0) {
        // Ok on the first attempt (the only Ok the run exposes).
        ++sim.ok;
        sim.okBytes += req.bytes();
    }
    if (req.isRead())
        sim.reads.add(after - before);
}

/** Which accuracy bucket the last step landed in (0 = faulted). */
uint64_t
stepClass(const core::AccuracyResult &b, const core::AccuracyResult &a)
{
    if (a.hlTotal != b.hlTotal)
        return a.hlCorrect != b.hlCorrect ? 1 : 2;
    if (a.nlTotal != b.nlTotal)
        return a.nlCorrect != b.nlCorrect ? 4 : 3;
    return 0;
}

struct HostileOut
{
    SimTally sim;
    sim::SimTime end;       ///< Simulated time after the last request.
    std::string stepDigest; ///< Per-step fold only (replica-comparable).
    DeviceCounts counts;
    blockdev::ResilienceCounters res;
    resilience::PolicyCounters pol;
    core::HealthCounters health;
    uint64_t deviceSubmits = 0;
    uint64_t snapshotBytes = 0; ///< Final checkpoint size.
};

Pass
hostilePass(const Options &o, Mode mode, Tracer *tr, Checker &chk,
            HostileOut &out, double *peakRss)
{
    const recovery::RunParams params = hostileParams(o);
    Pass p;
    Digest steps;
    Digest checkpoints;
    const uint32_t createId = tr != nullptr ? tr->id("recovery.create") : 0;
    const uint32_t runId = tr != nullptr ? tr->id("recovery.run") : 0;
    const uint32_t stepId = tr != nullptr ? tr->id("recovery.step") : 0;
    const uint32_t ckptId = tr != nullptr ? tr->id("recovery.checkpoint") : 0;
    const uint32_t restoreId = tr != nullptr ? tr->id("recovery.restore") : 0;

    const int64_t s0 = hostNs();
    std::unique_ptr<recovery::CheckpointableRun> run;
    std::string err;
    {
        const Span s(tr, createId);
        run = recovery::CheckpointableRun::create(params, false, &err);
    }
    p.setup.push_back(secondsBetween(s0, hostNs()));
    if (!run) {
        std::fprintf(stderr, "perfbench: run_hostile: %s\n", err.c_str());
        std::exit(2);
    }
    const ssd::VolumeCounters before = run->device().totalCounters();
    const uint64_t servedBefore = run->device().requestsServed();
    const sim::SimTime start = run->now();

    int64_t r0 = hostNs();
    if (mode == Mode::Timed) {
        // What `ssdcheck run` does: step, and checkpoint every K. The
        // steps up to and including a checkpoint are one timed piece.
        while (!run->done()) {
            run->step();
            if (run->cursor() % kCheckpointEvery == 0) {
                checkpoints.add(static_cast<uint64_t>(
                    run->checkpoint().serialize().size()));
                const int64_t r1 = hostNs();
                p.timed.push_back(secondsBetween(r0, r1));
                r0 = r1;
            }
        }
    } else {
        const Span root(tr, runId);
        while (!run->done()) {
            const uint64_t cursor = run->cursor();
            const IoRequest &req = run->trace()[cursor].req;
            const sim::SimTime t = run->now();
            const core::AccuracyResult acc = run->accuracy();
            {
                const Span s(tr, stepId, cursor);
                run->step();
            }
            foldStep(steps, out.sim, req, t, run->now(),
                     stepClass(acc, run->accuracy()));
            if (run->cursor() % kCheckpointEvery == 0) {
                const Span s(tr, ckptId);
                const std::vector<uint8_t> bytes =
                    run->checkpoint().serialize();
                checkpoints.add(static_cast<uint64_t>(bytes.size()));
            }
        }
    }
    p.timed.push_back(secondsBetween(r0, hostNs()));
    *peakRss = peakRssMib();
    p.requests = run->cursor();
    out.end = run->now();
    out.sim.simNs = run->now() - start;
    accumulate(out.sim.acc, run->accuracy());
    out.stepDigest = steps.hex();
    out.counts.add(run->device().totalCounters(), before);
    out.deviceSubmits = run->device().requestsServed() - servedBefore;
    out.res = run->resilient().counters();
    out.pol = run->policyPtr()->counters();
    out.health = run->supervisorPtr()->counters();

    // The final state, serialized, is part of both digests.
    const std::vector<uint8_t> final = run->checkpoint().serialize();
    out.snapshotBytes = final.size();
    Digest result;
    result.add(checkpoints.value());
    foldAccuracy(result, run->accuracy());
    result.add(run->now().ns());
    foldBytes(result, final);
    p.result = result.hex();

    if (mode != Mode::Timed) {
        Digest d;
        d.add(steps.value());
        d.add(checkpoints.value());
        foldBytes(d, final);
        p.digest = d.hex();

        chk.expect(recovery::checkInvariants(*run).empty(),
                   "run_hostile: invariants violated at end of run");
        recovery::Snapshot snap;
        std::string detail;
        const bool parsed =
            chk.expect(snap.parse(final, &detail) == recovery::LoadError::Ok,
                       "run_hostile: final snapshot does not parse: " +
                           detail);
        auto fresh = recovery::CheckpointableRun::create(params, true, &err);
        if (chk.expect(fresh != nullptr,
                       "run_hostile: resume run not created: " + err) &&
            parsed) {
            recovery::LoadError le;
            {
                const Span s(tr, restoreId);
                le = fresh->restore(snap, &detail);
            }
            if (chk.expect(le == recovery::LoadError::Ok,
                           "run_hostile: restore failed: " + detail)) {
                chk.expect(fresh->checkpoint().serialize() == final,
                           "run_hostile: restored run re-checkpoints to "
                           "different bytes");
                chk.expect(recovery::checkInvariants(*fresh).empty(),
                           "run_hostile: invariants violated after restore");
            }
        }
    }
    return p;
}

/** The ablation ladder's rungs, bottom up. */
enum class Rung { Device, Model, Retry, Policy, Supervisor };

/** Inputs CheckpointableRun::create builds, rebuilt from outside. */
struct LadderInputs
{
    ssd::SsdConfig cfg;
    core::FeatureSet features;
    sim::SimTime start;
    workload::Trace trace;
};

LadderInputs
ladderInputs(const recovery::RunParams &params, Tracer *tr)
{
    LadderInputs in;
    const uint32_t diagId = tr != nullptr ? tr->id("core.diagnose") : 0;
    const uint32_t synthId = tr != nullptr ? tr->id("workload.synth") : 0;
    in.cfg = ssd::makePreset(ssd::SsdModel::A);
    ssd::faultProfileByName(params.faults, &in.cfg.faults);
    ssd::SsdConfig cleanCfg = in.cfg;
    cleanCfg.faults = ssd::FaultProfile{};
    ssd::SsdDevice clean(cleanCfg);
    core::DiagnosisRunner runner(clean, core::DiagnosisConfig{});
    {
        const Span s(tr, diagId);
        in.features = runner.extractFeatures();
    }
    in.start = runner.now();
    const Span s(tr, synthId);
    in.trace = workload::buildSniaTrace(workload::SniaWorkload::RwMixed,
                                        clean.capacityPages(), params.scale);
    return in;
}

struct RungOut
{
    double seconds = 0;
    uint64_t deviceSubmits = 0;
    sim::SimTime end;
    core::AccuracyResult acc;
    std::string stepDigest; ///< Profiled replica only.
};

/**
 * Replay the run_hostile inputs through the stack up to @p rung,
 * built from public classes the way CheckpointableRun builds it. With
 * a tracer every layer call is a span and every step is folded (the
 * profiled replica); without, it is one unprofiled ladder rung.
 */
RungOut
runRung(Rung rung, const LadderInputs &in, const std::string &policyName,
        Tracer *tr)
{
    RungOut out;
    const LoopSpans ids(tr);
    const uint32_t precondId =
        tr != nullptr ? tr->id("ssd.precondition") : 0;
    auto dev = std::make_unique<ssd::SsdDevice>(in.cfg);
    ProbeDevice probe(*dev, tr, nullptr);
    BlockDevice &base = tr != nullptr ? static_cast<BlockDevice &>(probe)
                                      : static_cast<BlockDevice &>(*dev);
    {
        const Span s(tr, precondId);
        dev->precondition();
    }
    blockdev::ResilientDevice rdev(base);
    resilience::ResiliencePolicy policy;
    resilience::resiliencePolicyByName(policyName, &policy);
    resilience::PolicyDevice pdev(rdev, policy);
    core::SsdCheck check(in.features);
    core::HealthSupervisor sup(check, pdev);
    const bool model = rung != Rung::Device;
    const bool retry = rung >= Rung::Retry;
    const bool pol = rung >= Rung::Policy;
    const bool supervised = rung == Rung::Supervisor;

    Digest steps;
    SimTally sim;
    core::AccuracyResult acc;
    const uint64_t served0 = dev->requestsServed();
    sim::SimTime t = in.start;
    const int64_t r0 = hostNs();
    {
        const Span root(tr, ids.replay);
        uint64_t id = 0;
        for (const auto &rec : in.trace.records()) {
            const IoRequest &req = rec.req;
            const sim::SimTime before = t;
            probe.setRequest(id);
            if (!model) {
                t = base.submit(req, t).completeTime;
                ++id;
                continue;
            }
            if (supervised) {
                const Span s(tr, ids.supervisor, id);
                t = sup.pump(t);
            }
            core::Prediction pred;
            {
                const Span s(tr, ids.predict, id);
                pred = check.predict(req, t);
            }
            {
                const Span s(tr, ids.onSubmit, id);
                check.onSubmit(req, t);
            }
            IoResult res;
            if (pol) {
                const Span s(tr, ids.policy, id);
                if (supervised)
                    pdev.observeHealth(sup.state());
                res = pdev.submitHinted(req, t, pred.eet);
            } else {
                res = retry ? rdev.submit(req, t) : base.submit(req, t);
            }
            bool actualHl = false;
            {
                const Span s(tr, ids.onComplete, id);
                actualHl = check.onComplete(req, pred, t, res.completeTime,
                                            res.status, res.attempts);
            }
            if (supervised) {
                const Span s(tr, ids.supervisor, id);
                sup.onCompletion(req, actualHl, res);
            }
            t = res.completeTime;
            const uint64_t cls = classify(acc, res, pred.hl, actualHl);
            if (tr != nullptr)
                foldStep(steps, sim, req, before, t, cls);
            ++id;
        }
    }
    out.seconds = secondsBetween(r0, hostNs());
    out.deviceSubmits = dev->requestsServed() - served0;
    out.end = t;
    out.acc = acc;
    out.stepDigest = steps.hex();
    return out;
}

void
runHostile(const Options &o, Result *r)
{
    Checker chk;
    Report rep(r);
    const auto tracer = makeTracer(o);
    const auto runs = runPasses<HostileOut>(
        o, tracer.get(), chk,
        [&](Mode mode, Tracer *tr, Checker &c, HostileOut &out,
            double *peak) { return hostilePass(o, mode, tr, c, out, peak); });
    const HostileOut &h = runs.checked;
    if (!o.trace) {
        rep.endToEnd(runs.passes, runs.peakRss, h.sim);
    } else {
        const Tracer &tr = *tracer;
        const double n = static_cast<double>(runs.passes[0].requests);
        const recovery::RunParams params = hostileParams(o);
        // The same diagnosis and synthesis calls create() makes.
        const LadderInputs in = ladderInputs(params, tracer.get());

        // Profiled replica of the full stack: per-call host times. Its
        // unprofiled twin is the ladder's supervisor rung, so the two
        // give the tracing overhead and closure of this workload.
        const RungOut prof = runRung(Rung::Supervisor, in, params.resilience,
                                     tracer.get());
        chk.expect(prof.stepDigest == h.stepDigest,
                   "run_hostile: replica stack's per-step outputs differ "
                   "from CheckpointableRun's");

        // Unprofiled ladder; the top rung is the untraced timed run.
        struct RungName
        {
            Rung rung;
            const char *cost;
            const char *submits;
        };
        const RungName rungs[] = {
            {Rung::Device, "ssd.device_rung_ns", "ssd.device_rung_submits"},
            {Rung::Model, "core.model_rung_ns", "core.model_rung_submits"},
            {Rung::Retry, "blockdev.retry_rung_ns",
             "blockdev.retry_rung_submits"},
            {Rung::Policy, "resilience.policy_rung_ns",
             "resilience.policy_rung_submits"},
            {Rung::Supervisor, "core.supervisor_rung_ns",
             "core.supervisor_rung_submits"},
        };
        double prevNs = 0;
        double supervisorRungS = 0;
        for (const RungName &rn : rungs) {
            const RungOut ro = runRung(rn.rung, in, params.resilience, nullptr);
            double seconds = ro.seconds;
            for (int k = 1; k < kRungRepeats; ++k)
                seconds = std::min(
                    seconds,
                    runRung(rn.rung, in, params.resilience, nullptr).seconds);
            const double perReq = seconds * 1e9 / n;
            rep.add(rn.cost, perReq - prevNs, "ns");
            rep.add(rn.submits, static_cast<double>(ro.deviceSubmits) / n,
                    "count");
            prevNs = perReq;
            if (rn.rung == Rung::Supervisor) {
                supervisorRungS = seconds;
                chk.expect(ro.end == h.end &&
                               sameAccuracy(ro.acc, h.sim.acc) &&
                               ro.deviceSubmits == h.deviceSubmits,
                           "run_hostile: supervisor rung differs from "
                           "CheckpointableRun");
            }
        }
        rep.add("recovery.checkpoint_rung_ns",
                runs.fastestS * 1e9 / n - prevNs, "ns");
        rep.add("recovery.checkpoint_rung_submits",
                static_cast<double>(h.deviceSubmits) / n, "count");

        rep.timed("ssd.submit_ns", tr.stats("ssd.submit"), 1, "ns");
        rep.timed("ssd.precondition_ms", tr.stats("ssd.precondition"), 1e-6,
                  "ms");
        rep.timed("core.predict_ns", tr.stats("core.predict"), 1, "ns");
        rep.timed("core.on_submit_ns", tr.stats("core.on_submit"), 1, "ns");
        rep.timed("core.on_complete_ns", tr.stats("core.on_complete"), 1,
                  "ns");
        rep.timed("core.supervisor_ns", tr.stats("core.supervisor"), 1, "ns");
        rep.timed("recovery.checkpoint_ms", tr.stats("recovery.checkpoint"),
                  1e-6, "ms");
        rep.timed("recovery.restore_ms", tr.stats("recovery.restore"), 1e-6,
                  "ms");
        rep.add("recovery.snapshot_kib",
                static_cast<double>(h.snapshotBytes) / 1024.0, "KiB");
        rep.add("core.probes_issued",
                static_cast<double>(h.health.probesIssued), "count");
        rep.add("core.hot_swaps", static_cast<double>(h.health.hotSwaps),
                "count");
        rep.add("blockdev.retries", static_cast<double>(h.res.retries),
                "count");
        rep.add("blockdev.timeouts", static_cast<double>(h.res.timeouts),
                "count");
        rep.add("blockdev.recovered_pct",
                pct(h.res.recovered, h.res.erroredRequests), "%");
        rep.add("resilience.hedges_issued",
                static_cast<double>(h.pol.hedgesIssued), "count");
        rep.add("resilience.hedge_win_pct",
                pct(h.pol.hedgeWins, h.pol.hedgesIssued), "%");
        rep.add("resilience.shed", static_cast<double>(h.pol.shedTotal()),
                "count");
        rep.add("resilience.breaker_opens",
                static_cast<double>(h.pol.breakerOpens), "count");
        rep.deviceCounts(h.counts);
        finishTrace(o, tr, supervisorRungS, prof.seconds,
                    tr.selfNsUnder("bench.replay") / 1e9, rep, chk);
    }
    finishResult(o, runs, chk, r);
}

// ---------------------------------------------------------------------
// trace_sink: the `ssdcheck trace` path with the full obs::Sink.

/** Consecutive calls the trace_sink replay is split into. */
constexpr size_t kSinkPieces = 10;

struct SinkOut
{
    SimTally sim;
    std::string simDigest; ///< Device + model outputs only.
    DeviceCounts counts;
    uint64_t events = 0;
    uint64_t traceBytes = 0;
    uint64_t auditRecords = 0;
};

/**
 * One pass of the trace path on a healthy preset A. With @p sinkOn the
 * whole obs::Sink is attached: the recorder spills SSDTRBIN, the
 * registry keeps a 100 ms timeline, the audit log is on.
 */
Pass
sinkPass(const Options &o, bool sinkOn, Mode mode, Tracer *tr, Checker &chk,
         SinkOut &out, double *peakRss)
{
    const double scale = 0.6;
    const uint64_t salt = derive(o.seed, 4) % 1000000;
    const uint64_t traceSeed = derive(o.seed, 5);
    Pass p;
    const uint32_t diagId = tr != nullptr ? tr->id("core.diagnose") : 0;
    const uint32_t precondId =
        tr != nullptr ? tr->id("ssd.precondition") : 0;
    const uint32_t synthId = tr != nullptr ? tr->id("workload.synth") : 0;
    const uint32_t replayId = tr != nullptr ? tr->id("bench.replay") : 0;

    // Set-up pieces: diagnosis, preconditioning, synthesis.
    int64_t s0 = hostNs();
    const auto lap = [&] {
        const int64_t s1 = hostNs();
        p.setup.push_back(secondsBetween(s0, s1));
        s0 = s1;
    };
    const ssd::SsdConfig cfg = ssd::makePreset(ssd::SsdModel::A, salt);
    auto dev = std::make_unique<ssd::SsdDevice>(cfg);
    ProbeDevice probe(*dev, tr, nullptr);
    BlockDevice &base = tr != nullptr ? static_cast<BlockDevice &>(probe)
                                      : static_cast<BlockDevice &>(*dev);
    blockdev::ResilientDevice rdev(base);
    ssd::SsdDevice cleanDev(cfg);
    core::DiagnosisRunner runner(cleanDev, core::DiagnosisConfig{});
    core::FeatureSet fs;
    {
        const Span s(tr, diagId);
        fs = runner.extractFeatures();
    }
    core::SsdCheck check(fs);
    lap();

    // Timed and traced passes spill into a byte counter, so neither
    // their timed phase nor peak RSS carries a harness buffer. The
    // checked pass keeps the bytes to decode them.
    ByteCounter counter;
    ChunkSink kept;
    std::ostream spillStream(mode == Mode::Checked
                                 ? static_cast<std::streambuf *>(&kept)
                                 : &counter);
    obs::TraceRecorder recorder;
    obs::Registry registry;
    obs::AuditLog audit;
    const obs::Sink sink{&recorder, &registry, &audit};
    if (sinkOn) {
        recorder.spillTo(spillStream);
        registry.enableTimeline(sim::milliseconds(100));
        dev->attachObservability(sink);
        rdev.attachObservability(sink);
        check.attachObservability(sink);
        recorder.setProcessName(obs::kHostPid, "host");
        recorder.setProcessName(obs::kDevicePid, "ssd " + dev->name());
    }
    {
        const Span s(tr, precondId);
        dev->precondition();
    }
    lap();
    workload::Trace trace;
    {
        const Span s(tr, synthId);
        trace = workload::buildSniaTrace(workload::SniaWorkload::RwMixed,
                                         dev->capacityPages(), scale,
                                         traceSeed);
    }
    // The one reservation a single call over the whole trace makes.
    audit.reserve(trace.size());
    lap();

    // The trace is replayed as kSinkPieces consecutive slices, one
    // call each, every call resuming at the previous one's end: the
    // same requests at the same simulated times as one call, in
    // pieces short enough to time steadily. A slice is copied between
    // timed pieces, so only one copy is alive at a time.
    const ssd::VolumeCounters before = dev->totalCounters();
    const sim::SimTime start = runner.now();
    sim::SimTime end = start;
    core::AccuracyResult acc;
    const size_t n = trace.size();
    for (size_t k = 0; k < kSinkPieces; ++k) {
        workload::Trace slice;
        for (size_t i = n * k / kSinkPieces; i < n * (k + 1) / kSinkPieces;
             ++i)
            slice.add(trace[i]);
        const int64_t r0 = hostNs();
        {
            const Span s(tr, replayId);
            accumulate(acc, core::evaluatePredictionAccuracy(
                                rdev, check, slice, end, &end, nullptr,
                                sinkOn ? &sink : nullptr));
            if (sinkOn && k + 1 == kSinkPieces)
                recorder.finishSpill();
        }
        p.timed.push_back(secondsBetween(r0, hostNs()));
    }
    *peakRss = peakRssMib();
    p.requests = trace.size();

    Digest simD;
    foldAccuracy(simD, acc);
    simD.add(end.ns());
    foldCounters(simD, dev->totalCounters());
    out.simDigest = simD.hex();
    out.counts.add(dev->totalCounters(), before);
    accumulate(out.sim.acc, acc);
    out.sim.simNs = end - start;
    out.events = recorder.events();
    out.traceBytes = mode == Mode::Checked ? kept.bytes() : counter.bytes();
    out.auditRecords = audit.size();

    Digest result;
    result.add(simD.value());
    if (sinkOn) {
        result.add(out.events);
        result.add(out.traceBytes);
    }
    p.result = result.hex();
    if (mode == Mode::Timed)
        return p;

    Digest d;
    d.add(simD.value());
    if (sinkOn) {
        // Per-request outcomes come from the audit log, one record
        // per completion in trace order.
        const auto &recs = audit.records();
        for (size_t i = 0; i < recs.size() && i < trace.size(); ++i) {
            const obs::AuditRecord &a = recs[i];
            const IoRequest &req = trace[i].req;
            d.add(a.submit.ns() + a.actualNs);
            d.add(static_cast<uint64_t>(a.status) << 8 |
                  static_cast<uint64_t>(a.predictedHl) << 1 | a.actualHl);
            ++out.sim.requests;
            if (a.status == 0) {
                ++out.sim.ok;
                out.sim.okBytes += req.bytes();
            }
            if (req.isRead())
                out.sim.reads.add(a.actualNs);
        }
        d.add(out.events);
        d.add(out.traceBytes);
    }
    p.digest = d.hex();

    if (mode == Mode::Checked) {
        chk.expect(out.auditRecords == trace.size(),
                   "trace_sink: " + std::to_string(out.auditRecords) +
                       " audit records for " + std::to_string(trace.size()) +
                       " requests");
        ChunkReader reader(kept.chunks());
        std::istream in(&reader);
        obs::TraceBinaryReader decoded;
        const bool ok = decoded.read(in);
        chk.expect(ok && decoded.recorder().events() == out.events,
                   "trace_sink: spilled SSDTRBIN stream decodes to " +
                       std::to_string(decoded.recorder().events()) +
                       " events, recorder saw " +
                       std::to_string(out.events) +
                       (ok ? "" : " (" + decoded.error() + ")"));
    }
    return p;
}

void
runTraceSink(const Options &o, Result *r)
{
    Checker chk;
    Report rep(r);
    const auto tracer = makeTracer(o);
    const auto runs = runPasses<SinkOut>(
        o, tracer.get(), chk,
        [&](Mode mode, Tracer *tr, Checker &c, SinkOut &out, double *peak) {
            return sinkPass(o, true, mode, tr, c, out, peak);
        });
    const SinkOut &s = runs.checked;
    if (!o.trace) {
        rep.endToEnd(runs.passes, runs.peakRss, s.sim);
    } else {
        const double n = static_cast<double>(runs.passes[0].requests);
        // Ladder: sink off, then on (the untraced timed passes).
        double offS = 0;
        for (int k = 0; k < kRungRepeats; ++k) {
            SinkOut offOut;
            double peak = 0;
            const Pass off =
                sinkPass(o, false, Mode::Timed, nullptr, chk, offOut, &peak);
            offS = k == 0 ? sum(off.timed) : std::min(offS, sum(off.timed));
            if (k == 0)
                chk.expect(offOut.simDigest == s.simDigest,
                           "trace_sink: attaching the sink changed simulated "
                           "results");
        }
        rep.add("obs.sink_rung_ns", (runs.fastestS - offS) * 1e9 / n, "ns");
        rep.add("obs.events_per_req", static_cast<double>(s.events) / n,
                "count");
        rep.add("obs.trace_bytes_per_req",
                static_cast<double>(s.traceBytes) / n, "B");
        rep.add("obs.audit_records_per_req",
                static_cast<double>(s.auditRecords) / n, "count");
        const Tracer &tr = *tracer;
        rep.timed("ssd.submit_ns", tr.stats("ssd.submit"), 1, "ns");
        rep.timed("ssd.precondition_ms", tr.stats("ssd.precondition"), 1e-6,
                  "ms");
        rep.timed("core.diagnose_ms", tr.stats("core.diagnose"), 1e-6, "ms");
        rep.timed("workload.synth_ms", tr.stats("workload.synth"), 1e-6,
                  "ms");
        rep.deviceCounts(s.counts);
        finishTrace(o, tr, runs.untracedS, runs.tracedS,
                    tr.selfNsUnder("bench.replay") / 1e9 /
                        static_cast<double>(runs.tracedPasses),
                    rep, chk);
    }
    finishResult(o, runs, chk, r);
}

// ---------------------------------------------------------------------
// pas_open: Fig. 14's open loop through runScheduled + PasScheduler.

struct PasOut
{
    // Simulated outcomes per (model, workload) cell.
    std::vector<double> hlPct, nlPct, p50Ns, p999Ns, mbps;
    uint64_t requests = 0, ok = 0;
    DeviceCounts counts;
    uint64_t diagnoseIos = 0;
    uint64_t diagnoses = 0;
    uint64_t dequeues = 0, reordered = 0, depthSum = 0, depthMax = 0;
};

Pass
pasPass(const Options &o, Mode mode, Tracer *tr, PasOut &out,
        double *peakRss)
{
    // Fig. 14 set-up: 32K-page address span (GC runs), Poisson
    // arrivals at 5000 requests/s, one fresh diagnosed device per
    // (model, workload) cell. Each cell draws its own device instance
    // (seedSalt), so one run averages over six diagnoses.
    const double scale = 0.15;
    const uint64_t spanPages = 32 * 1024;
    const double iops = 5000.0;
    uint64_t cell = 0;
    Pass p;
    Digest d;      // Per dispatch and completion, then per cell.
    Digest result; // Per cell.
    const uint32_t diagId = tr != nullptr ? tr->id("core.diagnose") : 0;
    const uint32_t synthId = tr != nullptr ? tr->id("workload.synth") : 0;
    const uint32_t replayId = tr != nullptr ? tr->id("bench.replay") : 0;
    const uint32_t runId = tr != nullptr ? tr->id("usecases.run") : 0;
    const uint32_t pctId = tr != nullptr ? tr->id("stats.percentile") : 0;
    for (const auto m : {ssd::SsdModel::F, ssd::SsdModel::G}) {
        for (const auto w : workload::readIntensiveWorkloads()) {
            const int64_t s0 = hostNs();
            const uint64_t salt = derive(o.seed, 30 + cell++) % 1000000;
            auto dev =
                std::make_unique<ssd::SsdDevice>(ssd::makePreset(m, salt));
            // Checked and traced passes run the device through the
            // probe (diagnosis included); timed passes run it bare.
            ProbeDevice probe(*dev, nullptr, &d);
            BlockDevice &io = mode == Mode::Timed
                                  ? static_cast<BlockDevice &>(*dev)
                                  : static_cast<BlockDevice &>(probe);
            core::DiagnosisRunner runner(io, core::DiagnosisConfig{});
            core::FeatureSet fs;
            {
                const Span s(tr, diagId);
                fs = runner.extractFeatures();
            }
            probe.setTracer(tr);
            out.diagnoseIos += probe.submits();
            ++out.diagnoses;
            core::SsdCheck check(fs);
            workload::Trace trace;
            {
                const Span s(tr, synthId);
                const uint64_t ws = static_cast<uint64_t>(w);
                trace = workload::buildSniaTrace(w, spanPages, scale,
                                                 derive(o.seed, 10 + ws));
                sim::Rng rng(derive(o.seed, 20 + ws));
                trace.assignPoissonArrivals(iops, rng);
            }
            p.setup.push_back(secondsBetween(s0, hostNs()));

            const ssd::VolumeCounters before = dev->totalCounters();
            usecases::PasScheduler pas(check);
            std::optional<ProbeScheduler> probed;
            if (mode != Mode::Timed)
                probed.emplace(pas, check, probe, tr, &d);
            usecases::Scheduler &sched =
                probed ? static_cast<usecases::Scheduler &>(*probed)
                       : static_cast<usecases::Scheduler &>(pas);
            const int64_t r0 = hostNs();
            usecases::ScheduledRunResult res;
            sim::SimDuration p50 = 0, p999 = 0;
            {
                const Span root(tr, replayId);
                {
                    const Span s(tr, runId);
                    res = usecases::runScheduled(io, sched, trace,
                                                 runner.now(), &check);
                }
                {
                    // The first query sorts the samples; both together
                    // are one report's percentile cost.
                    const Span s(tr, pctId);
                    p50 = res.stream.readLatency.percentile(50);
                    p999 = res.stream.readLatency.percentile(99.9);
                }
            }
            p.timed.push_back(secondsBetween(r0, hostNs()));
            p.requests += trace.size();
            for (Digest *g : {&d, &result}) {
                g->add(p50);
                g->add(p999);
                g->add(res.maxQueueDepth);
                g->add(res.stream.endTime.ns());
                foldCounters(*g, dev->totalCounters());
            }
            out.counts.add(dev->totalCounters(), before);
            out.hlPct.push_back(pct(probe.hlCorrect, probe.hlTotal));
            out.nlPct.push_back(pct(probe.nlCorrect, probe.nlTotal));
            out.p50Ns.push_back(static_cast<double>(p50));
            out.p999Ns.push_back(static_cast<double>(p999));
            out.mbps.push_back(res.stream.throughputMbps());
            out.requests += res.stream.requests;
            out.ok += probe.okCount;
            if (probed) {
                out.dequeues += probed->dequeues;
                out.reordered += probed->reordered;
                out.depthSum += probed->depthSum;
            }
            out.depthMax = std::max<uint64_t>(out.depthMax, res.maxQueueDepth);
        }
    }
    *peakRss = peakRssMib();
    p.result = result.hex();
    if (mode != Mode::Timed)
        p.digest = d.hex();
    return p;
}

void
runPasOpen(const Options &o, Result *r)
{
    Checker chk;
    Report rep(r);
    const auto tracer = makeTracer(o);
    const auto runs = runPasses<PasOut>(
        o, tracer.get(), chk,
        [&](Mode mode, Tracer *tr, Checker &, PasOut &out, double *peak) {
            return pasPass(o, mode, tr, out, peak);
        });
    const PasOut &s = runs.checked;
    const uint64_t requests = runs.passes[0].requests;
    chk.expect(s.dequeues == requests,
               "pas_open: " + std::to_string(s.dequeues) +
                   " dispatches for " + std::to_string(requests) +
                   " requests");
    chk.expect(s.requests == requests,
               "pas_open: stream result counts " +
                   std::to_string(s.requests) + " requests");
    if (!o.trace) {
        // Medians over the six cells: on some device instances the
        // model's HL recall collapses, PAS degrades to FIFO and the
        // open loop saturates; one such cell would otherwise swing
        // every simulated number. The worst cell is reported per layer.
        rep.hostTimes(runs.passes, runs.peakRss);
        rep.simulated(median(s.hlPct), median(s.nlPct), pct(s.ok, s.requests),
                      median(s.p50Ns), median(s.p999Ns), median(s.mbps));
    } else {
        const Tracer &tr = *tracer;
        rep.add("core.worst_cell_hl_recall_pct",
                *std::min_element(s.hlPct.begin(), s.hlPct.end()), "%");
        rep.add("usecases.worst_cell_p999_us",
                *std::max_element(s.p999Ns.begin(), s.p999Ns.end()) / 1e3,
                "us");
        rep.timed("ssd.submit_ns", tr.stats("ssd.submit"), 1, "ns");
        rep.timed("usecases.enqueue_ns", tr.stats("usecases.enqueue"), 1,
                  "ns");
        rep.timed("usecases.dequeue_ns", tr.stats("usecases.dequeue"), 1,
                  "ns");
        rep.timed("stats.percentile_ms", tr.stats("stats.percentile"), 1e-6,
                  "ms");
        rep.timed("core.diagnose_ms", tr.stats("core.diagnose"), 1e-6, "ms");
        rep.timed("workload.synth_ms", tr.stats("workload.synth"), 1e-6,
                  "ms");
        rep.add("core.diagnose_ios",
                static_cast<double>(s.diagnoseIos) /
                    static_cast<double>(std::max<uint64_t>(s.diagnoses, 1)),
                "count");
        const double n = static_cast<double>(std::max<uint64_t>(s.dequeues, 1));
        rep.add("usecases.queue_depth_mean",
                static_cast<double>(s.depthSum) / n, "count");
        rep.add("usecases.queue_depth_max", static_cast<double>(s.depthMax),
                "count");
        rep.add("usecases.reorder_pct", pct(s.reordered, s.dequeues), "%");
        rep.deviceCounts(s.counts);
        finishTrace(o, tr, runs.untracedS, runs.tracedS,
                    tr.selfNsUnder("bench.replay") / 1e9 /
                        static_cast<double>(runs.tracedPasses),
                    rep, chk);
    }
    finishResult(o, runs, chk, r);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "grid_fig11", "run_hostile", "trace_sink", "pas_open"};
    return names;
}

bool
runWorkload(const Options &o, Result *r)
{
    if (o.workload == "grid_fig11")
        runGridFig11(o, r);
    else if (o.workload == "run_hostile")
        runHostile(o, r);
    else if (o.workload == "trace_sink")
        runTraceSink(o, r);
    else if (o.workload == "pas_open")
        runPasOpen(o, r);
    else
        return false;
    return true;
}

} // namespace perfbench
