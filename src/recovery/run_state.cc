#include "recovery/run_state.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "core/diagnosis.h"
#include "ssd/presets.h"
#include "workload/snia_synth.h"

namespace ssdcheck::recovery {

std::string
scaleError(double scale)
{
    if (!std::isfinite(scale) || scale <= 0 || scale > 1)
        return "scale must be a number in (0, 1]";
    return "";
}

std::unique_ptr<RunStack>
RunStack::build(const RunSpec &spec, bool forResume, std::string *err)
{
    std::unique_ptr<RunStack> stack(new RunStack());
    if (!stack->init(spec, forResume, err))
        return nullptr;
    return stack;
}

bool
RunStack::init(const RunSpec &spec, bool forResume, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err != nullptr)
            *err = why;
        return false;
    };
    ssd::SsdConfig cfg;
    if (!ssd::presetByName(spec.device, &cfg))
        return fail("unknown device '" + spec.device + "'");
    cfg.faults = spec.faults;
    if (spec.deviceSeed)
        cfg.seed = *spec.deviceSeed;
    workload::SniaWorkload w = workload::SniaWorkload::RwMixed;
    if (!workload::sniaWorkloadByName(spec.workload, &w))
        return fail("unknown workload '" + spec.workload + "'");
    const std::string se = scaleError(spec.scale);
    if (!se.empty())
        return fail(se);
    if (spec.supervisor && !spec.model)
        return fail("the health supervisor needs the model");

    spec_ = spec;
    dev_ = std::make_unique<ssd::SsdDevice>(cfg);
    rdev_ = std::make_unique<blockdev::ResilientDevice>(*dev_);
    if (spec.policy)
        pdev_ = std::make_unique<resilience::PolicyDevice>(*rdev_,
                                                           *spec.policy);
    if (spec.model && forResume) {
        check_ = std::make_unique<core::SsdCheck>(core::FeatureSet{});
    } else if (spec.model) {
        // Features come from a healthy twin (same model and seed, no
        // faults): the whole fault budget lands on the measured run,
        // so the runtime machinery is what gets tested.
        ssd::SsdConfig cleanCfg = cfg;
        cleanCfg.faults = ssd::FaultProfile{};
        ssd::SsdDevice cleanDev(cleanCfg);
        core::DiagnosisRunner runner(cleanDev, core::DiagnosisConfig{});
        const core::FeatureSet fs = runner.extractFeatures();
        if (!fs.bufferModelUsable())
            return fail("no usable buffer model for device '" +
                        spec.device + "'");
        check_ = std::make_unique<core::SsdCheck>(fs);
        t_ = runner.now();
    }
    // With a policy stacked, probes flow through it: supervisor probe
    // I/O is exactly the breaker's HalfOpen trial stream.
    if (spec.supervisor)
        sup_ = std::make_unique<core::HealthSupervisor>(*check_, top());

    // The attach order must be identical on the fresh and resume paths
    // so the registry's registration order (its restore key) matches.
    const obs::Sink &sink = spec.sink;
    if (sink.metrics != nullptr && spec.timelineMs > 0)
        sink.metrics->enableTimeline(sim::milliseconds(spec.timelineMs));
    if (sink.any()) {
        dev_->attachObservability(sink);
        rdev_->attachObservability(sink);
        if (pdev_)
            pdev_->attachObservability(sink);
        if (check_)
            check_->attachObservability(sink);
        if (sup_)
            sup_->attachObservability(sink);
    }
    if (sink.trace != nullptr) {
        obs::TraceRecorder &tr = *sink.trace;
        tr.setProcessName(obs::kHostPid, "host");
        tr.setProcessName(obs::kDevicePid, "ssd " + dev_->name());
        tr.setThreadName({obs::kHostPid, obs::kHostWorkloadTid}, "workload");
        tr.setThreadName({obs::kHostPid, obs::kHostResilientTid},
                         "resilient-io");
        tr.setThreadName({obs::kHostPid, obs::kHostModelTid},
                         "ssdcheck-model");
        tr.setThreadName({obs::kHostPid, obs::kHostSupervisorTid},
                         "supervisor");
        tr.setThreadName({obs::kDevicePid, obs::kDeviceInterfaceTid},
                         "interface");
        for (uint32_t v = 0; v < dev_->config().numVolumes(); ++v)
            tr.setThreadName({obs::kDevicePid, v},
                             "volume " + std::to_string(v));
    }
    loop_ = core::HostLoop(top(), check_.get(), sup_.get(), sink);

    if (!forResume)
        dev_->precondition();
    trace_ = workload::buildSniaTrace(w, dev_->capacityPages(), spec.scale);
    if (sink.audit != nullptr)
        sink.audit->reserve(sink.audit->size() + trace_.size());
    origin_ = t_;
    return true;
}

blockdev::BlockDevice &
RunStack::top()
{
    if (pdev_)
        return *pdev_;
    return *rdev_;
}

core::HostStep
RunStack::step()
{
    // Open pacing: t_ is the host submit clock — it follows arrivals
    // even while the device's completion horizon runs ahead (that gap
    // is what admission control measures). Closed pacing folds the
    // completion into t_, so max() waits for it here.
    if (spec_.arrivalPeriod > 0)
        t_ = std::max(t_, origin_ + static_cast<sim::SimDuration>(cursor_) *
                                        spec_.arrivalPeriod);
    const core::HostStep s = loop_.request(trace_[cursor_].req, t_);
    t_ = spec_.pacing == Pacing::Closed ? s.res.completeTime : s.submitted;
    ++cursor_;
    return s;
}

obs::RunStatus
RunStack::status(const char *phase) const
{
    obs::RunStatus st;
    st.phase = phase;
    st.cursor = cursor_;
    st.totalRequests = trace_.size();
    st.simTimeNs = t_.ns();
    if (pdev_) {
        st.breakerState = static_cast<uint8_t>(pdev_->breakerState());
        st.ladderLevel = static_cast<uint8_t>(pdev_->ladderLevel());
        st.shedTotal = pdev_->counters().shedTotal();
        const int64_t ppm = pdev_->errorBudgetPpm();
        st.errorBudgetPpm = ppm > 0 ? static_cast<uint64_t>(ppm) : 0;
    }
    if (sup_)
        st.supervisorState = static_cast<uint8_t>(sup_->state());
    return st;
}

template <typename Self, typename Visit>
void
RunStack::forEachSection(Self &self, Visit &&visit)
{
    visit(SectionId::Device, "device", self.dev_.get());
    visit(SectionId::Model, "model", self.check_.get());
    visit(SectionId::Supervisor, "supervisor", self.sup_.get());
    visit(SectionId::Resilient, "resilient", self.rdev_.get());
    visit(SectionId::Resilience, "resilience", self.pdev_.get());
    visit(SectionId::Accuracy, "accuracy",
          self.check_ ? &self.loop_.acc : nullptr);
    visit(SectionId::Registry, "registry", self.spec_.sink.metrics);
}

Snapshot
RunStack::snapshot(uint64_t configHash) const
{
    Snapshot snap;
    snap.begin(configHash, cursor_, t_.ns());
    forEachSection(*this, [&](SectionId id, const char *, const auto *layer) {
        if (layer == nullptr)
            return;
        StateWriter w;
        layer->saveState(w);
        snap.addSection(id, w.take());
    });
    return snap;
}

LoadError
RunStack::restoreSections(const Snapshot &snap, std::string *detail)
{
    if (snap.requestIndex() > trace_.size()) {
        if (detail != nullptr)
            *detail = "snapshot resume point is beyond the end of the trace";
        return LoadError::Malformed;
    }
    LoadError e = LoadError::Ok;
    forEachSection(*this, [&](SectionId id, const char *name, auto *layer) {
        if (e != LoadError::Ok)
            return;
        if (layer != nullptr) {
            e = loadSection(snap, id, name, detail,
                            [&](StateReader &r) { layer->loadState(r); });
        } else if (snap.section(id) != nullptr) {
            if (detail != nullptr)
                *detail = std::string("snapshot has a ") + name +
                          " section but this run has no such layer";
            e = LoadError::Malformed;
        }
    });
    if (e != LoadError::Ok)
        return e;
    cursor_ = snap.requestIndex();
    t_ = sim::SimTime{snap.simTimeNs()};
    return LoadError::Ok;
}


std::string
RunParams::canonical() const
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "device=%s;faults=%s;workload=%s;scale=%.6f;"
                  "supervisor=%d;timeline_ms=%" PRId64 ";resilience=%s",
                  device.c_str(), faults.c_str(), workload.c_str(), scale,
                  supervisor ? 1 : 0, timelineMs, resilience.c_str());
    return buf;
}

uint64_t
RunParams::configHash() const
{
    return fnv1a(canonical());
}

bool
RunParams::toSpec(RunSpec *out, std::string *err) const
{
    auto fail = [&](const std::string &why) {
        if (err != nullptr)
            *err = why;
        return false;
    };
    RunSpec spec;
    if (!ssd::faultProfileByName(faults, &spec.faults)) {
        std::string names;
        for (const ssd::FaultProfile &p : ssd::allFaultProfiles())
            names += (names.empty() ? "" : " ") + p.name;
        return fail("unknown fault profile '" + faults + "' (try: " +
                    names + ")");
    }
    resilience::ResiliencePolicy policy;
    if (!resilience::resiliencePolicyByName(resilience, &policy))
        return fail("unknown resilience policy '" + resilience + "'");
    if (policy.enabled)
        spec.policy = policy;
    spec.device = device;
    spec.workload = workload;
    spec.scale = scale;
    spec.supervisor = supervisor;
    spec.timelineMs = timelineMs;
    *out = spec;
    return true;
}

std::unique_ptr<CheckpointableRun>
CheckpointableRun::create(const RunParams &params, bool forResume,
                          std::string *err)
{
    std::unique_ptr<CheckpointableRun> run(new CheckpointableRun());
    run->params_ = params;
    RunSpec spec;
    if (!params.toSpec(&spec, err))
        return nullptr;
    // Metrics are always attached: the registry is part of the
    // checkpointed state and of the final-state comparison.
    spec.sink.metrics = &run->registry_;
    if (!run->init(spec, forResume, err))
        return nullptr;
    return run;
}

Snapshot
CheckpointableRun::checkpoint() const
{
    Snapshot snap = snapshot(params_.configHash());
    StateWriter w;
    w.str(params_.canonical());
    snap.addSection(SectionId::RunParams, w.take());
    return snap;
}

LoadError
CheckpointableRun::restore(const Snapshot &snap, std::string *detail,
                           bool forceConfig)
{
    if (!forceConfig && snap.configHash() != params_.configHash()) {
        if (detail != nullptr)
            *detail = "snapshot was taken under a different run "
                      "configuration (this run: " +
                      params_.canonical() + ")";
        return LoadError::ConfigMismatch;
    }
    return restoreSections(snap, detail);
}

} // namespace ssdcheck::recovery
