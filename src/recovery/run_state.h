/**
 * @file
 * The QD1 host run stack: device → resilient retry path → optional
 * resilience policy, with the SSDcheck model and health supervisor
 * beside it, one workload trace, and the observability sink. One
 * RunSpec builds it; it steps one request at a time, checkpoints and
 * restores section by section, and recovery::checkInvariants checks
 * it. `ssdcheck run` (CheckpointableRun, below), chaos shards
 * (resilience::ChaosShard) and the CLI's `accuracy` and `trace` all
 * build through here and differ only in spec.
 *
 * Every step boundary is a quiescent point: no request is in flight,
 * no event is pending, and the full simulation state is the member
 * state of the components, all of which implement
 * saveState()/loadState() (see DESIGN.md "Crash consistency & state
 * serialization").
 *
 * Determinism contract: create(params) + N steps + checkpoint()
 * produces the same bytes whether the N steps ran in one process or
 * were split across any number of kill/restore cycles. The chaos soak
 * harness (tools/soak) and the resume property test build on exactly
 * this contract.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blockdev/resilient_device.h"
#include "core/accuracy.h"
#include "core/health_supervisor.h"
#include "core/ssdcheck.h"
#include "obs/exporter/telemetry.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "recovery/snapshot.h"
#include "resilience/policy.h"
#include "ssd/ssd_device.h"
#include "workload/trace.h"

namespace ssdcheck::recovery {

/** How the host clock advances between requests. */
enum class Pacing : uint8_t
{
    Open = 0,   ///< Fixed arrival period; queues can build (overload).
    Closed = 1, ///< Next request waits for the previous completion.
};

/** Everything that shapes one host stack. */
struct RunSpec
{
    std::string device = "A";            ///< Preset ("A".."G" or "nvm").
    std::optional<uint64_t> deviceSeed;  ///< Replaces the preset's seed.
    ssd::FaultProfile faults;            ///< Measured device only.
    std::string workload = "RW Mixed";
    double scale = 0.05;                 ///< Trace shrink factor.
    /** Policy layer over the resilient path (nullopt = none). */
    std::optional<resilience::ResiliencePolicy> policy;
    bool model = true;       ///< SSDcheck model (clean-twin diagnosis).
    bool supervisor = false; ///< Health supervisor (needs the model).
    Pacing pacing = Pacing::Closed;
    /** Arrival spacing: request i is not issued before origin + i *
     *  period (0 = back to back). */
    sim::SimDuration arrivalPeriod = 0;
    int64_t timelineMs = 0; ///< Registry timeline interval (0 = off).
    obs::Sink sink;         ///< Observability targets (not owned).
};

/** Empty when @p scale is a usable trace shrink factor — in (0, 1],
 *  the range workload::buildSniaTrace accepts — else why not. */
std::string scaleError(double scale);

/**
 * Load section @p id through @p load(StateReader&). Missing is
 * MissingSection; a decode failure or trailing bytes is Malformed,
 * with @p name in @p detail.
 */
template <typename Load>
[[nodiscard]] LoadError
loadSection(const Snapshot &snap, SectionId id, const char *name,
            std::string *detail, Load &&load)
{
    auto explain = [&](const std::string &why) {
        if (detail != nullptr)
            *detail = why;
    };
    const std::vector<uint8_t> *payload = snap.section(id);
    if (payload == nullptr) {
        explain(std::string("required section '") + name + "' is missing");
        return LoadError::MissingSection;
    }
    StateReader r(*payload);
    load(r);
    if (!r.ok()) {
        explain(std::string("section '") + name + "': " + r.error());
        return LoadError::Malformed;
    }
    if (!r.atEnd()) {
        explain(std::string("section '") + name + "' has trailing bytes");
        return LoadError::Malformed;
    }
    return LoadError::Ok;
}

/** One host stack over one workload trace. */
class RunStack
{
  public:
    /**
     * Build the stack for @p spec: resolve the names, check the scale,
     * diagnose a clean twin (model only), attach the sink, precondition
     * the device and synthesize the trace. @p forResume skips the
     * diagnosis and preconditioning, whose state restoreSections() is
     * about to overwrite. @return nullptr (with @p err set) on failure.
     */
    static std::unique_ptr<RunStack> build(const RunSpec &spec,
                                           bool forResume, std::string *err);

    RunStack(const RunStack &) = delete;
    RunStack &operator=(const RunStack &) = delete;

    /** True when the whole trace has been replayed. */
    bool done() const { return cursor_ >= trace_.size(); }

    /** Replay one request (precondition: !done()). */
    core::HostStep step();

    /** Requests replayed so far (the resume point of a snapshot). */
    uint64_t cursor() const { return cursor_; }

    /** Current host time. */
    sim::SimTime now() const { return t_; }

    /** The /runz view of this stack under @p phase: progress, sim
     *  time, and the policy and supervisor state of the layers it has
     *  (checkpoints is left 0; the driver counts them). */
    obs::RunStatus status(const char *phase) const;

    /** Accuracy confusion counts so far (model runs only). */
    const core::AccuracyResult &accuracy() const { return loop_.acc; }

    /**
     * Snapshot header (identity @p configHash, cursor, time) plus one
     * section per layer present, in the order Device, Model,
     * Supervisor, Resilient, Resilience, Accuracy, Registry.
     */
    Snapshot snapshot(uint64_t configHash) const;

    /**
     * Load every layer's section from @p snap and resume at its cursor
     * and time; a section for a layer this stack lacks is Malformed.
     * On failure discard the stack: state may be partly overwritten.
     */
    [[nodiscard]] LoadError restoreSections(const Snapshot &snap,
                                            std::string *detail);

    // -- layers (reports, invariant checks) -------------------------------
    ssd::SsdDevice &device() { return *dev_; }
    const ssd::SsdDevice &device() const { return *dev_; }
    blockdev::ResilientDevice &resilient() { return *rdev_; }
    const blockdev::ResilientDevice &resilient() const { return *rdev_; }
    /** Policy layer, or nullptr when the spec has none. */
    resilience::PolicyDevice *policyPtr() { return pdev_.get(); }
    const resilience::PolicyDevice *policyPtr() const { return pdev_.get(); }
    /** The layer host requests enter: the policy, else the retry path. */
    blockdev::BlockDevice &top();
    /** Runtime model, or nullptr when the spec has none. */
    core::SsdCheck *checkPtr() { return check_.get(); }
    const core::SsdCheck *checkPtr() const { return check_.get(); }
    core::HealthSupervisor *supervisorPtr() { return sup_.get(); }
    const core::HealthSupervisor *supervisorPtr() const
    {
        return sup_.get();
    }
    const workload::Trace &trace() const { return trace_; }

  protected:
    RunStack() = default;

    /** build() into this object (for stacks that add state). */
    [[nodiscard]] bool init(const RunSpec &spec, bool forResume,
                            std::string *err);

    RunSpec spec_;
    std::unique_ptr<ssd::SsdDevice> dev_;
    std::unique_ptr<blockdev::ResilientDevice> rdev_;
    std::unique_ptr<resilience::PolicyDevice> pdev_;
    std::unique_ptr<core::SsdCheck> check_;
    std::unique_ptr<core::HealthSupervisor> sup_;
    core::HostLoop loop_;
    workload::Trace trace_;
    sim::SimTime origin_; ///< Arrival-clock origin (post-diagnosis).
    sim::SimTime t_;
    uint64_t cursor_ = 0;

  private:
    /** Call @p visit(id, name, layer) for every section in snapshot
     *  order; layer is nullptr when this stack lacks it. */
    template <typename Self, typename Visit>
    static void forEachSection(Self &self, Visit &&visit);
};

/**
 * Everything that shapes a run's deterministic evolution. Two runs
 * (or one run and a snapshot) are compatible exactly when their
 * configHash() matches — resuming a snapshot under different params
 * would silently diverge, so the loader refuses it.
 */
struct RunParams
{
    std::string device = "A";      ///< Preset name ("A".."G" or "nvm").
    std::string faults = "none";   ///< Fault-profile name.
    std::string workload = "RW Mixed";
    double scale = 0.05;           ///< Trace shrink factor.
    bool supervisor = false;       ///< Health supervisor attached.
    int64_t timelineMs = 0;        ///< Metrics timeline interval (0=off).
    std::string resilience = "off"; ///< Policy preset ("off" = none).

    /** Canonical text form (hashed; also stored for diagnostics). */
    std::string canonical() const;

    /** FNV-1a over canonical() — the snapshot compatibility key. */
    uint64_t configHash() const;

    /**
     * The stack spec of these params: fault profile and policy preset
     * resolved by name, model on, closed pacing, no sink.
     * @return false (with @p err set) for an unknown name.
     */
    bool toSpec(RunSpec *out, std::string *err) const;
};

/** The checkpointable accuracy-run driver. */
class CheckpointableRun : public RunStack
{
  public:
    /** Build the host stack for @p params (as RunStack::build) with
     *  the run's registry attached. */
    static std::unique_ptr<CheckpointableRun>
    create(const RunParams &params, bool forResume, std::string *err);

    /** The stack's snapshot under configHash() plus a RunParams
     *  section. */
    Snapshot checkpoint() const;

    /**
     * restoreSections() after checking the config hash
     * (ConfigMismatch). @p forceConfig skips that check (--force):
     * section-level validation still applies, so structurally
     * incompatible state fails as Malformed instead.
     */
    [[nodiscard]] LoadError restore(const Snapshot &snap,
                                    std::string *detail,
                                    bool forceConfig = false);

    obs::Registry &registry() { return registry_; }

    /** Metrics-registry JSON snapshot at the current virtual time. */
    std::string metricsJson() const { return registry_.toJson(t_); }

  private:
    CheckpointableRun() = default;

    RunParams params_;
    obs::Registry registry_;
};

} // namespace ssdcheck::recovery
