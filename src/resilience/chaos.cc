#include "resilience/chaos.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <type_traits>

#include "obs/exporter/telemetry.h"
#include "perf/thread_pool.h"
#include "recovery/invariants.h"
#include "recovery/state_io.h"

namespace ssdcheck::resilience {

namespace {

/** Stable float rendering for canonical(): enough digits to round-trip
 *  every value a scenario file can express. */
std::string
fnum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** Parse all of @p s as a T in range (finite for floating point). */
template <typename T>
bool
parseNum(const std::string &s, T *out)
{
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size())
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    *out = v;
    return true;
}

bool
driftKindByName(const std::string &name, ssd::DriftKind *out)
{
    if (name == "none")
        *out = ssd::DriftKind::None;
    else if (name == "shrink-buffer")
        *out = ssd::DriftKind::ShrinkBuffer;
    else if (name == "grow-buffer")
        *out = ssd::DriftKind::GrowBuffer;
    else if (name == "toggle-read-trigger")
        *out = ssd::DriftKind::ToggleReadTrigger;
    else
        return false;
    return true;
}

} // namespace

uint64_t
chaosDigestFold(uint64_t digest, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xffu;
        digest *= 1099511628211ULL;
    }
    return digest;
}

std::string
ChaosScenario::canonical() const
{
    std::ostringstream o;
    o << "chaos;name=" << name << ";device=" << device
      << ";workload=" << workload << ";scale=" << fnum(scale)
      << ";pacing=" << (pacing == Pacing::Closed ? "closed" : "open")
      << ";arrival=" << arrivalPeriod
      << ";supervisor=" << (supervisor ? 1 : 0);
    o << ";faults=" << fnum(faults.readUncProbability) << ","
      << faults.readRetryMax << "," << faults.readRetryCost << ","
      << fnum(faults.readUncHardFraction) << ","
      << fnum(faults.programFailProbability) << ","
      << fnum(faults.eraseFailProbability) << ","
      << fnum(faults.stallProbability) << "," << faults.stallMin << ","
      << faults.stallMax << "," << faults.driftAfterRequests << ","
      << static_cast<int>(faults.driftKind) << ","
      << fnum(faults.driftBufferFactor);
    o << ";regime=" << fnum(faults.regime.enterBurst) << ","
      << fnum(faults.regime.exitBurst) << ","
      << fnum(faults.regime.uncFactor) << ","
      << fnum(faults.regime.stallFactor);
    for (const ssd::FaultPhase &p : faults.phases)
        o << ";phase=" << p.fromRequest << "," << p.toRequest << ","
          << fnum(p.regime.enterBurst) << "," << fnum(p.regime.exitBurst)
          << "," << fnum(p.regime.uncFactor) << ","
          << fnum(p.regime.stallFactor);
    for (const ssd::UncCluster &c : faults.uncClusters)
        o << ";cluster=" << c.firstPage << "," << c.pages << ","
          << fnum(c.probability);
    o << ";policy=" << (policy.enabled ? 1 : 0) << ","
      << policy.deadlineBudget << "," << (policy.hedgeReads ? 1 : 0)
      << "," << policy.hedgeDelay << ","
      << fnum(policy.hedgeBudgetFraction) << "," << policy.breakerWindow
      << "," << fnum(policy.breakerErrorThreshold) << ","
      << policy.breakerMinSamples << "," << policy.breakerCooldown << ","
      << policy.breakerHalfOpenSuccesses << "," << policy.maxBacklog
      << "," << policy.sloLatencyTarget << ","
      << fnum(policy.sloErrorBudget) << "," << policy.sloWindow << ","
      << policy.ladderEvalEvery << "," << policy.failFastCooldown;
    return o.str();
}

bool
ChaosScenario::parse(const std::string &text, ChaosScenario *out,
                     std::string *err)
{
    auto fail = [&](int line, const std::string &why) {
        if (err != nullptr)
            *err = "line " + std::to_string(line) + ": " + why;
        return false;
    };

    ChaosScenario sc;
    // The scenario file's base presets: faults start from "none" and
    // policy from "guarded"; later keys override individual fields.
    // The struct's default seed list is for programmatic construction
    // only — a scenario file must name its seeds explicitly.
    sc.seeds.clear();
    (void)resiliencePolicyByName("guarded", &sc.policy);

    std::istringstream in(text);
    std::string lineText;
    int lineNo = 0;
    while (std::getline(in, lineText)) {
        ++lineNo;
        const size_t hash = lineText.find('#');
        if (hash != std::string::npos)
            lineText.erase(hash);
        std::istringstream line(lineText);
        std::string key;
        if (!(line >> key))
            continue;

        // Remainder-of-line values (workload names contain spaces).
        auto rest = [&]() {
            std::string v;
            std::getline(line, v);
            const size_t b = v.find_first_not_of(" \t");
            const size_t e = v.find_last_not_of(" \t");
            return b == std::string::npos ? std::string()
                                          : v.substr(b, e - b + 1);
        };
        // Single-token numeric value, range-checked for *dst's type.
        auto num = [&](auto *dst) {
            std::string tok;
            return bool(line >> tok) && parseNum(tok, dst);
        };
        auto durMs = [&](sim::SimDuration *dst) {
            uint64_t ms = 0;
            if (!num(&ms))
                return false;
            *dst = sim::milliseconds(static_cast<int64_t>(ms));
            return true;
        };
        auto durUs = [&](sim::SimDuration *dst) {
            uint64_t us = 0;
            if (!num(&us))
                return false;
            *dst = sim::microseconds(static_cast<int64_t>(us));
            return true;
        };
        auto flag = [&](bool *dst) {
            uint64_t v = 0;
            if (!num(&v) || v > 1)
                return false;
            *dst = v != 0;
            return true;
        };
        bool good = true;

        // -- run shape ------------------------------------------------
        if (key == "name") {
            sc.name = rest();
            good = !sc.name.empty();
        } else if (key == "device") {
            sc.device = rest();
            good = !sc.device.empty();
        } else if (key == "workload") {
            sc.workload = rest();
            good = !sc.workload.empty();
        } else if (key == "scale") {
            good = num(&sc.scale);
        } else if (key == "seeds") {
            sc.seeds.clear();
            std::string tok;
            while (good && (line >> tok)) {
                uint64_t s = 0;
                good = parseNum(tok, &s);
                if (good)
                    sc.seeds.push_back(s);
            }
            good = good && !sc.seeds.empty();
        } else if (key == "pacing") {
            const std::string v = rest();
            if (v == "open")
                sc.pacing = Pacing::Open;
            else if (v == "closed")
                sc.pacing = Pacing::Closed;
            else
                good = false;
        } else if (key == "arrival-us") {
            good = durUs(&sc.arrivalPeriod);
        } else if (key == "supervisor") {
            good = flag(&sc.supervisor);

            // -- fault schedule ---------------------------------------
        } else if (key == "faults") {
            good = ssd::faultProfileByName(rest(), &sc.faults);
        } else if (key == "unc-probability") {
            good = num(&sc.faults.readUncProbability);
        } else if (key == "unc-hard-fraction") {
            good = num(&sc.faults.readUncHardFraction);
        } else if (key == "read-retry-max") {
            good = num(&sc.faults.readRetryMax);
        } else if (key == "program-fail-probability") {
            good = num(&sc.faults.programFailProbability);
        } else if (key == "erase-fail-probability") {
            good = num(&sc.faults.eraseFailProbability);
        } else if (key == "stall-probability") {
            good = num(&sc.faults.stallProbability);
        } else if (key == "stall-min-ms") {
            good = durMs(&sc.faults.stallMin);
        } else if (key == "stall-max-ms") {
            good = durMs(&sc.faults.stallMax);
        } else if (key == "drift-after") {
            good = num(&sc.faults.driftAfterRequests);
        } else if (key == "drift-kind") {
            good = driftKindByName(rest(), &sc.faults.driftKind);
        } else if (key == "burst-enter") {
            good = num(&sc.faults.regime.enterBurst);
        } else if (key == "burst-exit") {
            good = num(&sc.faults.regime.exitBurst);
        } else if (key == "burst-unc-factor") {
            good = num(&sc.faults.regime.uncFactor);
        } else if (key == "burst-stall-factor") {
            good = num(&sc.faults.regime.stallFactor);
        } else if (key == "phase") {
            ssd::FaultPhase p;
            good = num(&p.fromRequest) && num(&p.toRequest) &&
                   num(&p.regime.enterBurst) && num(&p.regime.exitBurst) &&
                   num(&p.regime.uncFactor) && num(&p.regime.stallFactor);
            if (good)
                sc.faults.phases.push_back(p);
        } else if (key == "unc-cluster") {
            ssd::UncCluster c;
            good = num(&c.firstPage) && num(&c.pages) &&
                   num(&c.probability);
            if (good)
                sc.faults.uncClusters.push_back(c);

            // -- policy stack -----------------------------------------
        } else if (key == "policy") {
            good = resiliencePolicyByName(rest(), &sc.policy);
        } else if (key == "deadline-ms") {
            good = durMs(&sc.policy.deadlineBudget);
        } else if (key == "hedge-reads") {
            good = flag(&sc.policy.hedgeReads);
        } else if (key == "hedge-delay-us") {
            good = durUs(&sc.policy.hedgeDelay);
        } else if (key == "hedge-budget") {
            good = num(&sc.policy.hedgeBudgetFraction);
        } else if (key == "breaker-window") {
            good = num(&sc.policy.breakerWindow);
        } else if (key == "breaker-threshold") {
            good = num(&sc.policy.breakerErrorThreshold);
        } else if (key == "breaker-min-samples") {
            good = num(&sc.policy.breakerMinSamples);
        } else if (key == "breaker-cooldown-ms") {
            good = durMs(&sc.policy.breakerCooldown);
        } else if (key == "breaker-halfopen") {
            good = num(&sc.policy.breakerHalfOpenSuccesses);
        } else if (key == "max-backlog-ms") {
            good = durMs(&sc.policy.maxBacklog);
        } else if (key == "slo-latency-ms") {
            good = durMs(&sc.policy.sloLatencyTarget);
        } else if (key == "slo-error-budget") {
            good = num(&sc.policy.sloErrorBudget);
        } else if (key == "slo-window") {
            good = num(&sc.policy.sloWindow);
        } else if (key == "ladder-eval-every") {
            good = num(&sc.policy.ladderEvalEvery);
        } else if (key == "fail-fast-cooldown-ms") {
            good = durMs(&sc.policy.failFastCooldown);

            // -- assertions -------------------------------------------
        } else if (key == "assert-p999-ms") {
            good = durMs(&sc.assertP999);
        } else if (key == "assert-min-completed") {
            good = num(&sc.assertMinCompleted);
        } else if (key == "assert-max-shed") {
            good = num(&sc.assertMaxShed);
        } else if (key == "assert-breaker-opens") {
            good = num(&sc.assertBreakerOpens);
        } else if (key == "assert-breaker-recloses") {
            good = flag(&sc.assertBreakerRecloses);
        } else {
            return fail(lineNo, "unknown key '" + key + "'");
        }
        if (!good)
            return fail(lineNo, "bad value for '" + key + "'");
    }

    if (sc.seeds.empty())
        return fail(lineNo, "no seeds configured");
    const std::string se = recovery::scaleError(sc.scale);
    if (!se.empty())
        return fail(lineNo, se);
    const std::string fe = sc.faults.validate();
    if (!fe.empty())
        return fail(lineNo, "fault schedule: " + fe);
    const std::string pe = sc.policy.validate();
    if (!pe.empty())
        return fail(lineNo, "policy: " + pe);

    *out = sc;
    return true;
}

std::unique_ptr<ChaosShard>
ChaosShard::create(const ChaosScenario &scenario, uint64_t seed,
                   bool forResume, std::string *err)
{
    recovery::RunSpec spec;
    spec.device = scenario.device;
    spec.deviceSeed = seed;
    spec.faults = scenario.faults;
    spec.workload = scenario.workload;
    spec.scale = scenario.scale;
    spec.policy = scenario.policy;
    // The model rides along only to drive the supervisor.
    spec.model = scenario.supervisor;
    spec.supervisor = scenario.supervisor;
    spec.pacing = scenario.pacing;
    spec.arrivalPeriod = scenario.arrivalPeriod;

    std::unique_ptr<ChaosShard> shard(new ChaosShard());
    shard->scenario_ = scenario;
    shard->seed_ = seed;
    shard->digest_ = kChaosDigestInit;
    if (!shard->init(spec, forResume, err))
        return nullptr;
    return shard;
}

void
ChaosShard::step()
{
    const uint64_t i = cursor();
    const core::HostStep s = RunStack::step();
    digest_ = chaosDigestFold(digest_, i);
    digest_ = chaosDigestFold(digest_, static_cast<uint64_t>(s.res.status));
    digest_ = chaosDigestFold(digest_,
                              static_cast<uint64_t>(s.res.completeTime.ns()));
    digest_ = chaosDigestFold(digest_, s.res.attempts);
    if (s.res.ok()) {
        ++completedOk_;
        lat_.add(s.res.completeTime - s.submitted);
    }
}

uint64_t
ChaosShard::configHash() const
{
    return recovery::fnv1a(scenario_.canonical() +
                           ";seed=" + std::to_string(seed_));
}

recovery::Snapshot
ChaosShard::checkpoint() const
{
    recovery::Snapshot snap = snapshot(configHash());
    recovery::StateWriter w;
    w.u64(digest_);
    w.u64(completedOk_);
    w.i64(loop_.lastOkLatency);
    w.i64(origin_.ns());
    w.u64(lat_.count());
    for (const sim::SimDuration s : lat_.sorted())
        w.i64(s);
    snap.addSection(recovery::SectionId::Chaos, w.take());
    return snap;
}

recovery::LoadError
ChaosShard::restore(const recovery::Snapshot &snap, std::string *detail)
{
    if (snap.configHash() != configHash()) {
        if (detail != nullptr)
            *detail = "snapshot was taken under a different chaos scenario "
                      "or seed (this shard: " +
                      scenario_.canonical() + ";seed=" +
                      std::to_string(seed_) + ")";
        return recovery::LoadError::ConfigMismatch;
    }
    const recovery::LoadError e = restoreSections(snap, detail);
    if (e != recovery::LoadError::Ok)
        return e;
    return recovery::loadSection(
        snap, recovery::SectionId::Chaos, "chaos", detail,
        [&](recovery::StateReader &r) {
            digest_ = r.u64();
            completedOk_ = r.u64();
            loop_.lastOkLatency = r.i64();
            origin_ = sim::SimTime{r.i64()};
            const uint64_t n = r.checkCount(r.u64(), sizeof(int64_t));
            lat_.clear();
            for (uint64_t k = 0; k < n && r.ok(); ++k)
                lat_.add(r.i64());
            if (r.ok() && lat_.count() != completedOk_)
                r.fail("latency sample count disagrees with completions");
        });
}

std::vector<std::string>
ChaosShard::checkInvariants() const
{
    std::vector<std::string> violations = recovery::checkInvariants(*this);
    if (lat_.count() != completedOk_)
        violations.push_back(
            "recorded " + std::to_string(lat_.count()) +
            " ok latencies for " + std::to_string(completedOk_) +
            " ok completions");
    return violations;
}

ChaosCampaignResult
runChaosCampaign(const ChaosScenario &scenario, unsigned jobs,
                 obs::TelemetryHub *telemetry)
{
    ChaosCampaignResult out;
    if (scenario.seeds.empty()) {
        out.error = "scenario has no seeds";
        return out;
    }

    const size_t n = scenario.seeds.size();
    out.shards.resize(n);

    obs::ShardProgress progress(telemetry, "chaos", n,
                                {"chaos_completed_ok", "chaos_shed_total"});

    // No more workers than shards (a zero count clamps to one).
    perf::ThreadPool pool(static_cast<unsigned>(std::min<size_t>(jobs, n)));
    parallelFor(pool, n, [&](size_t i) {
        ChaosShardResult &r = out.shards[i];
        r.seed = scenario.seeds[i];
        std::string err;
        const std::unique_ptr<ChaosShard> shard =
            ChaosShard::create(scenario, r.seed, false, &err);
        if (shard == nullptr) {
            r.failures.push_back("shard construction failed: " + err);
            return;
        }
        while (!shard->done())
            shard->step();

        const PolicyCounters &pc = shard->policy().counters();
        r.digest = shard->digest();
        r.completedOk = shard->completedOk();
        r.shed = pc.shedTotal();
        r.deadlineExpired = pc.deadlineExpired;
        r.hedgesIssued = pc.hedgesIssued;
        r.hedgeWins = pc.hedgeWins;
        r.breakerOpens = pc.breakerOpens;
        r.breakerCloses = pc.breakerCloses;
        r.p999 = shard->latencies().percentile(99.9);
        r.maxExchange = shard->policy().maxExchange();
        r.finalTime = shard->now();

        // -- SLO assertions -------------------------------------------
        if (r.completedOk < scenario.assertMinCompleted)
            r.failures.push_back(
                "liveness: " + std::to_string(r.completedOk) +
                " ok completions, floor is " +
                std::to_string(scenario.assertMinCompleted));
        if (scenario.assertP999 > 0 && r.p999 > scenario.assertP999)
            r.failures.push_back(
                "tail latency: p99.9 " + std::to_string(r.p999) +
                "ns over the " + std::to_string(scenario.assertP999) +
                "ns bound");
        if (r.shed > scenario.assertMaxShed)
            r.failures.push_back(
                "shed " + std::to_string(r.shed) +
                " requests, ceiling is " +
                std::to_string(scenario.assertMaxShed));
        if (r.breakerOpens < scenario.assertBreakerOpens)
            r.failures.push_back(
                "breaker opened " + std::to_string(r.breakerOpens) +
                " times, expected at least " +
                std::to_string(scenario.assertBreakerOpens));
        if (scenario.assertBreakerRecloses && r.breakerCloses == 0)
            r.failures.push_back(
                "breaker never recovered through the HalfOpen probe "
                "path");
        for (std::string &v : shard->checkInvariants())
            r.failures.push_back("invariant: " + std::move(v));

        obs::RunStatus st = shard->status("chaos");
        st.healthy = r.failures.empty();
        progress.shardDone(st, {r.completedOk, r.shed});
    });

    out.campaignDigest = kChaosDigestInit;
    out.pass = true;
    for (const ChaosShardResult &r : out.shards) {
        out.campaignDigest = chaosDigestFold(out.campaignDigest, r.digest);
        if (!r.failures.empty())
            out.pass = false;
    }

    // Deterministic final publish after the seed-order fold.
    obs::RunStatus last;
    last.healthy = out.pass;
    progress.finish(last);
    return out;
}

} // namespace ssdcheck::resilience
