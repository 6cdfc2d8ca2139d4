#include "obs/exporter/telemetry.h"

#include <chrono>
#include <map>
#include <sstream>
#include <utility>

namespace ssdcheck::obs {

uint64_t
exporterWallNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
TelemetryHub::publish(const Registry &reg, const RunStatus &run)
{
    auto snap = std::make_shared<TelemetrySnapshot>();
    snap->metrics = reg.snapshotMetrics();
    snap->run = run;
    snap->wallNs = exporterWallNs();
    std::lock_guard<std::mutex> lock(mu_);
    snap->sequence = ++sequence_;
    snap_ = std::move(snap);
}

std::shared_ptr<const TelemetrySnapshot>
TelemetryHub::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
}

uint64_t
TelemetryHub::sequence() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sequence_;
}

ShardProgress::ShardProgress(TelemetryHub *hub, const std::string &phase,
                             uint64_t shards,
                             const std::vector<std::string> &counters)
    : hub_(hub), phase_(phase), shards_(shards), totals_(counters.size())
{
    if (hub_ == nullptr)
        return;
    reg_.exportCounter(phase + "_shards_done", {}, &shardsDone_);
    for (size_t i = 0; i < counters.size(); ++i)
        reg_.exportCounter(counters[i], {}, &totals_[i]);
}

void
ShardProgress::shardDone(RunStatus st, const std::vector<uint64_t> &deltas)
{
    if (hub_ == nullptr)
        return;
    core::MutexLock lock(mu_);
    shardsDone_ += 1;
    for (size_t i = 0; i < deltas.size() && i < totals_.size(); ++i)
        totals_[i] += deltas[i];
    shedTotal_ += st.shedTotal;
    publish(std::move(st), phase_);
}

void
ShardProgress::finish(RunStatus st)
{
    if (hub_ == nullptr)
        return;
    core::MutexLock lock(mu_);
    publish(std::move(st), "done");
}

void
ShardProgress::publish(RunStatus st, const std::string &phase)
{
    st.phase = phase;
    st.cursor = shardsDone_;
    st.totalRequests = shards_;
    st.shedTotal = shedTotal_;
    hub_->publish(reg_, st);
}

std::string
escapeLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

namespace {

/** `{k1="v1",k2="v2"}` (empty string when no labels). @p extraKey /
 *  @p extraValue append one more pair (the histogram `le`). */
std::string
labelBlock(const Labels &labels, const char *extraKey = nullptr,
           const std::string &extraValue = std::string())
{
    if (labels.empty() && extraKey == nullptr)
        return std::string();
    std::string out = "{";
    bool first = true;
    for (const auto &kv : labels) {
        if (!first)
            out += ',';
        first = false;
        out += kv.first;
        out += "=\"";
        out += escapeLabelValue(kv.second);
        out += '"';
    }
    if (extraKey != nullptr) {
        if (!first)
            out += ',';
        out += extraKey;
        out += "=\"";
        out += extraValue;
        out += '"';
    }
    out += '}';
    return out;
}

/** Metric indices grouped by name in first-registration order, so the
 *  exposition is byte-stable and every family is contiguous (the
 *  format forbids interleaved families). */
std::vector<std::pair<std::string, std::vector<size_t>>>
familiesOf(const std::vector<MetricSnapshot> &metrics)
{
    std::vector<std::pair<std::string, std::vector<size_t>>> families;
    std::map<std::string, size_t> at;
    for (size_t i = 0; i < metrics.size(); ++i) {
        auto it = at.find(metrics[i].name);
        if (it == at.end()) {
            at.emplace(metrics[i].name, families.size());
            families.push_back({metrics[i].name, {i}});
        } else {
            families[it->second].second.push_back(i);
        }
    }
    return families;
}

void
helpAndType(std::ostringstream &os, const std::string &fullName,
            const char *type)
{
    os << "# HELP " << fullName << " ssdcheck registry metric.\n"
       << "# TYPE " << fullName << ' ' << type << '\n';
}

struct QuantileSpec
{
    const char *suffix;
    uint32_t permille;
};

constexpr QuantileSpec kQuantiles[] = {
    {"_p50", 500}, {"_p95", 950}, {"_p99", 990}, {"_p999", 999}};

} // namespace

std::string
renderPrometheus(const TelemetrySnapshot &snap)
{
    std::ostringstream os;
    const auto families = familiesOf(snap.metrics);
    for (const auto &family : families) {
        const std::string full = "ssdcheck_" + family.first;
        const MetricSnapshot &head = snap.metrics[family.second[0]];
        switch (head.type) {
          case MetricSnapshot::Type::Counter:
          case MetricSnapshot::Type::Gauge: {
            helpAndType(os, full,
                        head.type == MetricSnapshot::Type::Counter
                            ? "counter"
                            : "gauge");
            for (size_t i : family.second) {
                const MetricSnapshot &m = snap.metrics[i];
                os << full << labelBlock(m.labels) << ' ' << m.value
                   << '\n';
            }
            break;
          }
          case MetricSnapshot::Type::Histogram: {
            helpAndType(os, full, "histogram");
            for (size_t i : family.second) {
                const MetricSnapshot &m = snap.metrics[i];
                uint64_t cum = 0;
                for (size_t b = 0; b < m.hist.counts.size(); ++b) {
                    cum += m.hist.counts[b];
                    std::string le;
                    if (b < m.hist.bounds.size())
                        le = std::to_string(m.hist.bounds[b]);
                    else
                        le = "+Inf";
                    os << full << "_bucket"
                       << labelBlock(m.labels, "le", le) << ' ' << cum
                       << '\n';
                }
                os << full << "_sum" << labelBlock(m.labels) << ' '
                   << m.hist.sum << '\n';
                os << full << "_count" << labelBlock(m.labels) << ' '
                   << m.hist.count << '\n';
            }
            // Interpolated quantile estimates as gauge families of
            // their own (native histogram quantiles are a server-side
            // concept; these make p99 visible on a bare scrape).
            for (const QuantileSpec &q : kQuantiles) {
                helpAndType(os, full + q.suffix, "gauge");
                for (size_t i : family.second) {
                    const MetricSnapshot &m = snap.metrics[i];
                    os << full << q.suffix << labelBlock(m.labels) << ' '
                       << histogramQuantile(m.hist, q.permille) << '\n';
                }
            }
            break;
          }
        }
    }
    return os.str();
}

std::string
renderRunz(const TelemetrySnapshot &snap)
{
    std::ostringstream os;
    os << "{\"sequence\":" << snap.sequence
       << ",\"phase\":\"" << snap.run.phase << '"'
       << ",\"cursor\":" << snap.run.cursor
       << ",\"total_requests\":" << snap.run.totalRequests
       << ",\"sim_time_ns\":" << snap.run.simTimeNs
       << ",\"checkpoints\":" << snap.run.checkpoints
       << ",\"breaker_state\":" << static_cast<int>(snap.run.breakerState)
       << ",\"ladder_level\":" << static_cast<int>(snap.run.ladderLevel)
       << ",\"shed_total\":" << snap.run.shedTotal
       << ",\"error_budget_ppm\":" << snap.run.errorBudgetPpm
       << ",\"supervisor_state\":"
       << static_cast<int>(snap.run.supervisorState)
       << ",\"healthy\":" << (snap.run.healthy ? "true" : "false")
       << ",\"metrics\":" << snap.metrics.size() << "}\n";
    return os.str();
}

bool
renderHealthz(const TelemetrySnapshot *snap, uint64_t nowWallNs,
              uint64_t staleNs, std::string *body)
{
    std::ostringstream os;
    bool healthy = false;
    if (snap == nullptr) {
        os << "{\"healthy\":false,\"reason\":\"no snapshot published\"}\n";
    } else {
        const uint64_t age =
            nowWallNs > snap->wallNs ? nowWallNs - snap->wallNs : 0;
        const bool fresh = age <= staleNs;
        healthy = fresh && snap->run.healthy;
        os << "{\"healthy\":" << (healthy ? "true" : "false")
           << ",\"sequence\":" << snap->sequence
           << ",\"age_ms\":" << age / 1000000
           << ",\"stale_after_ms\":" << staleNs / 1000000
           << ",\"run_healthy\":" << (snap->run.healthy ? "true" : "false")
           << ",\"supervisor_state\":"
           << static_cast<int>(snap->run.supervisorState) << "}\n";
    }
    if (body != nullptr)
        *body = os.str();
    return healthy;
}

} // namespace ssdcheck::obs
