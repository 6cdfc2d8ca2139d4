#include "obs/registry.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "recovery/state_io.h"

namespace ssdcheck::obs {

/** One registered metric: an owned histogram or a view into a
 *  component. */
struct Registry::Metric
{
    enum class Kind : uint8_t
    {
        // saveState() writes this kind byte, so it keeps the value 2
        // that snapshots (golden_snapshot_v1.ckpt) already carry.
        OwnedHistogram = 2,
        ViewU64,
        ViewI64,
        ViewU8,
    };

    std::string name;
    Labels labels;
    Kind kind;
    HistogramData hist; // Owned storage (OwnedHistogram).
    // View sources (non-owned, by kind).
    const uint64_t *srcU64 = nullptr;
    const int64_t *srcI64 = nullptr;
    const uint8_t *srcU8 = nullptr;

    const char *typeName() const
    {
        switch (kind) {
          case Kind::ViewU64:
            return "counter";
          case Kind::OwnedHistogram:
            return "histogram";
          case Kind::ViewI64:
          case Kind::ViewU8:
            return "gauge";
        }
        return "gauge";
    }
};

Registry::~Registry()
{
    for (Metric *m : metrics_)
        delete m;
}

Registry::Metric *
Registry::find(const std::string &name, const Labels &labels) const
{
    for (Metric *m : metrics_) {
        if (m->name == name && m->labels == labels)
            return m;
    }
    return nullptr;
}

Registry::Metric &
Registry::add(Metric m)
{
    metrics_.push_back(new Metric(std::move(m)));
    return *metrics_.back();
}

Histogram
Registry::histogram(const std::string &name, std::vector<int64_t> bounds,
                    Labels labels)
{
    if (Metric *m = find(name, labels))
        return Histogram(&m->hist);
    Metric m;
    m.name = name;
    m.labels = std::move(labels);
    m.kind = Metric::Kind::OwnedHistogram;
    m.hist.bounds = std::move(bounds);
    m.hist.counts.assign(m.hist.bounds.size() + 1, 0);
    return Histogram(&add(std::move(m)).hist);
}

void
Registry::exportCounter(const std::string &name, Labels labels,
                        const uint64_t *src)
{
    Metric m;
    m.name = name;
    m.labels = std::move(labels);
    m.kind = Metric::Kind::ViewU64;
    m.srcU64 = src;
    add(std::move(m));
}

void
Registry::exportGauge(const std::string &name, Labels labels,
                      const int64_t *src)
{
    Metric m;
    m.name = name;
    m.labels = std::move(labels);
    m.kind = Metric::Kind::ViewI64;
    m.srcI64 = src;
    add(std::move(m));
}

void
Registry::exportGauge(const std::string &name, Labels labels,
                      const uint8_t *src)
{
    Metric m;
    m.name = name;
    m.labels = std::move(labels);
    m.kind = Metric::Kind::ViewU8;
    m.srcU8 = src;
    add(std::move(m));
}

int64_t
histogramQuantile(const HistogramData &h, uint32_t permille)
{
    if (h.count == 0 || h.bounds.empty())
        return 0;
    // 1-based rank of the requested quantile, rounding up so p100
    // style requests land on the last observation.
    uint64_t rank = (h.count * permille + 999) / 1000;
    if (rank == 0)
        rank = 1;
    if (rank > h.count)
        rank = h.count;
    uint64_t cum = 0;
    for (size_t i = 0; i < h.counts.size(); ++i) {
        const uint64_t before = cum;
        cum += h.counts[i];
        if (cum < rank || h.counts[i] == 0)
            continue;
        const int64_t lower = i == 0 ? 0 : h.bounds[i - 1];
        // The +inf bucket has no finite width: clamp to the last
        // finite bound (the exporter's documented estimate).
        const int64_t upper =
            i < h.bounds.size() ? h.bounds[i] : h.bounds.back();
        if (upper <= lower)
            return upper;
        const uint64_t pos = rank - before; // 1..counts[i]
        return lower + static_cast<int64_t>(
                           static_cast<uint64_t>(upper - lower) * pos /
                           h.counts[i]);
    }
    return h.bounds.back();
}

std::vector<MetricSnapshot>
Registry::snapshotMetrics() const
{
    std::vector<MetricSnapshot> out;
    out.reserve(metrics_.size());
    for (const Metric *m : metrics_) {
        MetricSnapshot s;
        s.name = m->name;
        s.labels = m->labels;
        switch (m->kind) {
          case Metric::Kind::ViewU64:
            s.type = MetricSnapshot::Type::Counter;
            break;
          case Metric::Kind::OwnedHistogram:
            s.type = MetricSnapshot::Type::Histogram;
            s.hist = m->hist;
            break;
          case Metric::Kind::ViewI64:
          case Metric::Kind::ViewU8:
            s.type = MetricSnapshot::Type::Gauge;
            break;
        }
        s.value = read(*m);
        out.push_back(std::move(s));
    }
    return out;
}

int64_t
Registry::read(const Metric &m)
{
    switch (m.kind) {
      case Metric::Kind::OwnedHistogram:
        return static_cast<int64_t>(m.hist.count);
      case Metric::Kind::ViewU64:
        return static_cast<int64_t>(*m.srcU64);
      case Metric::Kind::ViewI64:
        return *m.srcI64;
      case Metric::Kind::ViewU8:
        return static_cast<int64_t>(*m.srcU8);
    }
    return 0;
}

std::optional<int64_t>
Registry::value(const std::string &name, const Labels &labels) const
{
    const Metric *m = find(name, labels);
    if (m == nullptr)
        return std::nullopt;
    return read(*m);
}

size_t
Registry::size() const
{
    return metrics_.size();
}

void
Registry::enableTimeline(sim::SimDuration interval)
{
    timelineInterval_ = interval;
    timelineNext_ = sim::kTimeZero + interval;
}

void
Registry::sample(sim::SimTime now)
{
    TimelineSample s;
    s.time = now;
    s.values.reserve(metrics_.size());
    for (const Metric *m : metrics_)
        s.values.push_back(read(*m));
    timeline_.push_back(std::move(s));
    // Skip windows with no traffic rather than emitting one sample per
    // elapsed interval (virtual time can jump far per completion).
    timelineNext_ = now + timelineInterval_;
}

size_t
Registry::timelineSamples() const
{
    return timeline_.size();
}

namespace {

void
writeLabels(std::ostream &os, const Labels &labels)
{
    os << '{';
    for (size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            os << ',';
        os << '"' << labels[i].first << "\":\"" << labels[i].second << '"';
    }
    os << '}';
}

} // namespace

void
Registry::writeJson(std::ostream &os, sim::SimTime now) const
{
    os << "{\"time_ns\":" << now.ns() << ",\"metrics\":[";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = *metrics_[i];
        os << (i > 0 ? ",\n" : "\n");
        os << "{\"name\":\"" << m.name << "\",\"labels\":";
        writeLabels(os, m.labels);
        os << ",\"type\":\"" << m.typeName() << "\"";
        if (m.kind == Metric::Kind::OwnedHistogram) {
            os << ",\"count\":" << m.hist.count << ",\"sum\":" << m.hist.sum
               << ",\"p50\":" << histogramQuantile(m.hist, 500)
               << ",\"p95\":" << histogramQuantile(m.hist, 950)
               << ",\"p99\":" << histogramQuantile(m.hist, 990)
               << ",\"p999\":" << histogramQuantile(m.hist, 999)
               << ",\"buckets\":[";
            for (size_t b = 0; b < m.hist.counts.size(); ++b) {
                if (b > 0)
                    os << ',';
                os << "{\"le\":";
                if (b < m.hist.bounds.size())
                    os << m.hist.bounds[b];
                else
                    os << "\"+inf\"";
                os << ",\"count\":" << m.hist.counts[b] << '}';
            }
            os << ']';
        } else {
            os << ",\"value\":" << read(m);
        }
        os << '}';
    }
    os << "\n]";
    if (timelineInterval_ > 0) {
        os << ",\"timeline_interval_ns\":" << timelineInterval_
           << ",\"timeline\":[";
        for (size_t i = 0; i < timeline_.size(); ++i) {
            os << (i > 0 ? ",\n" : "\n");
            os << "{\"time_ns\":" << timeline_[i].time.ns()
               << ",\"values\":[";
            for (size_t v = 0; v < timeline_[i].values.size(); ++v) {
                if (v > 0)
                    os << ',';
                os << timeline_[i].values[v];
            }
            os << "]}";
        }
        os << "\n]";
    }
    os << "}\n";
}

std::string
Registry::toJson(sim::SimTime now) const
{
    std::ostringstream os;
    writeJson(os, now);
    return os.str();
}

void
Registry::saveState(recovery::StateWriter &w) const
{
    const auto owned = static_cast<uint32_t>(
        std::count_if(metrics_.begin(), metrics_.end(), [](const Metric *m) {
            return m->kind == Metric::Kind::OwnedHistogram;
        }));
    w.u32(owned);
    for (const Metric *m : metrics_) {
        if (m->kind != Metric::Kind::OwnedHistogram)
            continue;
        w.str(m->name);
        w.u8(static_cast<uint8_t>(m->kind));
        w.u32(static_cast<uint32_t>(m->hist.counts.size()));
        for (uint64_t c : m->hist.counts)
            w.u64(c);
        w.u64(m->hist.count);
        w.i64(m->hist.sum);
    }
    w.u32(static_cast<uint32_t>(timeline_.size()));
    for (const TimelineSample &s : timeline_) {
        w.i64(s.time.ns());
        w.u32(static_cast<uint32_t>(s.values.size()));
        for (int64_t v : s.values)
            w.i64(v);
    }
    w.i64(timelineNext_.ns());
}

bool
Registry::loadState(recovery::StateReader &r)
{
    std::vector<Metric *> owned;
    for (Metric *m : metrics_) {
        if (m->kind == Metric::Kind::OwnedHistogram)
            owned.push_back(m);
    }
    const uint32_t n = r.u32();
    if (r.ok() && n != owned.size()) {
        r.fail("registry owned-metric count does not match this run");
        return false;
    }
    for (Metric *m : owned) {
        const std::string name = r.str();
        const uint8_t kind = r.u8();
        if (!r.ok())
            return false;
        if (name != m->name || kind != static_cast<uint8_t>(m->kind)) {
            r.fail("registry metric order/shape does not match this run");
            return false;
        }
        const uint32_t nBuckets = r.u32();
        if (r.ok() && nBuckets != m->hist.counts.size()) {
            r.fail("registry histogram bucket count mismatch");
            return false;
        }
        for (uint64_t &c : m->hist.counts)
            c = r.u64();
        m->hist.count = r.u64();
        m->hist.sum = r.i64();
    }
    const uint64_t nSamples = r.checkCount(r.u32(), 12);
    timeline_.clear();
    for (uint64_t i = 0; i < nSamples && r.ok(); ++i) {
        TimelineSample s;
        s.time = sim::SimTime{r.i64()};
        const uint64_t nValues = r.checkCount(r.u32(), 8);
        for (uint64_t v = 0; v < nValues; ++v)
            s.values.push_back(r.i64());
        timeline_.push_back(std::move(s));
    }
    timelineNext_ = sim::SimTime{r.i64()};
    return r.ok();
}

} // namespace ssdcheck::obs
