#include "probe.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
}

namespace {

constexpr int kSubBits = 7;
constexpr int64_t kLinear = 1024; // exact below this
constexpr int kLinearLog = 10;

size_t
bucketOf(int64_t v)
{
    if (v < kLinear)
        return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(static_cast<uint64_t>(v));
    const int64_t sub = (v >> (e - kSubBits)) & ((1 << kSubBits) - 1);
    return static_cast<size_t>(kLinear + (e - kLinearLog) * (1 << kSubBits) +
                               sub);
}

int64_t
lowerBound(size_t b)
{
    if (b < static_cast<size_t>(kLinear))
        return static_cast<int64_t>(b);
    const size_t rel = b - static_cast<size_t>(kLinear);
    const int e = static_cast<int>(rel >> kSubBits) + kLinearLog;
    const int64_t sub = static_cast<int64_t>(rel & ((1 << kSubBits) - 1));
    return (int64_t{1} << e) + (sub << (e - kSubBits));
}

} // namespace

void
DurationHist::add(int64_t v)
{
    const size_t b = bucketOf(std::max<int64_t>(v, 0));
    if (b >= buckets_.size())
        buckets_.resize(b + 1, 0);
    ++buckets_[b];
    ++count_;
}

int64_t
DurationHist::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    uint64_t rank = static_cast<uint64_t>(
        static_cast<double>(count_) * p / 100.0 + 0.999999);
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen >= rank)
            return lowerBound(b);
    }
    return lowerBound(buckets_.size() - 1);
}

Summary
summarize(const DurationHist &h, double scale)
{
    Summary s;
    s.count = h.count();
    s.median = static_cast<double>(h.percentile(50)) * scale;
    s.tail = s.median;
    for (const double p : {90.0, 99.0, 99.9, 99.99, 99.999}) {
        if (static_cast<double>(s.count) * (100.0 - p) / 100.0 < 10.0)
            break;
        s.tailPct = p;
        s.tail = static_cast<double>(h.percentile(p)) * scale;
    }
    return s;
}

Calibration
Tracer::calibrate()
{
    Calibration cal;
    // Clock read cost: median of 21 batches of back-to-back reads.
    constexpr int kReads = 20000;
    std::vector<double> perRead;
    for (int rep = 0; rep < 21; ++rep) {
        const int64_t t0 = hostNs();
        for (int i = 0; i < kReads; ++i)
            (void)hostNs();
        const int64_t t1 = hostNs();
        perRead.push_back(static_cast<double>(t1 - t0) / kReads);
    }
    std::nth_element(perRead.begin(), perRead.begin() + 10, perRead.end());
    cal.clockNs = perRead[10];

    // Empty spans through a real tracer: the duration they report
    // (bias) and what each one costs its caller (span cost).
    Tracer t(Calibration{});
    const uint32_t id = t.id("calibration");
    constexpr int kSpans = 20000;
    std::vector<double> perSpan;
    for (int rep = 0; rep < 21; ++rep) {
        const int64_t t0 = hostNs();
        for (int i = 0; i < kSpans; ++i) {
            t.begin(id, static_cast<uint64_t>(i));
            t.end();
        }
        const int64_t t1 = hostNs();
        perSpan.push_back(static_cast<double>(t1 - t0) / kSpans);
    }
    std::nth_element(perSpan.begin(), perSpan.begin() + 10, perSpan.end());
    cal.spanNs = perSpan[10];
    cal.biasNs = static_cast<double>(t.stats("calibration").hist.percentile(50));
    return cal;
}

uint32_t
Tracer::id(const char *name)
{
    for (size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name || std::strcmp(names_[i], name) == 0)
            return static_cast<uint32_t>(i);
    names_.push_back(name);
    stats_.emplace_back();
    selfUnderRoot_.push_back(0);
    return static_cast<uint32_t>(names_.size() - 1);
}

void
Tracer::begin(uint32_t name, uint64_t request)
{
    // Inherit the request id of an enclosing request span.
    if (request == kNoRequest && !open_.empty())
        request = open_.back().request;
    uint32_t kept = kNotKept;
    const uint64_t calls = stats_[name].calls;
    if (request == kNoRequest ? calls < kSampleEvery || calls % kSampleEvery == 0
                              : request % kSampleEvery == 0) {
        const uint32_t parent = open_.empty() ? kNotKept : open_.back().kept;
        kept = static_cast<uint32_t>(kept_.size());
        kept_.push_back(Kept{name, parent, request, 0, 0});
    }
    open_.push_back(Open{name, request, 0, 0.0, kept});
    open_.back().start = hostNs();
}

void
Tracer::end()
{
    const int64_t t1 = hostNs();
    const Open o = open_.back();
    open_.pop_back();
    const int64_t raw = t1 - o.start;
    const double cal = static_cast<double>(raw) - cal_.biasNs;
    const double self = cal - o.childNs;
    Stats &s = stats_[o.name];
    ++s.calls;
    s.hist.add(static_cast<int64_t>(cal + 0.5));
    const uint32_t root = open_.empty() ? o.name : open_.front().name;
    selfUnderRoot_[root] += self;
    if (!open_.empty())
        open_.back().childNs += cal + cal_.spanNs;
    if (o.kept != kNotKept) {
        kept_[o.kept].start = o.start;
        kept_[o.kept].end = t1;
    }
}

void
Tracer::tagRequest(uint64_t request)
{
    Open &o = open_.back();
    o.request = request;
    if (o.kept != kNotKept)
        kept_[o.kept].request = request;
}

const Tracer::Stats &
Tracer::stats(const char *name) const
{
    static const Stats kEmpty;
    for (size_t i = 0; i < names_.size(); ++i)
        if (std::strcmp(names_[i], name) == 0)
            return stats_[i];
    return kEmpty;
}

double
Tracer::selfNsUnder(const char *root) const
{
    for (size_t i = 0; i < names_.size(); ++i)
        if (std::strcmp(names_[i], root) == 0)
            return selfUnderRoot_[i];
    return 0;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const int64_t origin = kept_.empty() ? 0 : kept_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < kept_.size(); ++i) {
        const Kept &k = kept_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                     "\"parent\":%" PRId64 ",\"request\":%" PRId64 "}}\n",
                     i == 0 ? "" : ",", names_[k.name],
                     static_cast<double>(k.start - origin) / 1000.0,
                     static_cast<double>(k.end - k.start) / 1000.0, i,
                     k.parent == kNotKept ? int64_t{-1}
                                          : static_cast<int64_t>(k.parent),
                     k.request == kNoRequest
                         ? int64_t{-1}
                         : static_cast<int64_t>(k.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

ProbeDevice::ProbeDevice(blockdev::BlockDevice &inner, Tracer *tracer,
                         Digest *digest)
    : inner_(inner), digest_(digest)
{
    setTracer(tracer);
}

void
ProbeDevice::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    if (tracer_ != nullptr)
        spanId_ = tracer_->id("ssd.submit");
}

void
ProbeDevice::classifyWith(const core::SsdCheck *check,
                          const bool *predictedHl)
{
    check_ = check;
    predictedHl_ = predictedHl;
}

blockdev::IoResult
ProbeDevice::submit(const blockdev::IoRequest &req, sim::SimTime now)
{
    blockdev::IoResult res;
    {
        const Span s(tracer_, spanId_,
                     request_ == Tracer::kNoRequest ? submits_ : request_);
        res = inner_.submit(req, now);
    }
    ++submits_;
    if (digest_ != nullptr) {
        digest_->add(res.completeTime.ns());
        digest_->add(static_cast<uint64_t>(res.status) << 32 | res.attempts);
    }
    if (check_ != nullptr) {
        if (res.ok())
            ++okCount;
        const bool actualHl = check_->classifyActual(req, res.latency());
        const bool predicted = *predictedHl_;
        if (digest_ != nullptr)
            digest_->add(static_cast<uint64_t>(actualHl) << 1 | predicted);
        if (res.ok() && res.attempts == 1) {
            if (actualHl) {
                ++hlTotal;
                hlCorrect += predicted ? 1 : 0;
            } else {
                ++nlTotal;
                nlCorrect += predicted ? 0 : 1;
            }
        }
    }
    return res;
}

ProbeScheduler::ProbeScheduler(usecases::Scheduler &inner,
                               const core::SsdCheck &check,
                               ProbeDevice &device, Tracer *tracer,
                               Digest *digest)
    : inner_(inner), check_(check), device_(device), tracer_(tracer),
      digest_(digest)
{
    if (tracer_ != nullptr) {
        enqueueId_ = tracer_->id("usecases.enqueue");
        dequeueId_ = tracer_->id("usecases.dequeue");
    }
    device_.classifyWith(&check_, &predictedHl_);
}

void
ProbeScheduler::enqueue(const usecases::QueuedRequest &qr)
{
    {
        const Span s(tracer_, enqueueId_, qr.seq);
        inner_.enqueue(qr);
    }
    if (qr.seq >= dispatched_.size())
        dispatched_.resize(qr.seq + 1, false);
}

usecases::QueuedRequest
ProbeScheduler::dequeue(sim::SimTime now)
{
    const uint64_t depthBefore = inner_.depth();
    usecases::QueuedRequest qr;
    {
        const Span s(tracer_, dequeueId_);
        qr = inner_.dequeue(now);
        if (tracer_ != nullptr)
            tracer_->tagRequest(qr.seq);
    }
    ++dequeues;
    depthSum += depthBefore;
    depthMax = std::max(depthMax, depthBefore);
    if (qr.seq != oldest_)
        ++reordered;
    dispatched_[qr.seq] = true;
    while (oldest_ < dispatched_.size() && dispatched_[oldest_])
        ++oldest_;
    predictedHl_ = check_.predict(qr.req, now).hl;
    device_.setRequest(qr.seq);
    if (digest_ != nullptr) {
        digest_->add(qr.seq);
        digest_->add(now.ns());
    }
    return qr;
}

ByteCounter::int_type
ByteCounter::overflow(int_type ch)
{
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
        ++bytes_;
    return traits_type::not_eof(ch);
}

std::streamsize
ByteCounter::xsputn(const char *, std::streamsize n)
{
    bytes_ += static_cast<uint64_t>(n);
    return n;
}

ChunkSink::int_type
ChunkSink::overflow(int_type ch)
{
    if (traits_type::eq_int_type(ch, traits_type::eof()))
        return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
}

std::streamsize
ChunkSink::xsputn(const char *s, std::streamsize n)
{
    std::streamsize left = n;
    while (left > 0) {
        if (chunks_.empty() || chunks_.back().size() == kChunk) {
            chunks_.emplace_back();
            chunks_.back().reserve(kChunk);
        }
        std::string &c = chunks_.back();
        const size_t take =
            std::min<size_t>(static_cast<size_t>(left), kChunk - c.size());
        c.append(s, take);
        s += take;
        left -= static_cast<std::streamsize>(take);
    }
    bytes_ += static_cast<uint64_t>(n);
    return n;
}

ChunkReader::int_type
ChunkReader::underflow()
{
    if (gptr() < egptr())
        return traits_type::to_int_type(*gptr());
    while (next_ < chunks_.size() && chunks_[next_].empty())
        ++next_;
    if (next_ >= chunks_.size())
        return traits_type::eof();
    char *base = const_cast<char *>(chunks_[next_].data());
    setg(base, base, base + chunks_[next_].size());
    ++next_;
    return traits_type::to_int_type(*gptr());
}

} // namespace perfbench
