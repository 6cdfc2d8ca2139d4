/**
 * @file
 * Measurement kit of the benchmark: host-time spans with a calibrated
 * clock, log-linear duration histograms, a result digest, and the two
 * thin decorators (a BlockDevice around SsdDevice, a Scheduler around
 * PasScheduler) that add layer boundaries from outside the program.
 *
 * Every number here is host time (wall nanoseconds on the machine
 * running the benchmark) unless its name says "sim": simulated time
 * belongs to the device model and never passes through this file's
 * clocks.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "core/ssdcheck.h"
#include "usecases/scheduler.h"

namespace perfbench {

using namespace ssdcheck;

/** Host clock in nanoseconds (std::chrono::steady_clock). */
inline int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds between two hostNs() readings. */
inline double
secondsBetween(int64_t t0, int64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Peak resident set of this process (VmHWM) in MiB; 0 if unknown. */
double peakRssMib();

/** FNV-1a over 64-bit words: the per-pass result digest. */
class Digest
{
  public:
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(int64_t v) { add(static_cast<uint64_t>(v)); }
    uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Log-linear histogram of non-negative durations: exact below 1024,
 * then 128 sub-buckets per power of two (under 1% relative error).
 */
class DurationHist
{
  public:
    void add(int64_t v);
    uint64_t count() const { return count_; }
    /** Nearest-rank percentile, p in [0, 100]; bucket lower bound. */
    int64_t percentile(double p) const;

  private:
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

/**
 * Median plus the highest of p90/p99/p99.9/p99.99/p99.999 that has
 * at least ten samples beyond it (the median itself when fewer than
 * twenty samples exist), with the sample count.
 */
struct Summary
{
    double median = 0;
    double tail = 0;
    double tailPct = 50;
    uint64_t count = 0;
};
Summary summarize(const DurationHist &h, double scale);

/**
 * Start-up calibration of the span clock. clockNs is the cost of one
 * steady_clock read; biasNs the median duration an empty span
 * reports; spanNs the full host cost of one empty span (both clock
 * reads plus bookkeeping), which a parent's interval absorbs per
 * child.
 */
struct Calibration
{
    double clockNs = 0;
    double biasNs = 0;
    double spanNs = 0;
};

/**
 * Host-time span recorder. Spans nest (a stack of open spans); each
 * has a name, start, end, parent and a request id shared by one
 * request's spans. Durations are calibrated: the in-span bias is
 * subtracted, and a parent's self time loses each child's calibrated
 * duration plus the child's own recording cost. Every span feeds the
 * per-name statistics; one request in kSampleEvery is also kept for
 * the span file, as are spans outside a request while their name has
 * fewer than kSampleEvery calls, then one call in kSampleEvery.
 */
class Tracer
{
  public:
    static constexpr uint64_t kNoRequest = ~0ULL;
    static constexpr uint64_t kSampleEvery = 256;

    explicit Tracer(Calibration cal) : cal_(cal) {}

    /** Measure the calibration on this host (about 0.1 s). */
    static Calibration calibrate();

    /** Stable id of a span name (string literal). */
    uint32_t id(const char *name);

    void begin(uint32_t name, uint64_t request = kNoRequest);
    void end();
    /** Name the request of the innermost open span once known. */
    void tagRequest(uint64_t request);

    struct Stats
    {
        uint64_t calls = 0;
        DurationHist hist; ///< Calibrated durations.
    };
    /** Statistics of @p name (empty when never recorded). */
    const Stats &stats(const char *name) const;

    /** Spans recorded below (and including) roots named @p root:
     *  their summed self time, i.e. the traced wall minus all span
     *  recording cost. */
    double selfNsUnder(const char *root) const;

    /** Write the kept spans as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

    const Calibration &calibration() const { return cal_; }

  private:
    struct Open
    {
        uint32_t name;
        uint64_t request;
        int64_t start;
        double childNs; ///< Children's calibrated time + recording.
        uint32_t kept;  ///< Index in kept_, or kNotKept.
    };
    struct Kept
    {
        uint32_t name;
        uint32_t parent;
        uint64_t request;
        int64_t start;
        int64_t end;
    };
    static constexpr uint32_t kNotKept = ~0U;

    Calibration cal_;
    std::vector<const char *> names_;
    std::vector<Stats> stats_;
    std::vector<Open> open_;
    std::vector<Kept> kept_;
    /** Self time accumulated per root-name id of the open tree. */
    std::vector<double> selfUnderRoot_;
};

/** RAII span; a null tracer makes it free of clock reads. */
class Span
{
  public:
    Span(Tracer *t, uint32_t name, uint64_t request = Tracer::kNoRequest)
        : t_(t)
    {
        if (t_ != nullptr)
            t_->begin(name, request);
    }
    ~Span()
    {
        if (t_ != nullptr)
            t_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

/**
 * Decorator placed directly around SsdDevice. Counts submits, folds
 * every completion (time, status, attempts) into a digest, and with a
 * tracer times each submit as span "ssd.submit". Optionally fed a
 * model so it can classify each completion (open-loop workloads,
 * where the replay engine keeps the classification to itself).
 */
class ProbeDevice final : public blockdev::BlockDevice
{
  public:
    ProbeDevice(blockdev::BlockDevice &inner, Tracer *tracer,
                Digest *digest);

    blockdev::IoResult submit(const blockdev::IoRequest &req,
                              sim::SimTime now) override;
    uint64_t capacitySectors() const override
    {
        return inner_.capacitySectors();
    }
    void purge(sim::SimTime now) override { inner_.purge(now); }
    std::string name() const override { return inner_.name(); }

    /** Route subsequent completions through @p check's classifier;
     *  @p predictedHl is read for each one (set by ProbeScheduler). */
    void classifyWith(const core::SsdCheck *check, const bool *predictedHl);

    uint64_t submits() const { return submits_; }
    /** Start (or stop, with null) timing submits. */
    void setTracer(Tracer *tracer);
    void setRequest(uint64_t id) { request_ = id; }

    // Classification tallies (only with classifyWith()).
    uint64_t hlTotal = 0, hlCorrect = 0, nlTotal = 0, nlCorrect = 0;
    uint64_t okCount = 0;

  private:
    blockdev::BlockDevice &inner_;
    Tracer *tracer_ = nullptr;
    Digest *digest_;
    uint32_t spanId_ = 0;
    uint64_t submits_ = 0;
    uint64_t request_ = Tracer::kNoRequest;
    const core::SsdCheck *check_ = nullptr;
    const bool *predictedHl_ = nullptr;
};

/**
 * Decorator around a Scheduler (PasScheduler here). Folds the
 * dispatch order into a digest, tracks queue depth and reordering,
 * re-asks the model for the dispatched request's prediction (the same
 * const query the replay engine makes right after dequeue), and with
 * a tracer times enqueue/dequeue as "usecases.enqueue"/"dequeue".
 */
class ProbeScheduler final : public usecases::Scheduler
{
  public:
    ProbeScheduler(usecases::Scheduler &inner, const core::SsdCheck &check,
                   ProbeDevice &device, Tracer *tracer, Digest *digest);

    void enqueue(const usecases::QueuedRequest &qr) override;
    bool empty() const override { return inner_.empty(); }
    size_t depth() const override { return inner_.depth(); }
    usecases::QueuedRequest dequeue(sim::SimTime now) override;
    std::string name() const override { return inner_.name(); }

    uint64_t dequeues = 0;
    uint64_t reordered = 0;  ///< Dispatched ahead of an older request.
    uint64_t depthSum = 0;   ///< Queue depth summed at each dequeue.
    uint64_t depthMax = 0;

  private:
    usecases::Scheduler &inner_;
    const core::SsdCheck &check_;
    ProbeDevice &device_;
    Tracer *tracer_;
    Digest *digest_;
    uint32_t enqueueId_ = 0, dequeueId_ = 0;
    bool predictedHl_ = false;
    std::vector<bool> dispatched_; ///< By seq.
    uint64_t oldest_ = 0;          ///< Smallest seq not yet dispatched.
};

/** Output stream buffer that only counts the bytes written to it. */
class ByteCounter final : public std::streambuf
{
  public:
    uint64_t bytes() const { return bytes_; }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    uint64_t bytes_ = 0;
};

/**
 * Output stream buffer that keeps what is written in 1 MiB chunks
 * (no reallocation copies) and counts the bytes; readable back
 * through ChunkReader.
 */
class ChunkSink final : public std::streambuf
{
  public:
    uint64_t bytes() const { return bytes_; }
    const std::vector<std::string> &chunks() const { return chunks_; }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    static constexpr size_t kChunk = 1 << 20;
    std::vector<std::string> chunks_;
    uint64_t bytes_ = 0;
};

/** Input stream buffer over a ChunkSink's chunks. */
class ChunkReader final : public std::streambuf
{
  public:
    explicit ChunkReader(const std::vector<std::string> &chunks)
        : chunks_(chunks)
    {
    }

  protected:
    int_type underflow() override;

  private:
    const std::vector<std::string> &chunks_;
    size_t next_ = 0;
};

} // namespace perfbench
