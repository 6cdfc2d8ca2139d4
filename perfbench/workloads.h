/**
 * @file
 * The benchmark's four workloads. Each runs whole passes (set-up,
 * then the timed phase) until the requested host seconds have
 * passed, then one checked pass; every pass starts from scratch and
 * must return the checked pass's results exactly.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;  ///< Per-layer run: spans, ladder, calibration.
    std::string spanOut; ///< Span file of a traced run ("" = none).
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Result
{
    std::vector<Metric> metrics;
    std::string digest;   ///< Per-request digest of the checked pass
                          ///< (traced runs: of the first traced pass).
    uint64_t checks = 0;  ///< Correctness checks attempted.
    uint64_t failed = 0;  ///< ... and failed (each also on stderr).
    uint64_t requests = 0; ///< Simulated requests per pass.
};

/** Names accepted by --workload, in run order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; false when the name is unknown. */
bool runWorkload(const Options &opts, Result *out);

} // namespace perfbench
