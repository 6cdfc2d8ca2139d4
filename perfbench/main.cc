/**
 * @file
 * perfbench_sim: runs one benchmark workload in this process and
 * prints its metrics as the last line of standard output, a JSON
 * object {"workload", "seed", "digest", "requests", "checks",
 * "failed", "metrics": {name: {"value", "unit"}}}. perfbench/run.py
 * builds this program, runs it and turns that line into the
 * benchmark's result.
 *
 *   perfbench_sim --workload <name> [--seed N] [--seconds S]
 *                 [--trace 0|1] [--span-out FILE]
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--span-out FILE]\n"
                 "workloads:");
    for (const auto &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            o.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            o.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && hasValue) {
            o.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--span-out" && hasValue) {
            o.spanOut = argv[++i];
        } else {
            return usage();
        }
    }
    perfbench::Result r;
    if (!perfbench::runWorkload(o, &r))
        return usage();

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", "
                "\"requests\": %llu, \"checks\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                r.digest.c_str(), static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.checks),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
