/**
 * @file
 * Shared scenario builders for the figure-reproduction benches.
 *
 * Each bench binary regenerates one figure of the paper; the scenarios
 * (seidel on the UV2000-like preset, k-means on the Opteron-like preset)
 * are shared across figures and built here with calibrated cost models
 * (see DESIGN.md section 4). Scales default to sizes that keep every
 * bench fast; set AFTERMATH_BENCH_FULL=1 for paper-scale runs.
 */

#ifndef AFTERMATH_BENCH_COMMON_H
#define AFTERMATH_BENCH_COMMON_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "aftermath.h"

namespace aftermath {
namespace bench {

/** True if AFTERMATH_BENCH_FULL=1: run paper-scale configurations. */
bool fullScale();

/** Print the standard bench banner (figure id + description). */
void banner(const std::string &figure, const std::string &description);

/** Print one "name = value" result row. */
void row(const std::string &name, const std::string &value);

/**
 * The directory bench JSON results land in: $AFTERMATH_BENCH_OUT when
 * set, "bench-out" under the working directory otherwise. Created on
 * first use. A stable location lets tools/check_bench.py gate CI on
 * the metrics and lets the workflow upload one artifact directory.
 */
std::string benchOutDir();

/**
 * Machine-readable result sink: one JSON object per add(), written to
 * benchOutDir()/BENCH_<bench>.json so the bench-regression gate
 * (tools/check_bench.py against bench/baselines/) and the perf
 * trajectory can track bench metrics across commits without parsing
 * the human-readable rows.
 */
class JsonLines
{
  public:
    /** Open (truncate) benchOutDir()/BENCH_<bench>.json. */
    explicit JsonLines(const std::string &bench);

    /**
     * Append {"bench":..., "metric":..., "value":..., "unit":...,
     * "workers":...}. @p workers < 0 omits the field; parallel benches
     * pass the worker count so the perf trajectory can tell serial
     * from parallel runs of one metric.
     */
    void add(const std::string &metric, double value,
             const std::string &unit = "", int workers = -1);

    /** True if the file opened and every write succeeded so far. */
    bool ok() const { return static_cast<bool>(os_); }

    /** The path written to. */
    const std::string &path() const { return path_; }

  private:
    std::string bench_;
    std::string path_;
    std::ofstream os_;
};

/**
 * Load @p bytes with @p workers decode threads beside the calling
 * thread (none at workers <= 1). The pool is built and joined inside
 * the call, so timing the call covers thread start and join too.
 */
trace::ReadResult readWithWorkers(const std::vector<std::uint8_t> &bytes,
                                  unsigned workers);

// --- seidel on the UV2000-like machine (paper sections III-A/B, IV). ----

/** Runtime configuration for seidel; optimized = NUMA-aware runtime. */
runtime::RuntimeConfig seidelConfig(bool numa_optimized);

/** The seidel task set matching seidelConfig(). */
runtime::TaskSet seidelTasks(bool numa_optimized);

/** Simulate seidel; optionally without trace recording. */
runtime::RunResult runSeidel(bool numa_optimized, bool record = true);

// --- k-means on the Opteron-like machine (sections III-C, V). -----------

/** Runtime configuration for k-means. */
runtime::RuntimeConfig kmeansConfig();

/**
 * The k-means task set.
 *
 * @param points_per_block Block size (the Fig 12 knob).
 * @param branch_optimized Apply the paper's branch fix (Fig 19).
 * @param seed Workload seed (varied across Fig 12's repeated runs).
 */
runtime::TaskSet kmeansTasks(std::uint64_t points_per_block,
                             bool branch_optimized = false,
                             std::uint64_t seed = 7);

/** Simulate k-means at the default block size with trace recording. */
runtime::RunResult runKmeans(std::uint64_t points_per_block = 10'000,
                             bool branch_optimized = false,
                             bool record = true, std::uint64_t seed = 7);

/** Total number of points in the current scale's k-means problem. */
std::uint64_t kmeansPoints();

} // namespace bench
} // namespace aftermath

#endif // AFTERMATH_BENCH_COMMON_H
