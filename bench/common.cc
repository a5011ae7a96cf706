#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace aftermath {
namespace bench {

bool
fullScale()
{
    const char *env = std::getenv("AFTERMATH_BENCH_FULL");
    return env && std::strcmp(env, "1") == 0;
}

void
banner(const std::string &figure, const std::string &description)
{
    std::printf("==================================================="
                "===========\n");
    std::printf("%s: %s\n", figure.c_str(), description.c_str());
    std::printf("mode: %s\n",
                fullScale()
                    ? "full (paper scale)"
                    : "reduced (AFTERMATH_BENCH_FULL=1 for paper scale)");
    std::printf("==================================================="
                "===========\n");
}

void
row(const std::string &name, const std::string &value)
{
    std::printf("%-44s %s\n", name.c_str(), value.c_str());
}

std::string
benchOutDir()
{
    const char *env = std::getenv("AFTERMATH_BENCH_OUT");
    std::string dir = env && *env ? env : "bench-out";
    // Best effort: on failure the JsonLines open fails and ok()
    // reports it; the bench rows still print.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

JsonLines::JsonLines(const std::string &bench)
    : bench_(bench), path_(benchOutDir() + "/BENCH_" + bench + ".json"),
      os_(path_, std::ios::trunc)
{}

void
JsonLines::add(const std::string &metric, double value,
               const std::string &unit, int workers)
{
    // Metric/unit strings are bench-internal identifiers (no quoting
    // needed); %.17g round-trips every double.
    os_ << "{\"bench\":\"" << bench_ << "\",\"metric\":\"" << metric
        << "\",\"value\":" << strFormat("%.17g", value);
    if (!unit.empty())
        os_ << ",\"unit\":\"" << unit << "\"";
    if (workers >= 0)
        os_ << ",\"workers\":" << workers;
    os_ << "}\n";
    os_.flush();
}

trace::ReadResult
readWithWorkers(const std::vector<std::uint8_t> &bytes, unsigned workers)
{
    trace::ReadOptions options;
    if (workers <= 1)
        return trace::readTrace(bytes, options);
    base::ThreadPool pool(workers);
    options.pool = &pool;
    return trace::readTrace(bytes, options);
}

runtime::RuntimeConfig
seidelConfig(bool numa_optimized)
{
    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::uv2000();
    config.scheduling = numa_optimized
        ? runtime::SchedulingPolicy::NumaAware
        : runtime::SchedulingPolicy::RandomSteal;
    config.placement = numa_optimized
        ? machine::PlacementPolicy::Explicit
        : machine::PlacementPolicy::FirstTouch;
    config.seed = 12345;

    // Calibration (DESIGN.md section 4): memory-bound stencil tasks so
    // remote placement costs ~3x, expensive contended first-touch faults
    // so initialization dominates the heatmap.
    config.cost.cyclesPerWorkUnit = 1.0;
    config.cost.cyclesPerByteLocal = 0.5;
    // First-touch faults contend on allocation locks when 192 workers
    // initialize simultaneously (~37 us each at 2.4 GHz) — the driver of
    // the slow-initialization anomaly of paper section III-B.
    config.cost.pageFaultCycles = 90'000;
    config.cost.taskCreationCycles = 900;
    config.cost.durationNoise = 0.03;
    return config;
}

runtime::TaskSet
seidelTasks(bool numa_optimized)
{
    workloads::SeidelParams params;
    params.blocksX = 64;
    params.blocksY = 64;
    // Paper scale: 2^14 x 2^14 matrix in 2^8 x 2^8 blocks, wavefront
    // depth up to ~220 (47 sweeps). Reduced: smaller blocks and fewer
    // sweeps, same 64 x 64 block grid so the wavefront shape matches.
    params.blockDim = fullScale() ? 256 : 128;
    params.iterations = fullScale() ? 47 : 30;
    params.workPerElement = 1; // The stencil is memory-bound.
    params.numaOptimized = numa_optimized;
    params.numNodes = machine::MachineSpec::uv2000().topology.numNodes();
    return workloads::buildSeidel(params);
}

runtime::RunResult
runSeidel(bool numa_optimized, bool record)
{
    runtime::RuntimeConfig config = seidelConfig(numa_optimized);
    if (!record)
        config.record = runtime::RecordOptions::none();
    runtime::RuntimeSystem rts(config);
    return rts.run(seidelTasks(numa_optimized));
}

runtime::RuntimeConfig
kmeansConfig()
{
    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::opteron64();
    config.scheduling = runtime::SchedulingPolicy::RandomSteal;
    config.placement = machine::PlacementPolicy::FirstTouch;
    config.seed = 999;

    config.cost.cyclesPerWorkUnit = 1.0;
    config.cost.cyclesPerByteLocal = 0.25;
    config.cost.pageFaultCycles = 30'000;
    config.cost.taskCreationCycles = 2'500;
    config.cost.taskOverheadCycles = 8'000;
    // Effective misprediction cost on the Bulldozer-class pipeline,
    // including dependent-chain replay effects (calibrated so the Fig 19
    // mispredictions/kcycle axis spans ~0-10 as in the paper).
    config.cost.mispredictPenaltyCycles = 60;
    config.cost.durationNoise = 0.05;
    return config;
}

std::uint64_t
kmeansPoints()
{
    // Paper: 4096 * 10^4 points. Reduced: half, keeping >= 16 blocks at
    // the largest block size of the Fig 12 sweep.
    return fullScale() ? 40'960'000ull : 20'480'000ull;
}

runtime::TaskSet
kmeansTasks(std::uint64_t points_per_block, bool branch_optimized,
            std::uint64_t seed)
{
    workloads::KmeansParams params;
    params.numPoints = kmeansPoints();
    params.dims = 10;
    params.clusters = 11;
    params.pointsPerBlock = points_per_block;
    params.iterations = fullScale() ? 10 : 8;
    params.workPerTerm = 6.0;
    params.branchOptimized = branch_optimized;
    params.seed = seed;
    params.numNodes =
        machine::MachineSpec::opteron64().topology.numNodes();
    return workloads::buildKmeans(params);
}

runtime::RunResult
runKmeans(std::uint64_t points_per_block, bool branch_optimized,
          bool record, std::uint64_t seed)
{
    runtime::RuntimeConfig config = kmeansConfig();
    config.seed = seed * 7919 + 13;
    if (!record)
        config.record = runtime::RecordOptions::none();
    runtime::RuntimeSystem rts(config);
    return rts.run(kmeansTasks(points_per_block, branch_optimized, seed));
}

} // namespace bench
} // namespace aftermath
