/**
 * @file
 * Section VI-A: the trace format.
 *
 * Binary frames, free interleaving across CPUs with per-CPU timestamp
 * order, placement stored once per region, and compressed traces. This
 * bench measures the raw and compact encodings (size, write and load
 * throughput) on a real simulated seidel trace and reports the
 * per-record storage economy.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "common.h"

using namespace aftermath;

namespace {

trace::Trace g_trace;

void
buildTrace()
{
    workloads::SeidelParams params;
    params.blocksX = 32;
    params.blocksY = 32;
    params.blockDim = 32;
    params.iterations = 12;
    runtime::TaskSet set = workloads::buildSeidel(params);
    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::small(4, 8);
    config.seed = 6;
    runtime::RunResult result = runtime::RuntimeSystem(config).run(set);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        std::exit(1);
    }
    g_trace = std::move(result.trace);
}

void
BM_WriteRaw(benchmark::State &state)
{
    for (auto _ : state) {
        auto bytes = trace::writeTrace(g_trace, trace::Encoding::Raw);
        benchmark::DoNotOptimize(bytes);
    }
}

void
BM_WriteCompact(benchmark::State &state)
{
    for (auto _ : state) {
        auto bytes = trace::writeTrace(g_trace, trace::Encoding::Compact);
        benchmark::DoNotOptimize(bytes);
    }
}

void
BM_ReadRaw(benchmark::State &state)
{
    auto bytes = trace::writeTrace(g_trace, trace::Encoding::Raw);
    for (auto _ : state) {
        trace::ReadResult result = trace::readTrace(bytes);
        benchmark::DoNotOptimize(result.ok);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes.size()));
}

void
BM_ReadCompact(benchmark::State &state)
{
    auto bytes = trace::writeTrace(g_trace, trace::Encoding::Compact);
    for (auto _ : state) {
        trace::ReadResult result = trace::readTrace(bytes);
        benchmark::DoNotOptimize(result.ok);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes.size()));
}

/** The two-phase decode with a worker pool (range = worker count). */
void
BM_ReadCompactParallel(benchmark::State &state)
{
    auto bytes = trace::writeTrace(g_trace, trace::Encoding::Compact);
    const auto workers = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        trace::ReadResult result = bench::readWithWorkers(bytes, workers);
        benchmark::DoNotOptimize(result.ok);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes.size()));
}

BENCHMARK(BM_WriteRaw);
BENCHMARK(BM_WriteCompact);
BENCHMARK(BM_ReadRaw);
BENCHMARK(BM_ReadCompact);
BENCHMARK(BM_ReadCompactParallel)->Arg(2)->Arg(4)->Arg(8);

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Section VI-A", "trace format: size and load speed");
    buildTrace();

    auto raw = trace::writeTrace(g_trace, trace::Encoding::Raw);
    auto compact = trace::writeTrace(g_trace, trace::Encoding::Compact);

    std::uint64_t events = 0;
    for (CpuId c = 0; c < g_trace.numCpus(); c++) {
        events += g_trace.cpu(c).states().size();
        for (CounterId id : g_trace.cpu(c).counterIds())
            events += g_trace.cpu(c).counterSamples(id).size();
        events += g_trace.cpu(c).discreteEvents().size();
        events += g_trace.cpu(c).commEvents().size();
    }
    events += g_trace.taskInstances().size();
    events += g_trace.memAccesses().size();

    auto t0 = std::chrono::steady_clock::now();
    trace::ReadResult result = trace::readTrace(compact);
    auto t1 = std::chrono::steady_clock::now();
    double load_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!result.ok) {
        std::fprintf(stderr, "read failed: %s\n", result.error.c_str());
        return 1;
    }

    // The same load through the two-phase decode at 4 workers (see
    // sec7_parallel_load for the full scaling study).
    auto t2 = std::chrono::steady_clock::now();
    trace::ReadResult parallel_result = bench::readWithWorkers(compact, 4);
    auto t3 = std::chrono::steady_clock::now();
    double parallel_load_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    if (!parallel_result.ok) {
        std::fprintf(stderr, "parallel read failed: %s\n",
                     parallel_result.error.c_str());
        return 1;
    }

    std::printf("\n");
    bench::row("records in trace",
               strFormat("%llu", static_cast<unsigned long long>(events)));
    bench::row("raw encoding size", humanBytes(raw.size()));
    bench::row("compact encoding size",
               strFormat("%s (%.1fx smaller)",
                         humanBytes(compact.size()).c_str(),
                         static_cast<double>(raw.size()) /
                             static_cast<double>(compact.size())));
    bench::row("bytes per record (compact)",
               strFormat("%.1f", static_cast<double>(compact.size()) /
                                     static_cast<double>(events)));
    bench::row("compact load time",
               strFormat("%.1f ms (%.0f MiB/s)", load_ms,
                         static_cast<double>(compact.size()) / 1048576.0 /
                             (load_ms / 1000.0)));
    bench::row("compact load time (4 workers)",
               strFormat("%.1f ms (%.0f MiB/s)", parallel_load_ms,
                         static_cast<double>(compact.size()) / 1048576.0 /
                             (parallel_load_ms / 1000.0)));
    bool ok = compact.size() * 2 < raw.size();
    bench::row("compact at least 2x smaller than raw",
               ok ? "yes" : "NO");

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return ok ? 0 : 1;
}
