/**
 * @file
 * Parallel trace loading: the two-phase per-CPU decode vs serial.
 *
 * The paper's workflow starts with loading a multi-GB trace before any
 * interactive query can run; with warm-up and queries parallelized, the
 * serial readTrace() pass was the dominant cold-start cost. This bench
 * serializes the seidel trace (both encodings), measures cold-load wall
 * time at 1/2/4/8 decode workers, verifies the parallel decode is
 * bit-identical to the serial one (record equality via re-serialized
 * bytes), and — on machines with >= 4 hardware threads — requires a
 * >= 2x speedup at >= 4 workers. Results are emitted as JSON lines
 * (BENCH_sec7_parallel_load.json) with the workers field for the perf
 * trajectory, including the scan / decode / finalize split of every
 * timed worker count (scan_wN, decode_wN, finalize_wN).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"

using namespace aftermath;

namespace {

/** Wall time of a cold load and of its stages, seconds. */
struct LoadTimes
{
    double total = 0.0;
    double scan = 0.0;
    double decode = 0.0;
    double finalize = 0.0;
};

/** Average cold-load times over @p reps; aborts on a failed read. */
LoadTimes
averageLoad(const std::vector<std::uint8_t> &bytes, unsigned workers,
            int reps)
{
    LoadTimes sum;
    for (int r = 0; r < reps; r++) {
        auto start = std::chrono::steady_clock::now();
        trace::ReadResult result = bench::readWithWorkers(bytes, workers);
        std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - start;
        if (!result.ok) {
            std::fprintf(stderr, "read failed: %s\n", result.error.c_str());
            std::exit(1);
        }
        sum.total += d.count();
        sum.scan += result.scanSeconds;
        sum.decode += result.decodeSeconds;
        sum.finalize += result.finalizeSeconds;
    }
    return {sum.total / reps, sum.scan / reps, sum.decode / reps,
            sum.finalize / reps};
}

/** Emit the stage split of one worker count as JSON rows. */
void
addStages(bench::JsonLines &json, const LoadTimes &t, unsigned workers)
{
    const int w = static_cast<int>(workers);
    json.add(strFormat("scan_w%u", workers), t.scan, "s", w);
    json.add(strFormat("decode_w%u", workers), t.decode, "s", w);
    json.add(strFormat("finalize_w%u", workers), t.finalize, "s", w);
    bench::row(strFormat("  stages at %u worker%s", workers,
                         workers == 1 ? "" : "s"),
               strFormat("scan %.4f s, decode %.4f s, finalize %.4f s",
                         t.scan, t.decode, t.finalize));
}

} // namespace

int
main()
{
    bench::banner("Section VII (this repo)",
                  "parallel per-CPU trace decode vs serial loading");
    bench::JsonLines json("sec7_parallel_load");

    runtime::RunResult result = bench::runSeidel(false);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    const trace::Trace &tr = result.trace;

    std::uint64_t events = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        events += tr.cpu(c).states().size();
        for (CounterId id : tr.cpu(c).counterIds())
            events += tr.cpu(c).counterSamples(id).size();
        events += tr.cpu(c).discreteEvents().size();
        events += tr.cpu(c).commEvents().size();
    }
    auto compact = trace::writeTrace(tr, trace::Encoding::Compact);
    auto raw = trace::writeTrace(tr, trace::Encoding::Raw);
    bench::row("trace", strFormat("%u cpus, %llu per-cpu events",
                                  tr.numCpus(),
                                  static_cast<unsigned long long>(events)));
    bench::row("compact stream", humanBytes(compact.size()));
    bench::row("raw stream", humanBytes(raw.size()));

    // Calibrate repetitions so each timing covers >= ~50 ms of work.
    double probe = averageLoad(compact, 1, 1).total;
    int reps = static_cast<int>(
        std::clamp(0.05 / std::max(probe, 1e-6), 3.0, 30.0));

    LoadTimes serial = averageLoad(compact, 1, reps);
    double serial_s = serial.total;
    json.add("serial_load_compact", serial_s, "s", 1);
    bench::row("serial load (compact)",
               strFormat("%.4f s (avg of %d, %.0f MiB/s)", serial_s, reps,
                         static_cast<double>(compact.size()) / 1048576.0 /
                             serial_s));
    addStages(json, serial, 1);

    // Worker counts above the hardware concurrency only timeslice the
    // same cores: the sweep skips them (with a machine-readable
    // "skipped" marker) instead of reporting misleading ~1.0x
    // speedups. hw == 0 means the runtime could not tell — run all.
    unsigned hw = std::thread::hardware_concurrency();
    double speedup_at_4plus = 0.0;
    for (unsigned workers : {2u, 4u, 8u}) {
        if (hw > 0 && workers > hw) {
            json.add(strFormat("skipped_w%u", workers), 1, "",
                     static_cast<int>(workers));
            bench::row(strFormat("%u workers", workers),
                       strFormat("skipped (only %u hardware thread%s)",
                                 hw, hw == 1 ? "" : "s"));
            continue;
        }
        LoadTimes parallel = averageLoad(compact, workers, reps);
        double parallel_s = parallel.total;
        double speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
        json.add(strFormat("parallel_load_w%u", workers), parallel_s,
                 "s", static_cast<int>(workers));
        json.add(strFormat("speedup_w%u", workers), speedup, "x",
                 static_cast<int>(workers));
        bench::row(strFormat("%u workers", workers),
                   strFormat("%.4f s (%.2fx)", parallel_s, speedup));
        addStages(json, parallel, workers);
        if (workers >= 4)
            speedup_at_4plus = std::max(speedup_at_4plus, speedup);
    }

    double raw_serial_s = averageLoad(raw, 1, reps).total;
    json.add("serial_load_raw", raw_serial_s, "s", 1);
    unsigned raw_workers = std::max(4u, std::min(std::max(hw, 1u), 8u));
    if (hw == 0 || hw >= 4) {
        double raw_parallel_s = averageLoad(raw, raw_workers, reps).total;
        json.add("parallel_load_raw", raw_parallel_s, "s",
                 static_cast<int>(raw_workers));
        bench::row("raw encoding",
                   strFormat("%.4f s serial, %.4f s parallel",
                             raw_serial_s, raw_parallel_s));
    } else {
        json.add("skipped_raw_parallel", 1, "",
                 static_cast<int>(raw_workers));
        bench::row("raw encoding",
                   strFormat("%.4f s serial (parallel skipped: only %u "
                             "hardware thread%s)",
                             raw_serial_s, hw, hw == 1 ? "" : "s"));
    }

    // Correctness: every worker count materializes the same trace, bit
    // for bit (compared through its canonical re-serialization).
    bool identical = true;
    std::vector<std::uint8_t> serial_reencoded;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        trace::ReadResult decoded = bench::readWithWorkers(compact, workers);
        if (!decoded.ok) {
            identical = false;
            break;
        }
        auto reencoded =
            trace::writeTrace(decoded.trace, trace::Encoding::Raw);
        if (workers == 1)
            serial_reencoded = std::move(reencoded);
        else if (reencoded != serial_reencoded)
            identical = false;
    }

    json.add("identical", identical ? 1 : 0);
    json.add("hardware_threads", hw);

    std::printf("\n");
    bench::row("parallel == serial (bit-identical)",
               identical ? "yes" : "NO");
    bool enough_hw = hw >= 4;
    if (enough_hw) {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (required: >= 2x)", speedup_at_4plus));
    } else {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (not required: only %u hardware "
                             "thread%s)",
                             speedup_at_4plus, hw, hw == 1 ? "" : "s"));
    }
    bench::row("json", json.ok() ? json.path().c_str() : "WRITE FAILED");

    bool ok = identical && (!enough_hw || speedup_at_4plus >= 2.0);
    return ok ? 0 : 1;
}
