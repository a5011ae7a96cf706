/**
 * @file
 * Deserialization of trace files into the in-memory representation.
 *
 * The reader accepts any global interleaving of frames, validates per-CPU
 * timestamp ordering (the format's only ordering requirement), rejects
 * malformed or truncated input with a diagnostic instead of crashing, and
 * finalizes the resulting Trace so it is immediately analyzable.
 *
 * Two-phase decode contract: loading always runs in two passes, one
 * after the other.
 *
 *  1. Frame scan (serial). One walk over the byte stream validates the
 *     header, decodes the small global frames (topology, state/counter
 *     descriptions, task types) in stream order, and partitions every
 *     other frame into per-lane runs of consecutive-frame stretches
 *     without materializing them — one lane per CPU for the event
 *     frames (state, counter, discrete, comm; CPU ids are validated
 *     against the topology here) and one lane each for the bulk global
 *     tables (task instances, memory regions, memory accesses). The
 *     scan checks frame structure and stops at the first malformed
 *     frame.
 *  2. Lane decode (parallel). After the scan, each lane's stretches
 *     decode strictly in stream order with private delta-timestamp
 *     registers, so every container fills exactly as a serial pass
 *     would fill it. With a ReadOptions::pool and at least 4096 lane
 *     frames, the lanes decode as one parallelFor on that pool,
 *     largest lane first, with the calling thread taking lanes too;
 *     Trace::finalize() then runs its units on the same pool. The
 *     reader starts no thread of its own. Decode diagnostics are
 *     merged by lowest byte offset so the reported error does not
 *     depend on scheduling.
 *
 * Bit-identity guarantee: the materialized Trace, the diagnostics (which
 * carry the failing frame's byte offset and kind), and bytesRead are
 * identical with or without a pool and at every pool size — the pool
 * only changes wall-clock time. Cancellation (ReadOptions::cancel) is
 * cooperative and observed every 4096 frames in both phases; a
 * cancelled load returns ok == false with cancelled == true and no
 * usable trace.
 */

#ifndef AFTERMATH_TRACE_READER_H
#define AFTERMATH_TRACE_READER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "trace/format.h"
#include "trace/trace.h"

namespace aftermath {
namespace trace {

/** Knobs of the two-phase trace loader. */
struct ReadOptions
{
    /**
     * Pool of the lane decode phase and of finalize(), borrowed for the
     * load. The calling thread decodes beside the pool's workers, and
     * it may itself be a task of this pool (the session query engine
     * loads on its own pool). Null decodes on the calling thread;
     * traces of fewer than 4096 lane frames decode there anyway. The
     * result is bit-identical either way.
     */
    base::ThreadPool *pool = nullptr;

    /**
     * Cooperative cancellation: requestCancel() from any thread stops
     * the load at the next frame-run boundary. The default token never
     * cancels.
     */
    base::CancellationToken cancel;

    /**
     * Invoked on the calling thread at the same boundaries the cancel
     * token is polled at: every 4096 frames the calling thread scans
     * or decodes, counted across both phases. A background trace load
     * sets this to donate its thread to queued interactive work
     * (base::ThreadPool::runOneHighPriorityTask()) so a load delays a
     * just-submitted query by at most one such batch while its thread
     * works; the pool's helper lanes step aside for queued High work
     * between lanes (base::ThreadPool::parallelFor()). The hook may
     * run other loads but must not touch this one; null means never
     * yield.
     */
    std::function<void()> yield;
};

/** Outcome of reading a trace stream. */
struct ReadResult
{
    bool ok = false;     ///< True if the trace parsed and finalized.
    bool cancelled = false; ///< True if ReadOptions::cancel stopped the load.
    std::string error;   ///< Diagnostic when !ok (byte offset + frame kind).
    Trace trace;         ///< The materialized trace when ok.
    Encoding encoding = Encoding::Raw; ///< Encoding found in the header.
    std::size_t bytesRead = 0;         ///< Total bytes consumed.

    /** Wall time of each load stage, in seconds (0 for a stage the
     *  load did not reach). */
    double scanSeconds = 0.0;
    double decodeSeconds = 0.0;
    double finalizeSeconds = 0.0;
};

/** Parse a trace from an in-memory byte buffer. */
ReadResult readTrace(const std::vector<std::uint8_t> &bytes,
                     const ReadOptions &options = {});

/** Parse a trace from a file. */
ReadResult readTraceFile(const std::string &path,
                         const ReadOptions &options = {});

} // namespace trace
} // namespace aftermath

#endif // AFTERMATH_TRACE_READER_H
