/**
 * @file
 * Property and robustness tests of the two-phase parallel trace reader:
 * writer->reader round-trip bit-identity across encodings and CPU
 * counts, serial == parallel decode equality at every worker count, a
 * full corruption sweep (every truncation, every single-byte flip),
 * offset-bearing diagnostics, cooperative cancellation, and the
 * asynchronous TraceLoadQuery plane. The parallel-decode tests run
 * under TSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "base/buffer.h"
#include "base/thread_pool.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "render/framebuffer.h"
#include "session/session.h"
#include "stats/export.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "trace_builder.h"

namespace aftermath {
namespace trace {
namespace {

using test_support::buildRandomTrace;
using test_support::expectTracesEqual;
using test_support::RandomTraceOptions;

/**
 * Decode pools every equality test sweeps: none (the calling thread
 * alone, the serial reference), then 1, 2, 4 and 8 workers beside it.
 */
const unsigned kWorkerCounts[] = {0, 1, 2, 4, 8};

/**
 * The pools of one sweep, built on first use and joined when the sweep
 * ends: on(workers) lends the reader a pool of that many threads, or
 * none at 0.
 */
class DecodePools
{
  public:
    ReadOptions
    on(unsigned workers)
    {
        ReadOptions options;
        if (workers > 0) {
            if (!pools_[workers])
                pools_[workers] = std::make_unique<base::ThreadPool>(workers);
            options.pool = pools_[workers].get();
        }
        return options;
    }

  private:
    std::unique_ptr<base::ThreadPool> pools_[9];
};

/**
 * Round-trip @p tr through @p encoding at every worker count and
 * assert all decodes are bit-identical to the original (record-level
 * equality plus re-serialized byte equality, the strongest oracle).
 */
void
expectRoundTripIdentical(const Trace &tr, Encoding encoding)
{
    std::vector<std::uint8_t> bytes = writeTrace(tr, encoding);
    std::vector<std::uint8_t> serial_reencoded;
    DecodePools pools;
    for (unsigned workers : kWorkerCounts) {
        ReadResult result = readTrace(bytes, pools.on(workers));
        ASSERT_TRUE(result.ok)
            << "workers " << workers << ": " << result.error;
        EXPECT_EQ(result.encoding, encoding);
        EXPECT_EQ(result.bytesRead, bytes.size());
        expectTracesEqual(tr, result.trace);
        // Re-serialize: equal bytes means equal traces, bit for bit.
        std::vector<std::uint8_t> reencoded =
            writeTrace(result.trace, Encoding::Raw);
        if (workers == 0)
            serial_reencoded = std::move(reencoded);
        else
            EXPECT_EQ(reencoded, serial_reencoded)
                << "workers " << workers
                << " decode differs from serial";
    }
}

/** Seeds x encodings x CPU counts, including the degenerate ones. */
class ReaderRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, Encoding>>
{};

TEST_P(ReaderRoundTrip, BitIdenticalAtEveryWorkerCount)
{
    auto [seed, encoding] = GetParam();
    for (std::uint32_t cpus : {1u, 3u, 16u}) {
        RandomTraceOptions options;
        options.cpus = cpus;
        options.statesPerCpu = 40;
        expectRoundTripIdentical(buildRandomTrace(seed, options),
                                 encoding);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReaderRoundTrip,
    ::testing::Combine(::testing::Values(1, 5, 77),
                       ::testing::Values(Encoding::Raw,
                                         Encoding::Compact)));

TEST(ReaderRoundTrip, LargeTraceExercisesThePool)
{
    // Big enough (> 4096 per-CPU frames) that a lent pool really
    // decodes instead of the small-trace fallback.
    RandomTraceOptions options;
    options.cpus = 16;
    options.counters = 2;
    options.statesPerCpu = 200;
    Trace tr = buildRandomTrace(99, options);
    expectRoundTripIdentical(tr, Encoding::Raw);
    expectRoundTripIdentical(tr, Encoding::Compact);
}

TEST(ReaderRoundTrip, EmptyTrace)
{
    // Topology only: no events, no descriptions, no tasks.
    TraceWriter writer(Encoding::Compact);
    writer.topology(MachineTopology::uniform(1, 1));
    std::vector<std::uint8_t> bytes = writer.finish();
    DecodePools pools;
    for (unsigned workers : kWorkerCounts) {
        ReadResult result = readTrace(bytes, pools.on(workers));
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.trace.numCpus(), 1u);
        EXPECT_EQ(result.trace.cpu(0).states().size(), 0u);
        EXPECT_EQ(result.trace.taskInstances().size(), 0u);
    }
}

TEST(ReaderRoundTrip, SingleCpuTrace)
{
    RandomTraceOptions options;
    options.cpus = 1;
    options.nodes = 1;
    options.statesPerCpu = 60;
    expectRoundTripIdentical(buildRandomTrace(3, options),
                             Encoding::Compact);
}

TEST(ReaderRoundTrip, GlobalFramesOnlyTrace)
{
    // Descriptions, task types/instances and memory frames but not a
    // single per-CPU event frame: the decode phase has nothing to do.
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        TraceWriter writer(encoding, 3'000'000'000);
        writer.topology(MachineTopology::uniform(2, 2));
        writer.stateDescription({0, "exec"});
        writer.counterDescription({7, "cycles"});
        writer.taskType({0xbeef, "work"});
        writer.taskInstance({1, 0xbeef, 0, {10, 90}});
        writer.taskInstance({2, 0xbeef, 3, {20, 50}});
        writer.memRegion({1, 0x1000, 0x100, 0});
        writer.memAccess({1, 0x1010, 8, true});
        std::vector<std::uint8_t> bytes = writer.finish();
        DecodePools pools;
        for (unsigned workers : kWorkerCounts) {
            ReadResult result = readTrace(bytes, pools.on(workers));
            ASSERT_TRUE(result.ok) << result.error;
            EXPECT_EQ(result.trace.taskInstances().size(), 2u);
            EXPECT_EQ(result.trace.memRegions().size(), 1u);
            EXPECT_EQ(result.trace.memAccesses().size(), 1u);
            EXPECT_EQ(result.trace.counterName(7), "cycles");
        }
    }
}

TEST(ReaderRoundTrip, MemoryFramesMayPrecedeTheTopology)
{
    // Memory frames are legal before the topology frame and land in
    // stream order; a task instance there is rejected.
    auto stream = [](bool task_first) {
        ByteWriter writer;
        auto frame = [&](FrameType type,
                         std::initializer_list<std::uint64_t> varints) {
            writer.writeU8(static_cast<std::uint8_t>(type));
            for (std::uint64_t v : varints)
                writer.writeVarint(v);
        };
        writer.writeU32(kTraceMagic);
        writer.writeU16(kTraceVersion);
        writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
        writer.writeU64(2'000'000'000);
        if (task_first)
            frame(FrameType::TaskInstance, {1, 0, 0, 10, 5});
        frame(FrameType::MemRegion, {2, 0x2000, 64, 0});
        frame(FrameType::MemAccess, {7, 0x2000, 8});
        writer.writeU8(1); // is-write
        frame(FrameType::Topology, {1, 1, 0, 10});
        frame(FrameType::MemRegion, {1, 0x1000, 64, 0});
        frame(FrameType::EndOfTrace, {});
        return writer.take();
    };

    std::vector<std::uint8_t> bytes = stream(false);
    DecodePools pools;
    for (unsigned workers : kWorkerCounts) {
        ReadResult result = readTrace(bytes, pools.on(workers));
        ASSERT_TRUE(result.ok) << result.error;
        ASSERT_EQ(result.trace.memRegions().size(), 2u);
        ASSERT_EQ(result.trace.memAccesses().size(), 1u);
        EXPECT_EQ(result.trace.memAccesses()[0].task, 7u);
        EXPECT_TRUE(result.trace.memAccesses()[0].isWrite);
    }

    ReadResult premature = readTrace(stream(true));
    ASSERT_FALSE(premature.ok);
    EXPECT_NE(premature.error.find("TaskInstance frame at offset 16 "
                                   "precedes the topology frame"),
              std::string::npos)
        << premature.error;
}

TEST(ReaderRoundTrip, TrailingBytesAfterEndOfTraceIgnored)
{
    Trace tr = buildRandomTrace(11, {.cpus = 2, .statesPerCpu = 10});
    std::vector<std::uint8_t> bytes = writeTrace(tr, Encoding::Compact);
    std::size_t real_size = bytes.size();
    bytes.insert(bytes.end(), 64, 0xab);
    ReadResult result = readTrace(bytes);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.bytesRead, real_size);
    expectTracesEqual(tr, result.trace);
}

// ---- Corruption sweeps -------------------------------------------------

/** A small valid trace for the exhaustive corruption sweeps. */
std::vector<std::uint8_t>
smallTraceBytes(Encoding encoding)
{
    RandomTraceOptions options;
    options.cpus = 2;
    options.counters = 1;
    options.statesPerCpu = 4;
    return writeTrace(buildRandomTrace(17, options), encoding);
}

/** Errors must locate the problem: byte offset, or a semantic class. */
void
expectActionableError(const ReadResult &result, const char *what,
                      std::size_t position)
{
    EXPECT_FALSE(result.error.empty())
        << what << " at " << position << ": empty diagnostic";
    bool located =
        result.error.find("offset") != std::string::npos ||
        result.error.find("topology") != std::string::npos ||
        result.error.find("validation") != std::string::npos;
    EXPECT_TRUE(located) << what << " at " << position
                         << ": diagnostic carries no location: "
                         << result.error;
}

TEST(ReaderCorruption, EveryTruncationFailsCleanly)
{
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        std::vector<std::uint8_t> bytes = smallTraceBytes(encoding);
        for (std::size_t len = 0; len < bytes.size(); len++) {
            std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + len);
            ReadResult result = readTrace(prefix);
            ASSERT_FALSE(result.ok) << "truncation at " << len;
            expectActionableError(result, "truncation", len);
        }
    }
}

TEST(ReaderCorruption, EveryByteFlipFailsCleanlyOrStaysValid)
{
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        std::vector<std::uint8_t> bytes = smallTraceBytes(encoding);
        for (std::size_t pos = 0; pos < bytes.size(); pos++) {
            for (std::uint8_t flip : {std::uint8_t{0x01},
                                      std::uint8_t{0x80},
                                      std::uint8_t{0xff}}) {
                std::vector<std::uint8_t> corrupt = bytes;
                corrupt[pos] ^= flip;
                // Must never crash; a flip in a value payload may still
                // decode to a valid trace, which is fine.
                ReadResult result = readTrace(corrupt);
                if (!result.ok)
                    expectActionableError(result, "byte flip", pos);
            }
        }
    }
}

TEST(ReaderCorruption, DiagnosticsCarryOffsetAndFrameKind)
{
    // A compact StateEvent whose state field overflows 32 bits: the
    // scan accepts the structure, the decode phase reports it with the
    // frame's offset and kind — identically at every worker count.
    ByteWriter writer;
    writer.writeU32(kTraceMagic);
    writer.writeU16(kTraceVersion);
    writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
    writer.writeU64(2'000'000'000);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::Topology));
    writer.writeVarint(1); // cpus
    writer.writeVarint(1); // nodes
    writer.writeVarint(0); // cpu 0 -> node 0
    writer.writeVarint(10); // distance
    std::size_t bad_offset = writer.size();
    writer.writeU8(static_cast<std::uint8_t>(FrameType::StateEvent));
    writer.writeVarint(0);                  // cpu
    writer.writeVarint(0x1'0000'0000ull);   // state: overflows u32
    writer.writeSignedVarint(5);            // time delta
    writer.writeVarint(10);                 // duration
    writer.writeVarint(0);                  // task
    writer.writeU8(static_cast<std::uint8_t>(FrameType::EndOfTrace));
    std::vector<std::uint8_t> bytes = writer.take();

    std::string first_error;
    DecodePools pools;
    for (unsigned workers : kWorkerCounts) {
        ReadResult result = readTrace(bytes, pools.on(workers));
        ASSERT_FALSE(result.ok) << "workers " << workers;
        EXPECT_NE(result.error.find("StateEvent"), std::string::npos)
            << result.error;
        EXPECT_NE(result.error.find(
                      "offset " + std::to_string(bad_offset)),
                  std::string::npos)
            << result.error;
        if (workers == 0)
            first_error = result.error;
        else
            EXPECT_EQ(result.error, first_error);
    }
}

/** A compact stream's header and a topology of @p cpus CPUs on one node. */
ByteWriter
compactHeader(std::uint32_t cpus)
{
    ByteWriter writer;
    writer.writeU32(kTraceMagic);
    writer.writeU16(kTraceVersion);
    writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
    writer.writeU64(2'000'000'000);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::Topology));
    writer.writeVarint(cpus);
    writer.writeVarint(1);
    for (std::uint32_t c = 0; c < cpus; c++)
        writer.writeVarint(0);
    writer.writeVarint(10);
    return writer;
}

/**
 * Append @p frames valid compact StateEvents spread over @p cpus CPUs
 * in runs of 64, so every CPU lane gets several stretches.
 */
void
writeValidStates(ByteWriter &writer, std::uint32_t cpus,
                 std::size_t frames)
{
    for (std::size_t i = 0; i < frames; i++) {
        writer.writeU8(static_cast<std::uint8_t>(FrameType::StateEvent));
        writer.writeVarint((i / 64) % cpus); // cpu
        writer.writeVarint(0);               // state
        writer.writeSignedVarint(1);         // time delta
        writer.writeVarint(1);               // duration
        writer.writeVarint(0);               // task
    }
}

TEST(ReaderCorruption, ParallelDecodeReportsLowestOffsetError)
{
    // Two corrupt frames on different CPUs behind enough valid frames
    // that a lent pool decodes: the reported diagnostic is
    // the lower-offset one no matter how the lanes are scheduled.
    ByteWriter writer = compactHeader(2);
    writeValidStates(writer, 2, 6000);
    auto bad_state_event = [&](std::uint32_t cpu) {
        writer.writeU8(static_cast<std::uint8_t>(FrameType::StateEvent));
        writer.writeVarint(cpu);
        writer.writeVarint(0x1'0000'0000ull); // state overflows u32
        writer.writeSignedVarint(5);
        writer.writeVarint(10);
        writer.writeVarint(0);
    };
    std::size_t first_bad = writer.size();
    bad_state_event(1); // Earlier in the stream, on cpu 1.
    bad_state_event(0); // Later, on cpu 0.
    writer.writeU8(static_cast<std::uint8_t>(FrameType::EndOfTrace));
    std::vector<std::uint8_t> bytes = writer.take();

    DecodePools pools;
    for (unsigned workers : kWorkerCounts) {
        ReadResult result = readTrace(bytes, pools.on(workers));
        ASSERT_FALSE(result.ok);
        EXPECT_NE(result.error.find(
                      "offset " + std::to_string(first_bad)),
                  std::string::npos)
            << "workers " << workers << ": " << result.error;
    }
}

TEST(ReaderCorruption, SampledByteFlipsDiagnoseAlikeAtOneAndFourWorkers)
{
    // Above the 4096-frame threshold, so 4 workers really decode on the
    // pool: every flip must give the serial outcome, string for string.
    RandomTraceOptions trace_options;
    trace_options.cpus = 4;
    trace_options.statesPerCpu = 600;
    std::vector<std::uint8_t> bytes =
        writeTrace(buildRandomTrace(23, trace_options), Encoding::Compact);
    std::mt19937 rng(4242);
    std::uniform_int_distribution<std::size_t> position(0,
                                                        bytes.size() - 1);
    DecodePools pools;
    for (int sample = 0; sample < 120; sample++) {
        const std::size_t pos = position(rng);
        for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
            std::vector<std::uint8_t> corrupt = bytes;
            corrupt[pos] ^= flip;
            ReadResult serial = readTrace(corrupt);
            ReadResult parallel = readTrace(corrupt, pools.on(4));
            ASSERT_EQ(parallel.ok, serial.ok) << "flip at " << pos;
            EXPECT_EQ(parallel.error, serial.error) << "flip at " << pos;
            if (serial.ok) {
                EXPECT_EQ(parallel.bytesRead, serial.bytesRead);
                EXPECT_EQ(writeTrace(parallel.trace, Encoding::Raw),
                          writeTrace(serial.trace, Encoding::Raw))
                    << "flip at " << pos;
            }
        }
    }
}

TEST(ReaderCorruption, OverlongVarintsReachingBufferEndFailCleanly)
{
    // A compact MemAccess whose three "varints" are over-long
    // continuation runs placed so that skipping them lands exactly on
    // the buffer end, leaving no room for the trailing is-write byte.
    // The scan's word-at-a-time skip does not bound varint length, so
    // this must fail as a truncated frame — never read past the end.
    ByteWriter writer;
    writer.writeU32(kTraceMagic);
    writer.writeU16(kTraceVersion);
    writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
    writer.writeU64(2'000'000'000);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::Topology));
    writer.writeVarint(1);  // cpus
    writer.writeVarint(1);  // nodes
    writer.writeVarint(0);  // cpu 0 -> node 0
    writer.writeVarint(10); // distance
    std::size_t frame_offset = writer.size();
    writer.writeU8(static_cast<std::uint8_t>(FrameType::MemAccess));
    for (int i = 0; i < 57; i++)
        writer.writeU8(0x80); // "task": 58-byte continuation run...
    writer.writeU8(0x01);     // ...terminated.
    writer.writeU8(0x01);     // "address": 1 byte.
    for (int i = 0; i < 9; i++)
        writer.writeU8(0x80); // "size": 10 bytes, terminator at the
    writer.writeU8(0x01);     // very last byte of the buffer.
    std::vector<std::uint8_t> bytes = writer.take();

    DecodePools pools;
    for (unsigned workers : kWorkerCounts) {
        ReadResult result = readTrace(bytes, pools.on(workers));
        ASSERT_FALSE(result.ok) << "workers " << workers;
        EXPECT_NE(result.error.find("MemAccess"), std::string::npos)
            << result.error;
        EXPECT_NE(result.error.find(
                      "offset " + std::to_string(frame_offset)),
                  std::string::npos)
            << result.error;
    }
}

// ---- Cancellation ------------------------------------------------------

TEST(ReaderCancellation, PreCancelledTokenStopsTheLoad)
{
    std::vector<std::uint8_t> bytes = smallTraceBytes(Encoding::Compact);
    base::ThreadPool pool(2);
    ReadOptions options;
    options.pool = &pool;
    options.cancel.requestCancel();
    ReadResult result = readTrace(bytes, options);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.cancelled);
    EXPECT_NE(result.error.find("cancelled"), std::string::npos);
}

TEST(ReaderCancellation, CancelFromYieldDuringParallelDecode)
{
    // 1 topology + 8189 state events + 1 end = 8191 frames: the scan
    // polls once (at frame 4096) and the calling thread's next poll
    // comes with the first frame it decodes. Cancelling from that
    // decode-time yield must stop the 4-worker load.
    const std::uint32_t cpus = 8;
    ByteWriter writer = compactHeader(cpus);
    writeValidStates(writer, cpus, 8189);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::EndOfTrace));
    std::vector<std::uint8_t> bytes = writer.take();

    ASSERT_TRUE(readTrace(bytes, DecodePools().on(4)).ok);

    const std::size_t scan_polls = 8191 / 4096;
    std::size_t polls = 0;
    base::ThreadPool pool(4);
    ReadOptions options;
    options.pool = &pool;
    options.yield = [&] {
        if (++polls > scan_polls)
            options.cancel.requestCancel();
    };
    ReadResult result = readTrace(bytes, options);
    EXPECT_GT(polls, scan_polls) << "no yield during lane decode";
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.cancelled);
    EXPECT_NE(result.error.find("cancelled"), std::string::npos);
}

TEST(ReaderCancellation, ValidLoadIsNotCancelled)
{
    std::vector<std::uint8_t> bytes = smallTraceBytes(Encoding::Raw);
    ReadOptions options;
    ReadResult result = readTrace(bytes, options);
    EXPECT_TRUE(result.ok);
    EXPECT_FALSE(result.cancelled);
}

// ---- The asynchronous TraceLoadQuery plane -----------------------------

TEST(TraceLoadQuery, LoadsAndSwapsATrace)
{
    RandomTraceOptions options;
    options.cpus = 6;
    options.statesPerCpu = 30;
    Trace next = buildRandomTrace(23, options);
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        writeTrace(next, Encoding::Compact));

    Session session(buildRandomTrace(1, {.cpus = 2}));
    session.setConcurrency({2});
    session::TraceLoadQuery query;
    query.bytes = bytes;
    auto ticket = session.submit(query);
    session::TraceLoadResult result = ticket.take();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_NE(result.trace, nullptr);
    EXPECT_EQ(result.encoding, Encoding::Compact);
    EXPECT_EQ(result.bytesRead, bytes->size());
    expectTracesEqual(next, *result.trace);

    // The driving thread swaps the loaded trace in.
    session.setTrace(result.trace);
    EXPECT_EQ(session.trace().numCpus(), 6u);
    EXPECT_GT(session.intervalStats().tasksStarted, 0u);
}

TEST(TraceLoadQuery, ReportsReadErrors)
{
    auto garbage = std::make_shared<const std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>{'n', 'o', 'p', 'e', 0, 1, 2, 3});
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session::TraceLoadQuery query;
    query.bytes = garbage;
    session::TraceLoadResult result = session.submit(query).take();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.trace, nullptr);
    EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(TraceLoadQuery, ReportsMissingFile)
{
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session::TraceLoadQuery query;
    query.path = "/nonexistent/aftermath_load.ostv";
    session::TraceLoadResult result = session.submit(query).take();
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(TraceLoadQuery, QueuedLoadCancelsBeforeRunning)
{
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session.setConcurrency({1});
    // Occupy the single engine worker so the load stays queued.
    std::atomic<bool> release{false};
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([&] {
            while (!release.load(std::memory_order_acquire)) {}
        });
    });
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        smallTraceBytes(Encoding::Raw));
    session::TraceLoadQuery query;
    query.bytes = bytes;
    auto ticket = session.submit(query);
    ticket.cancel();
    release.store(true, std::memory_order_release);
    EXPECT_EQ(ticket.wait(), session::QueryStatus::Cancelled);
}

TEST(TraceLoadQuery, GenerationBumpsDoNotCancelALoad)
{
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        smallTraceBytes(Encoding::Compact));
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session::TraceLoadQuery query;
    query.bytes = bytes;
    auto ticket = session.submit(query);
    // View and filter mutations must not invalidate the load.
    session.setView({0, 10});
    session.clearFilters();
    session::TraceLoadResult result = ticket.take();
    EXPECT_TRUE(result.ok) << result.error;
}

// ---- Loads on the engine's pool ----------------------------------------

/** Above the 4096-frame threshold, so pooled loads decode on a pool. */
Trace
pooledLoadTrace()
{
    RandomTraceOptions options;
    options.cpus = 16;
    options.counters = 2;
    options.statesPerCpu = 200;
    return buildRandomTrace(31, options);
}

/** Wire encoding of a reply, for byte-identity against local answers. */
template <typename Value, typename Encode>
std::vector<std::uint8_t>
encoded(const Value &value, Encode encode)
{
    ByteWriter w;
    encode(value, w);
    return w.take();
}

TEST(EngineLoad, TraceLoadQueryMatchesSerialReadAtOneAndFourWorkers)
{
    const Trace built = pooledLoadTrace();
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        writeTrace(built, Encoding::Compact));
    const std::string path =
        ::testing::TempDir() + "aftermath_engine_load.ostv";
    std::string error;
    ASSERT_TRUE(writeTraceFile(built, path, Encoding::Compact, error))
        << error;
    ReadResult serial = readTrace(*bytes);
    ASSERT_TRUE(serial.ok) << serial.error;
    const std::vector<std::uint8_t> expected =
        writeTrace(serial.trace, Encoding::Raw);

    for (unsigned workers : {1u, 4u}) {
        for (bool from_file : {false, true}) {
            Session session(buildRandomTrace(1, {.cpus = 2}));
            session.setConcurrency({workers});
            session::TraceLoadQuery query;
            if (from_file)
                query.path = path;
            else
                query.bytes = bytes;
            session::TraceLoadResult result = session.submit(query).take();
            ASSERT_TRUE(result.ok) << result.error;
            EXPECT_EQ(writeTrace(*result.trace, Encoding::Raw), expected)
                << workers << " workers, from "
                << (from_file ? "file" : "bytes");
        }
    }
}

/** 1 topology + (32 * 4096 - 3) state events + 1 end frames on 16 CPUs:
 *  a load long enough to submit work while it runs. */
std::vector<std::uint8_t>
longLoadBytes()
{
    const std::uint32_t cpus = 16;
    ByteWriter writer = compactHeader(cpus);
    writeValidStates(writer, cpus, 32 * 4096 - 3);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::EndOfTrace));
    return writer.take();
}

TEST(EngineLoad, InteractiveQuerySubmittedDuringALoadFinishesFirst)
{
    // Through Session::submit(TraceLoadQuery): once the background load
    // runs, an interactive query must complete before it. On a 1-worker
    // engine the load holds the only worker, so the query runs only
    // through the load's donation hook.
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        longLoadBytes());
    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        Session session(buildRandomTrace(5, {.cpus = 4}));
        session.setConcurrency({workers});
        std::atomic<int> completions{0};
        std::atomic<int> load_rank{0}, query_rank{0};
        session::TraceLoadQuery load;
        load.bytes = bytes;
        auto load_ticket = session.submit(load);
        load_ticket.onComplete([&](session::QueryStatus) {
            load_rank = ++completions;
        });
        while (load_ticket.status() == session::QueryStatus::Pending)
            std::this_thread::yield();
        ASSERT_EQ(load_ticket.status(), session::QueryStatus::Running)
            << "the load finished before the query was submitted";
        auto query = session.submit(session::IntervalStatsQuery{});
        query.onComplete([&](session::QueryStatus) {
            query_rank = ++completions;
        });
        session::TraceLoadResult loaded = load_ticket.take();
        ASSERT_TRUE(loaded.ok) << loaded.error;
        EXPECT_EQ(encoded(query.take(), stats::encodeIntervalStats),
                  encoded(session.intervalStats(),
                          stats::encodeIntervalStats));
        // take() can return before the completion callbacks ran.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (completions.load() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        EXPECT_LT(query_rank.load(), load_rank.load());
    }
}

TEST(EngineLoad, InteractiveQuerySubmittedDuringDecodeFinishesFirst)
{
    // The scan of longLoadBytes() (32 * 4096 - 1 frames) polls 31
    // times, and the loading thread's next poll comes with the first
    // frames it decodes (parallelFor hands the calling thread the
    // first, largest lane).
    const std::vector<std::uint8_t> bytes = longLoadBytes();
    const std::size_t scan_polls = (32 * 4096 - 1) / 4096;

    // The load is driven by hand, the way TraceLoadQuery drives it (a
    // task on the engine's 4-worker pool, decoding on that same pool
    // and donating its thread to queued interactive work at every
    // poll), so the query can be submitted at the first decode-time
    // poll: this covers parallelFor and the donation hook during the
    // decode; the test above covers the submit path itself.
    Session session(buildRandomTrace(5, {.cpus = 4}));
    session.setConcurrency({4});
    session::QueryTicket<stats::IntervalStats> query;
    bool load_ok = false;
    bool query_done_first = false;
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([&] {
            std::size_t polls = 0;
            ReadOptions options;
            options.pool = &pool;
            options.yield = [&] {
                if (++polls == scan_polls + 1)
                    query = session.submit(session::IntervalStatsQuery{});
                while (pool.hasHighPriorityWork() &&
                       pool.runOneHighPriorityTask()) {
                }
            };
            load_ok = readTrace(bytes, options).ok;
            query_done_first = query.valid() &&
                               query.status() == session::QueryStatus::Done;
        });
    });
    session.queryEngine()->drain();
    EXPECT_TRUE(load_ok);
    ASSERT_TRUE(query.valid()) << "no poll during lane decode";
    EXPECT_TRUE(query_done_first);
    EXPECT_EQ(encoded(query.take(), stats::encodeIntervalStats),
              encoded(session.intervalStats(), stats::encodeIntervalStats));
}

TEST(DaemonLoad, OpenTraceByPathAndBytesMatchesSerialRead)
{
    // The daemon loads on its engine; the wire answers for the loaded
    // trace must equal a local session's over a serial read: task
    // list, whole-span stats, every counter's extrema, and State and
    // NumaRead frames (NUMA colours read the access and region tables).
    using namespace aftermath::daemon;
    const Trace built = pooledLoadTrace();
    std::vector<std::uint8_t> bytes = writeTrace(built, Encoding::Compact);
    const std::string path =
        ::testing::TempDir() + "aftermath_daemon_load.ostv";
    std::string error;
    ASSERT_TRUE(writeTraceFile(built, path, Encoding::Compact, error))
        << error;
    ReadResult serial = readTrace(bytes);
    ASSERT_TRUE(serial.ok) << serial.error;
    Session local = Session::view(serial.trace);
    const TimeInterval span = serial.trace.span();
    const render::TimelineMode modes[] = {render::TimelineMode::State,
                                          render::TimelineMode::NumaRead};

    Server server(Server::Options{4, 16});
    Client client;
    ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;
    for (bool inline_bytes : {false, true}) {
        SCOPED_TRACE(inline_bytes ? "inline bytes" : "path");
        OpenTraceRequest open;
        if (inline_bytes)
            open.bytes =
                std::make_shared<const std::vector<std::uint8_t>>(bytes);
        else
            open.path = path;
        Reply<OpenTraceReply> opened = client.openTrace(open);
        ASSERT_TRUE(opened.ok()) << opened.message;
        EXPECT_EQ(opened.value.numCpus, serial.trace.numCpus());
        EXPECT_EQ(opened.value.span, span);
        const std::uint64_t id = opened.value.traceId;

        TaskListRequest tasks;
        tasks.head.traceId = id;
        Reply<std::vector<TaskRow>> rows = client.taskList(tasks);
        ASSERT_TRUE(rows.ok()) << rows.message;
        std::vector<TaskRow> expect_rows;
        for (const TaskInstance *task : local.tasks())
            expect_rows.push_back(
                TaskRow{task->id, task->type, task->cpu, task->interval});
        EXPECT_EQ(encoded(rows.value, encodeTaskRows),
                  encoded(expect_rows, encodeTaskRows));

        IntervalStatsRequest stats_request;
        stats_request.head.traceId = id;
        stats_request.interval = span;
        Reply<stats::IntervalStats> stats = client.intervalStats(
            stats_request);
        ASSERT_TRUE(stats.ok()) << stats.message;
        EXPECT_EQ(encoded(stats.value, stats::encodeIntervalStats),
                  encoded(local.intervalStats(span),
                          stats::encodeIntervalStats));

        for (CpuId cpu = 0; cpu < serial.trace.numCpus(); cpu++) {
            for (CounterId counter = 0; counter < 2; counter++) {
                CounterExtremaRequest extrema;
                extrema.head.traceId = id;
                extrema.cpu = cpu;
                extrema.counter = counter;
                extrema.interval = span;
                Reply<index::MinMax> m = client.counterExtrema(extrema);
                ASSERT_TRUE(m.ok()) << m.message;
                EXPECT_EQ(encoded(m.value, stats::encodeMinMax),
                          encoded(local.counterExtrema(cpu, counter, span),
                                  stats::encodeMinMax))
                    << "cpu " << cpu << " counter " << counter;
            }
        }

        for (render::TimelineMode mode : modes) {
            TimelineRenderRequest render;
            render.head.traceId = id;
            render.mode = static_cast<std::uint8_t>(mode);
            render.view = span;
            render.width = 160;
            render.height = 120;
            Reply<RenderReply> frame = client.timelineRender(render);
            ASSERT_TRUE(frame.ok()) << frame.message;
            render::TimelineConfig config;
            config.mode = mode;
            config.view = span;
            render::Framebuffer fb(render.width, render.height);
            RenderReply expect_frame;
            expect_frame.stats = local.render(config, fb);
            expect_frame.fb = fb;
            EXPECT_EQ(encoded(frame.value, encodeRenderReply),
                      encoded(expect_frame, encodeRenderReply))
                << "mode " << static_cast<int>(mode);
        }
        EXPECT_TRUE(client.closeTrace(id).ok());
    }
    server.stop();
}

} // namespace
} // namespace trace
} // namespace aftermath
