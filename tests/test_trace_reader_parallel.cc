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
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/thread_pool.h"
#include "session/session.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "trace_builder.h"

namespace aftermath {
namespace trace {
namespace {

using test_support::buildRandomTrace;
using test_support::expectTracesEqual;
using test_support::RandomTraceOptions;

/** Workers settings every equality test sweeps. */
const unsigned kWorkerCounts[] = {1, 2, 4, 8};

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
    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_TRUE(result.ok)
            << "workers " << workers << ": " << result.error;
        EXPECT_EQ(result.encoding, encoding);
        EXPECT_EQ(result.bytesRead, bytes.size());
        expectTracesEqual(tr, result.trace);
        // Re-serialize: equal bytes means equal traces, bit for bit.
        std::vector<std::uint8_t> reencoded =
            writeTrace(result.trace, Encoding::Raw);
        if (workers == 1)
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
    // Big enough (> 4096 per-CPU frames) that workers > 1 really
    // decodes on a ThreadPool instead of the small-trace fallback.
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
    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
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
        for (unsigned workers : kWorkerCounts) {
            ReadOptions options;
            options.workers = workers;
            ReadResult result = readTrace(bytes, options);
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
    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
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
    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_FALSE(result.ok) << "workers " << workers;
        EXPECT_NE(result.error.find("StateEvent"), std::string::npos)
            << result.error;
        EXPECT_NE(result.error.find(
                      "offset " + std::to_string(bad_offset)),
                  std::string::npos)
            << result.error;
        if (workers == 1)
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
    // that workers > 1 decodes on the pool: the reported diagnostic is
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

    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
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
    for (int sample = 0; sample < 120; sample++) {
        const std::size_t pos = position(rng);
        for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
            std::vector<std::uint8_t> corrupt = bytes;
            corrupt[pos] ^= flip;
            ReadOptions serial_options;
            ReadResult serial = readTrace(corrupt, serial_options);
            ReadOptions parallel_options;
            parallel_options.workers = 4;
            ReadResult parallel = readTrace(corrupt, parallel_options);
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

    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
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
    ReadOptions options;
    options.workers = 2;
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

    ReadOptions plain;
    plain.workers = 4;
    ASSERT_TRUE(readTrace(bytes, plain).ok);

    const std::size_t scan_polls = 8191 / 4096;
    std::size_t polls = 0;
    ReadOptions options;
    options.workers = 4;
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

} // namespace
} // namespace trace
} // namespace aftermath
