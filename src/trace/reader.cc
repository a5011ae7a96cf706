/**
 * @file
 * The two-phase trace loader (see reader.h for the contract).
 *
 * Phase 1 scans the stream serially: small global frames (topology,
 * descriptions, task types) decode and apply in stream order, while
 * every *lane* frame — the per-CPU events plus the three bulk global
 * tables (task instances, memory regions, memory accesses) — is only
 * structurally skipped and recorded into per-lane stretches (start
 * offset + count of consecutive frames). The scan's hot loop extends a
 * stretch with one masked 8-byte prefix compare and one word-at-a-time
 * varint skip per frame.
 *
 * Phase 2 starts when the scan ends and decodes each lane's stretches
 * with one function. With a borrowed pool and enough frames, the lanes
 * are one parallelFor on that pool, largest lane first;
 * each lane fills its own container in stream order with its own delta
 * registers. The decode does not overlap the scan on purpose: the lane
 * decode still left when the scan ends takes as long as a whole decode
 * run after it, so overlapping them (per-lane batch queues fed by the
 * scan) buys no wall time. Decode diagnostics merge by lowest byte
 * offset, which makes the reported error — like the trace itself —
 * independent of worker count and scheduling.
 */

#include "trace/reader.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "base/buffer.h"
#include "base/string_util.h"

namespace aftermath {
namespace trace {

namespace {

/** Guard against absurd CPU/node counts from corrupt headers. */
constexpr std::uint32_t kMaxCpus = 1 << 16;
constexpr std::uint32_t kMaxNodes = 1 << 12;

/**
 * A per-CPU frame stretch: the tag byte offset of the first frame of a
 * run of *consecutive* frames on one CPU, packed with the frame count.
 * Real traces interleave coarsely (a writer flushes per-CPU buffers),
 * so stretches are long and the scan's bookkeeping amortizes to almost
 * nothing per frame; the decode phase re-walks each stretch
 * sequentially, re-reading the frame tags it dispatches on.
 */
constexpr unsigned kStretchCountShift = 48;
constexpr std::uint64_t kStretchOffsetMask =
    (std::uint64_t{1} << kStretchCountShift) - 1;
constexpr std::size_t kMaxStretchFrames =
    (std::size_t{1} << (64 - kStretchCountShift)) - 1;

std::uint64_t
packStretch(std::size_t offset, std::size_t count)
{
    return (static_cast<std::uint64_t>(offset) & kStretchOffsetMask) |
           (static_cast<std::uint64_t>(count) << kStretchCountShift);
}

/**
 * Mirrors TraceWriter's encoding decisions while decoding. One decoder
 * serves either the global frames (which never carry delta-coded
 * timestamps) or exactly one lane's frames, so it owns one
 * previous-timestamp register per delta class, not per (class, cpu).
 */
class FrameDecoder
{
  public:
    FrameDecoder(ByteReader &reader, Encoding encoding)
        : reader_(reader), encoding_(encoding)
    {}

    std::uint64_t
    readValue()
    {
        return encoding_ == Encoding::Compact ? reader_.readVarint()
                                              : reader_.readU64();
    }

    std::uint32_t
    readValue32()
    {
        if (encoding_ == Encoding::Compact) {
            std::uint64_t v = reader_.readVarint();
            if (v > std::numeric_limits<std::uint32_t>::max())
                reader_.markFailed();
            return static_cast<std::uint32_t>(v);
        }
        return reader_.readU32();
    }

    TimeStamp
    readTime(DeltaClass cls)
    {
        if (encoding_ != Encoding::Compact)
            return reader_.readU64();
        TimeStamp &last = last_[static_cast<std::size_t>(cls)];
        std::int64_t delta = reader_.readSignedVarint();
        TimeStamp time = static_cast<TimeStamp>(
            static_cast<std::int64_t>(last) + delta);
        last = time;
        return time;
    }

    std::int64_t
    readCounterValue()
    {
        if (encoding_ == Encoding::Compact)
            return reader_.readSignedVarint();
        return static_cast<std::int64_t>(reader_.readU64());
    }

  private:
    ByteReader &reader_;
    Encoding encoding_;
    TimeStamp last_[static_cast<std::size_t>(DeltaClass::NumClasses)] = {};
};

/**
 * The wire shape of one lane frame's payload — the single source of
 * truth the scan's skip paths derive frame boundaries from (the decode
 * switches re-read the same fields semantically, so a layout change
 * there without a change here fails loudly in the round-trip tests).
 *
 * perCpu frames start with a varint/u32 CPU id that the scan decodes;
 * the payload fields below follow it. kindByte is the comm-event u8
 * between the CPU id and the payload varints; trailingByte is the
 * mem-access is-write u8 after them. rawPayload counts every payload
 * byte after the (tag, CPU id) prefix in the Raw encoding, kind and
 * trailing bytes included.
 */
struct FrameLayout
{
    std::uint8_t payloadVarints = 0; ///< 0 = not a lane frame.
    std::uint8_t rawPayload = 0;
    bool kindByte = false;
    bool trailingByte = false;
    bool perCpu = false;
};

constexpr FrameLayout
frameLayout(FrameType type)
{
    switch (type) {
      case FrameType::StateEvent: // state, time, duration, task
        return {4, 4 + 8 + 8 + 8, false, false, true};
      case FrameType::CounterSample: // counter, time, value
        return {3, 4 + 8 + 8, false, false, true};
      case FrameType::DiscreteEvent: // type, time, payload
        return {3, 4 + 8 + 8, false, false, true};
      case FrameType::CommEvent: // kind u8, time, src, dst, size, region
        return {5, 1 + 8 + 4 + 4 + 8 + 8, true, false, true};
      case FrameType::TaskInstance: // id, type, cpu, start, duration
        return {5, 8 + 8 + 4 + 8 + 8, false, false, false};
      case FrameType::MemRegion: // id, address, size, node
        return {4, 8 + 8 + 8 + 4, false, false, false};
      case FrameType::MemAccess: // task, address, size + is-write u8
        return {3, 8 + 8 + 8 + 1, false, true, false};
      default:
        return {};
    }
}

/**
 * Skip the payload of one lane frame (everything after the tag and,
 * for per-CPU frames, the already-consumed CPU id) without
 * materializing it. Truncation fails the reader here, during the
 * scan; value-level violations (an over-long varint, a varint
 * overflowing a 32-bit field) are left for the decode phase, which
 * re-reads every field with full validation and reports the frame's
 * offset and kind.
 */
void
skipLanePayload(ByteReader &reader, Encoding encoding, FrameType type)
{
    const FrameLayout layout = frameLayout(type);
    if (layout.payloadVarints == 0) {
        reader.markFailed();
        return;
    }
    if (encoding == Encoding::Compact) {
        if (layout.kindByte)
            reader.skip(1);
        reader.skipVarints(layout.payloadVarints);
        if (layout.trailingByte)
            reader.skip(1);
        return;
    }
    reader.skip(layout.rawPayload);
}

/**
 * Decode lanes: the three bulk global containers — task instances,
 * memory regions, memory accesses — are lanes 0-2 (globalLaneIndex()),
 * and CPU c's timeline is lane kNumGlobalLanes + c. Frames of one lane
 * decode strictly in stream order, so each container fills exactly as
 * the serial reader would fill it; different lanes touch disjoint
 * Trace members and decode concurrently.
 */
constexpr std::size_t kNumGlobalLanes = 3;

std::size_t
globalLaneIndex(FrameType type)
{
    switch (type) {
      case FrameType::TaskInstance: return 0;
      case FrameType::MemRegion: return 1;
      default: return 2; // MemAccess
    }
}

/**
 * Frames between two polls of the yield hook and the cancel token, in
 * the scan and in lane decode alike (a power of two: polls test a mask).
 */
constexpr std::size_t kPollFrames = 4096;

/**
 * Lane frames below which the decode stays on the calling thread even
 * with a pool: handing lanes to workers costs more than decoding them.
 */
constexpr std::size_t kParallelDecodeFrames = 4096;

/** decodeLane()'s "no corrupt frame" result. */
constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

/**
 * Decode one lane's stretches into its container, in stream order.
 * The scan already validated frame structure and CPU ids, so the only
 * possible failures are value-level (a varint over-long or overflowing
 * a 32-bit field); semantic validation that needs the whole trace (a
 * task instance on an out-of-range CPU) is finalize()'s job, exactly as
 * for directly populated traces.
 *
 * Every kPollFrames frames — counted in @p polled, which the calling
 * thread carries across the scan and all its lanes — the decode runs
 * @p yield (null off the calling thread) and stops if @p cancel was
 * requested. Returns the tag offset of the lane's first corrupt frame,
 * or kNoError (also when cancelled: the caller checks the token).
 */
std::size_t
decodeLane(const std::vector<std::uint8_t> &bytes, Encoding encoding,
           const std::vector<std::uint64_t> &stretches, Trace &trace,
           const base::CancellationToken &cancel,
           const std::function<void()> *yield, std::size_t &polled)
{
    ByteReader reader(bytes);
    FrameDecoder decoder(reader, encoding);
    for (std::uint64_t stretch : stretches) {
        reader.seek(static_cast<std::size_t>(stretch &
                                             kStretchOffsetMask));
        const std::size_t count =
            static_cast<std::size_t>(stretch >> kStretchCountShift);
        for (std::size_t k = 0; k < count; k++) {
            if ((++polled & (kPollFrames - 1)) == 0) {
                if (yield && *yield)
                    (*yield)();
                if (cancel.cancelled())
                    return kNoError;
            }
            const std::size_t offset = reader.offset();
            FrameType type = static_cast<FrameType>(reader.readU8());
            switch (type) {
              case FrameType::StateEvent: {
                // The CPU id names this lane (validated by the scan).
                CpuTimeline &timeline = trace.cpu(decoder.readValue32());
                StateEvent ev;
                ev.state = decoder.readValue32();
                ev.interval.start = decoder.readTime(DeltaClass::State);
                ev.interval.end = ev.interval.start + decoder.readValue();
                ev.task = decoder.readValue();
                if (reader.ok())
                    timeline.addState(ev);
                break;
              }
              case FrameType::CounterSample: {
                CpuTimeline &timeline = trace.cpu(decoder.readValue32());
                CounterId counter = decoder.readValue32();
                CounterSample sample;
                sample.time = decoder.readTime(DeltaClass::Counter);
                sample.value = decoder.readCounterValue();
                if (reader.ok())
                    timeline.addCounterSample(counter, sample);
                break;
              }
              case FrameType::DiscreteEvent: {
                CpuTimeline &timeline = trace.cpu(decoder.readValue32());
                DiscreteEvent ev;
                ev.type = static_cast<DiscreteType>(decoder.readValue32());
                ev.time = decoder.readTime(DeltaClass::Discrete);
                ev.payload = decoder.readValue();
                if (reader.ok())
                    timeline.addDiscrete(ev);
                break;
              }
              case FrameType::CommEvent: {
                CpuTimeline &timeline = trace.cpu(decoder.readValue32());
                CommEvent ev;
                ev.kind = static_cast<CommKind>(reader.readU8());
                ev.time = decoder.readTime(DeltaClass::Comm);
                ev.src = decoder.readValue32();
                ev.dst = decoder.readValue32();
                ev.size = decoder.readValue();
                ev.region = decoder.readValue();
                if (reader.ok())
                    timeline.addComm(ev);
                break;
              }
              case FrameType::TaskInstance: {
                TaskInstance instance;
                instance.id = decoder.readValue();
                instance.type = decoder.readValue();
                instance.cpu = decoder.readValue32();
                instance.interval.start = decoder.readValue();
                instance.interval.end = instance.interval.start +
                                        decoder.readValue();
                if (reader.ok())
                    trace.addTaskInstance(instance);
                break;
              }
              case FrameType::MemRegion: {
                MemRegion region;
                region.id = decoder.readValue();
                region.address = decoder.readValue();
                region.size = decoder.readValue();
                std::uint32_t node = decoder.readValue32();
                if (reader.ok()) {
                    region.node =
                        node == std::numeric_limits<std::uint32_t>::max()
                            ? kInvalidNode : node;
                    trace.addMemRegion(region);
                }
                break;
              }
              case FrameType::MemAccess: {
                MemAccess access;
                access.task = decoder.readValue();
                access.address = decoder.readValue();
                access.size = decoder.readValue();
                access.isWrite = reader.readU8() != 0;
                if (reader.ok())
                    trace.addMemAccess(access);
                break;
              }
              default:
                // The scan only records lane frame tags.
                reader.markFailed();
            }
            if (!reader.ok())
                return offset;
        }
    }
    return kNoError;
}

/** Mark @p result as a cancelled load. */
ReadResult
cancelledLoad(ReadResult result)
{
    result.cancelled = true;
    result.error = "trace load cancelled";
    return result;
}

} // namespace

ReadResult
readTrace(const std::vector<std::uint8_t> &bytes, const ReadOptions &options)
{
    ReadResult result;
    ByteReader reader(bytes);

    std::uint32_t magic = reader.readU32();
    std::uint16_t version = reader.readU16();
    std::uint16_t encoding_raw = reader.readU16();
    std::uint64_t cpu_freq = reader.readU64();

    if (!reader.ok() || magic != kTraceMagic) {
        result.error = "not an Aftermath trace (bad magic at offset 0)";
        return result;
    }
    if (version != kTraceVersion) {
        result.error = strFormat(
            "unsupported trace version %u at offset 4", version);
        return result;
    }
    if (encoding_raw > static_cast<std::uint16_t>(Encoding::Compact)) {
        result.error =
            strFormat("unknown encoding %u at offset 6", encoding_raw);
        return result;
    }
    Encoding encoding = static_cast<Encoding>(encoding_raw);
    result.encoding = encoding;
    result.trace.setCpuFreqHz(cpu_freq);

    // ---- Phase 1: serial frame scan ------------------------------------
    const auto scan_start = std::chrono::steady_clock::now();
    FrameDecoder decoder(reader, encoding);
    Trace &trace = result.trace;
    std::vector<std::vector<std::uint64_t>> runs(kNumGlobalLanes);
    std::size_t scanned = 0;
    bool have_topology = false;
    bool done = false;

    // Every kPollFrames scanned frames: donate the thread, then report
    // whether the load was cancelled.
    auto poll_cancelled = [&] {
        if ((++scanned & (kPollFrames - 1)) != 0)
            return false;
        if (options.yield)
            options.yield();
        return options.cancel.cancelled();
    };

    // The open stretch of consecutive frames on one lane; closing it
    // appends one packed entry to that lane's run.
    std::size_t stretch_lane = 0;
    std::size_t stretch_start = 0;
    std::size_t stretch_count = 0; // 0 = no open stretch.

    auto close_stretch = [&] {
        if (stretch_count == 0)
            return;
        runs[stretch_lane].push_back(
            packStretch(stretch_start, stretch_count));
        stretch_count = 0;
    };

    auto append_frame = [&](std::size_t lane, std::size_t offset) {
        if (stretch_count > 0 &&
            (lane != stretch_lane || stretch_count >= kMaxStretchFrames))
            close_stretch();
        if (stretch_count == 0) {
            stretch_lane = lane;
            stretch_start = offset;
        }
        stretch_count++;
    };

    auto check_cpu = [&](CpuId cpu, FrameType type,
                         std::size_t offset) -> bool {
        if (!have_topology) {
            result.error = strFormat(
                "%s frame at offset %zu precedes the topology frame",
                frameTypeName(type), offset);
            return false;
        }
        if (cpu >= trace.numCpus()) {
            result.error = strFormat(
                "%s frame at offset %zu: event on cpu %u outside topology",
                frameTypeName(type), offset, cpu);
            return false;
        }
        return true;
    };

    const std::uint8_t *data = bytes.data();
    const std::size_t size = bytes.size();
    const bool compact = encoding == Encoding::Compact;

    // Strict inline varint for the raw-pointer fast path: fails on
    // exactly the inputs ByteReader::readVarint rejects.
    auto read_varint_fast = [&](std::size_t &p, std::uint64_t &v) -> bool {
        v = 0;
        int shift = 0;
        while (p < size) {
            std::uint8_t b = data[p++];
            if (shift == 63 && (b & 0x7e))
                return false;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return true;
            if (shift == 63)
                return false;
            shift += 7;
        }
        return false;
    };

    // Word-at-a-time varint skipping (see ByteReader::skipVarints; the
    // decode phase re-reads every field skipped here with validation).
    auto skip_varints_fast = [&](std::size_t &p, unsigned n) -> bool {
        while (n > 0) {
            if (size - p < 8) {
                std::uint64_t v;
                for (; n > 0; n--) {
                    if (!read_varint_fast(p, v))
                        return false;
                }
                return true;
            }
            std::uint64_t w;
            std::memcpy(&w, data + p, 8);
            std::uint64_t term = ~w & 0x8080808080808080ull;
            unsigned count = static_cast<unsigned>(std::popcount(term));
            if (count >= n) {
                for (unsigned k = 1; k < n; k++)
                    term &= term - 1; // Drop the k lowest terminators.
                p += static_cast<std::size_t>(
                         std::countr_zero(term) / 8) + 1;
                return true;
            }
            p += 8;
            n -= count;
        }
        return true;
    };

    // The (tag byte + encoded CPU id) prefix of the last lane frame,
    // as a masked 8-byte pattern: while consecutive frames repeat it
    // (the overwhelmingly common case), the scan extends the stretch
    // with one compare instead of re-decoding tag and id. Global lane
    // frames have a 1-byte prefix (the tag alone).
    std::uint64_t prefix_pattern = 0;
    std::uint64_t prefix_mask = 0;
    std::size_t prefix_len = 0; // 0 = no cached prefix.
    FrameLayout prefix_layout;
    std::size_t prefix_lane = 0;
    FrameType prefix_type = FrameType::StateEvent;

    while (!done) {
        // Fast path: stretches of consecutive per-CPU frames (the bulk
        // of any real trace) scan in one register-resident raw-pointer
        // loop. Falls back to the general path at global frames, near
        // the buffer tail, and before the topology frame.
        if (have_topology) {
            std::size_t pos = reader.offset();
            while (size - pos >= 64) {
                if (prefix_len != 0) {
                    std::uint64_t head;
                    std::memcpy(&head, data + pos, 8);
                    if (((head ^ prefix_pattern) & prefix_mask) == 0) {
                        // Same tag (and CPU): extend the stretch.
                        std::size_t p = pos + prefix_len;
                        if (compact) {
                            if (prefix_layout.kindByte)
                                p++; // The comm kind byte (any value).
                            // The trailing is-write byte must exist
                            // beyond the varints (word-skipping does
                            // not bound varint length, so p can reach
                            // the buffer end here).
                            if (!skip_varints_fast(
                                    p, prefix_layout.payloadVarints) ||
                                (prefix_layout.trailingByte &&
                                 p >= size)) {
                                result.error = strFormat(
                                    "truncated or corrupt %s frame at "
                                    "offset %zu",
                                    frameTypeName(prefix_type), pos);
                                return result;
                            }
                            if (prefix_layout.trailingByte)
                                p++; // The mem-access is-write byte.
                        } else {
                            // rawPayload covers kind/trailing bytes.
                            p += prefix_layout.rawPayload;
                        }
                        if (stretch_count >= kMaxStretchFrames)
                            close_stretch();
                        if (stretch_count == 0) {
                            stretch_lane = prefix_lane;
                            stretch_start = pos;
                        }
                        stretch_count++;
                        pos = p;
                        if (poll_cancelled())
                            return cancelledLoad(std::move(result));
                        continue;
                    }
                }
                FrameType ftype = static_cast<FrameType>(data[pos]);
                const FrameLayout layout = frameLayout(ftype);
                if (layout.payloadVarints == 0)
                    break; // Description/end frame: general path.
                const std::size_t frame_offset = pos;
                std::size_t p = pos + 1;
                std::size_t prefix_end = p;
                std::size_t lane;
                if (layout.perCpu) {
                    std::uint64_t cpu64;
                    if (compact) {
                        bool ok = read_varint_fast(p, cpu64) &&
                                  cpu64 <= std::numeric_limits<
                                               std::uint32_t>::max();
                        prefix_end = p;
                        if (ok && layout.kindByte)
                            p++; // The comm kind byte (any value).
                        if (!ok ||
                            !skip_varints_fast(p,
                                               layout.payloadVarints)) {
                            result.error = strFormat(
                                "truncated or corrupt %s frame at "
                                "offset %zu",
                                frameTypeName(ftype), frame_offset);
                            return result;
                        }
                    } else {
                        std::uint32_t c32;
                        std::memcpy(&c32, data + p, 4);
                        cpu64 = c32;
                        prefix_end = p + 4;
                        p += 4 + layout.rawPayload;
                    }
                    CpuId cpu = static_cast<CpuId>(cpu64);
                    if (cpu >= trace.numCpus()) {
                        result.error = strFormat(
                            "%s frame at offset %zu: event on cpu %u "
                            "outside topology",
                            frameTypeName(ftype), frame_offset, cpu);
                        return result;
                    }
                    lane = kNumGlobalLanes + cpu;
                } else {
                    if (compact) {
                        // The trailing is-write byte must exist beyond
                        // the varints (word-skipping does not bound
                        // varint length, so p can reach the buffer
                        // end here).
                        if (!skip_varints_fast(p,
                                               layout.payloadVarints) ||
                            (layout.trailingByte && p >= size)) {
                            result.error = strFormat(
                                "truncated or corrupt %s frame at "
                                "offset %zu",
                                frameTypeName(ftype), frame_offset);
                            return result;
                        }
                        if (layout.trailingByte)
                            p++; // The mem-access is-write byte.
                    } else {
                        p += layout.rawPayload;
                    }
                    lane = globalLaneIndex(ftype);
                }
                append_frame(lane, frame_offset);
                // Cache this frame's prefix for the stretch fast path
                // (tag + CPU id bytes; at most 1 + 5 <= 8 bytes).
                prefix_len = prefix_end - frame_offset;
                prefix_mask =
                    prefix_len >= 8
                        ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << (8 * prefix_len)) - 1;
                std::memcpy(&prefix_pattern, data + frame_offset, 8);
                prefix_pattern &= prefix_mask;
                prefix_layout = layout;
                prefix_lane = lane;
                prefix_type = ftype;
                pos = p;
                if (poll_cancelled())
                    return cancelledLoad(std::move(result));
            }
            reader.seek(pos);
        }

        if (poll_cancelled())
            return cancelledLoad(std::move(result));
        std::size_t frame_offset = reader.offset();
        std::uint8_t type_raw = reader.readU8();
        if (!reader.ok()) {
            result.error = strFormat(
                "truncated trace at offset %zu: missing end-of-trace frame",
                frame_offset);
            return result;
        }
        FrameType type = static_cast<FrameType>(type_raw);

        // A non-lane frame (descriptions, topology, end-of-trace,
        // unknown tags) interrupts the byte-contiguity of the open
        // stretch; close it so decode never walks across it.
        bool lane_frame = isPerCpuFrame(type) ||
                          type == FrameType::TaskInstance ||
                          type == FrameType::MemRegion ||
                          type == FrameType::MemAccess;
        if (!lane_frame)
            close_stretch();

        switch (type) {
          case FrameType::Topology: {
            if (have_topology) {
                result.error = strFormat(
                    "duplicate topology frame at offset %zu", frame_offset);
                return result;
            }
            std::uint32_t num_cpus = decoder.readValue32();
            std::uint32_t num_nodes = decoder.readValue32();
            if (!reader.ok() || num_cpus == 0 || num_cpus > kMaxCpus ||
                num_nodes == 0 || num_nodes > kMaxNodes) {
                result.error = strFormat(
                    "invalid topology frame at offset %zu", frame_offset);
                return result;
            }
            std::vector<NodeId> cpu_to_node(num_cpus);
            for (auto &node : cpu_to_node) {
                node = decoder.readValue32();
                if (reader.ok() && node >= num_nodes) {
                    result.error = strFormat(
                        "cpu mapped to invalid node in topology frame "
                        "at offset %zu",
                        frame_offset);
                    return result;
                }
            }
            std::vector<std::uint32_t> distances(
                static_cast<std::size_t>(num_nodes) * num_nodes);
            for (auto &d : distances)
                d = decoder.readValue32();
            if (!reader.ok()) {
                result.error = strFormat(
                    "truncated topology frame at offset %zu", frame_offset);
                return result;
            }
            trace.setTopology(MachineTopology::custom(
                std::move(cpu_to_node), num_nodes, std::move(distances)));
            runs.resize(kNumGlobalLanes + trace.numCpus());
            have_topology = true;
            break;
          }
          case FrameType::StateDescription: {
            StateDescription desc;
            desc.id = decoder.readValue32();
            desc.name = reader.readString();
            if (reader.ok())
                trace.addStateDescription(desc);
            break;
          }
          case FrameType::CounterDescription: {
            CounterDescription desc;
            desc.id = decoder.readValue32();
            desc.name = reader.readString();
            if (reader.ok())
                trace.addCounterDescription(desc);
            break;
          }
          case FrameType::TaskType: {
            TaskType task_type;
            task_type.id = decoder.readValue();
            task_type.name = reader.readString();
            if (reader.ok())
                trace.addTaskType(task_type);
            break;
          }
          case FrameType::StateEvent:
          case FrameType::CounterSample:
          case FrameType::DiscreteEvent:
          case FrameType::CommEvent: {
            CpuId cpu = decoder.readValue32();
            skipLanePayload(reader, encoding, type);
            if (!reader.ok())
                break;
            if (!check_cpu(cpu, type, frame_offset))
                return result;
            append_frame(kNumGlobalLanes + cpu, frame_offset);
            break;
          }
          case FrameType::TaskInstance:
          case FrameType::MemRegion:
          case FrameType::MemAccess: {
            // The global lanes exist from the start, so memory frames
            // may come before the topology. A task instance names a
            // CPU, so it may not (finalize() checks that CPU's range).
            skipLanePayload(reader, encoding, type);
            if (!reader.ok())
                break;
            if (type == FrameType::TaskInstance && !have_topology) {
                result.error = strFormat(
                    "%s frame at offset %zu precedes the topology frame",
                    frameTypeName(type), frame_offset);
                return result;
            }
            append_frame(globalLaneIndex(type), frame_offset);
            break;
          }
          case FrameType::EndOfTrace:
            done = true;
            break;
          default:
            result.error = strFormat("unknown frame type %u at offset %zu",
                                     type_raw, frame_offset);
            return result;
        }

        if (!reader.ok()) {
            result.error = strFormat(
                "truncated or corrupt %s frame at offset %zu",
                frameTypeName(type), frame_offset);
            return result;
        }
    }

    if (!have_topology) {
        result.error = "trace contains no topology frame";
        return result;
    }

    // ---- Phase 2: lane decode ------------------------------------------
    close_stretch(); // No-op unless the stream ended mid-stretch.
    const auto decode_start = std::chrono::steady_clock::now();
    result.scanSeconds =
        std::chrono::duration<double>(decode_start - scan_start).count();

    // Largest lanes first, so the longest decode starts first and the
    // pool's tail stays short (on seidel the memory-access lane alone
    // holds about a quarter of all lane frames).
    std::vector<std::size_t> lane_frames(runs.size(), 0);
    std::vector<std::size_t> order;
    std::size_t total_frames = 0;
    for (std::size_t lane = 0; lane < runs.size(); lane++) {
        for (std::uint64_t stretch : runs[lane])
            lane_frames[lane] += stretch >> kStretchCountShift;
        total_frames += lane_frames[lane];
        if (lane_frames[lane] > 0)
            order.push_back(lane);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return lane_frames[a] > lane_frames[b];
                     });

    // The pool's workers plus the calling thread (which parallelFor
    // puts to work too) decode; the pool also serves finalize().
    base::ThreadPool *pool =
        total_frames >= kParallelDecodeFrames ? options.pool : nullptr;

    // The global lanes' frame counts are their tables' final sizes;
    // reserving them spares the largest lane (memory accesses) every
    // reallocation, and that lane bounds the parallel decode's length.
    trace.reserveGlobalTables(lane_frames[0], lane_frames[1],
                              lane_frames[2]);

    // Only the calling thread yields; it keeps counting frames from
    // where the scan stopped, so the poll cadence spans the whole load.
    // Each lane keeps its first corrupt frame; the lowest offset wins
    // below, which makes the diagnostic independent of scheduling.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> lane_error(runs.size(), kNoError);
    auto decode = [&](std::size_t i) {
        if (options.cancel.cancelled())
            return; // Leave unstarted lanes of a cancelled load alone.
        const std::size_t lane = order[i];
        std::size_t helper_polled = 0;
        const bool on_caller = std::this_thread::get_id() == caller;
        lane_error[lane] = decodeLane(
            bytes, encoding, runs[lane], trace, options.cancel,
            on_caller ? &options.yield : nullptr,
            on_caller ? scanned : helper_polled);
    };
    if (pool) {
        pool->parallelFor(order.size(), decode);
    } else {
        for (std::size_t i = 0; i < order.size(); i++)
            decode(i);
    }
    const auto finalize_start = std::chrono::steady_clock::now();
    result.decodeSeconds =
        std::chrono::duration<double>(finalize_start - decode_start)
            .count();

    if (options.cancel.cancelled())
        return cancelledLoad(std::move(result));
    const std::size_t first_error =
        *std::min_element(lane_error.begin(), lane_error.end());
    if (first_error != kNoError) {
        result.error = strFormat(
            "corrupt %s frame at offset %zu",
            frameTypeName(static_cast<FrameType>(bytes[first_error])),
            first_error);
        return result;
    }

    std::string finalize_error;
    const bool finalized = trace.finalize(finalize_error, pool);
    result.finalizeSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 finalize_start)
                                 .count();
    if (!finalized) {
        result.error = "trace validation failed: " + finalize_error;
        return result;
    }
    result.bytesRead = reader.offset();
    result.ok = true;
    return result;
}

ReadResult
readTraceFile(const std::string &path, const ReadOptions &options)
{
    ReadResult result;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        result.error = "cannot open " + path;
        return result;
    }
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        result.error = "cannot determine size of " + path;
        return result;
    }
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size()) {
        result.error = "short read from " + path;
        return result;
    }
    return readTrace(bytes, options);
}

} // namespace trace
} // namespace aftermath
