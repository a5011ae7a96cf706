/**
 * @file
 * Multi-resolution summary pyramids: O(pixels) answers at any zoom.
 *
 * Interactive queries must answer at UI latency regardless of trace
 * size, but an exact scan touches every event in the view interval —
 * at billion-event scale that is the wall (the ROADMAP's "O(pixels),
 * not O(events)" item; Traveler's aggregated task-trace navigation is
 * the exemplar). The pyramid precomputes, per CPU, hierarchical
 * summaries at power-of-two interval granularities:
 *
 *  - state occupancy: time spent per task state inside each node,
 *  - counter aggregates: min/max/sum/count of each counter's samples,
 *  - task-begin counts per node.
 *
 * Level 0 partitions the trace span into leaves of one fixed
 * granularity g0 (the smallest power of two putting the leaf count
 * near a few thousand); level k merges pairs of level k-1 nodes, so
 * any *leaf-aligned* interval decomposes into O(log n) nodes by the
 * canonical segment-tree walk — and the decomposed answer is exact
 * for that aligned interval, not an approximation of it.
 *
 * The query plane (session/query_engine.cc) uses this as follows: a
 * query carrying Resolution::Budget or Resolution::Pixels has its
 * interval snapped outward to the coarsest granularity within the
 * error budget, and the snapped interval is answered exactly from the
 * pyramid; the result reports the snapped interval and a
 * ResolutionInfo provenance. Resolution::Exact never touches this
 * structure.
 *
 * Storage is flat, so a build makes a handful of allocations per CPU
 * instead of several per node and a query walks contiguous memory:
 * every level's nodes share one index space (level k is a contiguous
 * index range), occupancy is CSR (one offset per node into packed
 * (slot, time) entries, slots indexing the CPU's sorted state list),
 * counter aggregates are one slab of node x counter slots, and the
 * task-begin counts are one array. Callers accumulate occupancy into
 * flat per-slot buffers they own and reuse.
 *
 * One caveat for bit-identity: the exact scan records a zero-valued
 * occupancy entry for a zero-duration state event inside the interval
 * (its slice includes the event, its overlap is zero); the pyramid
 * only records states with nonzero occupancy. Traces without
 * zero-duration state events — every writer in this repo — are
 * unaffected.
 *
 * TracePyramids is the lazily-built, per-CPU-sharded store shared
 * across every session viewing one trace (Session::SharedCaches), the
 * same idiom as CounterIndexCache: one lock per CPU shard, builds for
 * different CPUs never contend, references stay valid for the
 * pyramids' lifetime (the whole object is replaced on setTrace).
 */

#ifndef AFTERMATH_INDEX_SUMMARY_PYRAMID_H
#define AFTERMATH_INDEX_SUMMARY_PYRAMID_H

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/resolution.h"
#include "base/thread_annotations.h"
#include "base/time_interval.h"
#include "base/types.h"
#include "index/counter_index.h"
#include "trace/trace.h"

namespace aftermath {
namespace index {

/** The per-CPU pyramid: summary nodes at power-of-two granularities. */
class SummaryPyramid
{
  public:
    /** min/max/sum/count of one counter's samples inside one range. */
    struct CounterAggregate
    {
        std::uint64_t count = 0;
        std::int64_t min = 0;
        std::int64_t max = 0;
        /** Wrapping two's-complement sum (callers wanting averages at
         *  pyramid scale accept the same wrap the samples could). */
        std::int64_t sum = 0;
    };

    /** Time one node spends in the state states()[slot]. */
    struct Occupancy
    {
        std::uint32_t slot = 0;
        TimeStamp time = 0;
    };

    /**
     * Build the pyramid of @p cpu over @p trace with leaves of
     * @p leaf_granularity covering @p leaf_count slots from time 0.
     * @p task_starts holds the start times of the tasks executed on
     * @p cpu, in any order. The trace must stay alive and unchanged.
     */
    SummaryPyramid(const trace::Trace &trace, CpuId cpu,
                   TimeStamp leaf_granularity, std::uint64_t leaf_count,
                   std::span<const TimeStamp> task_starts);

    TimeStamp leafGranularity() const { return g0_; }
    std::uint64_t leafCount() const { return leafCount_; }

    /**
     * The states with nonzero occupancy on this CPU, ascending. Nodes
     * name a state by its position here (its slot), so slot order is
     * state order.
     */
    const std::vector<std::uint32_t> &states() const { return states_; }

    /**
     * Exact state occupancy over the aligned leaf range
     * [@p first_leaf, @p last_leaf): adds each state's time to
     * @p into[slot] (@p into holds at least states().size() slots; a
     * state absent from the range adds nothing) and counts the pyramid
     * nodes consulted into @p nodes_touched.
     */
    void occupancy(std::uint64_t first_leaf, std::uint64_t last_leaf,
                   std::span<TimeStamp> into,
                   std::uint64_t &nodes_touched) const;

    /** The nonzero occupancy entries of leaf @p leaf, ascending by slot. */
    std::span<const Occupancy> leafOccupancy(std::uint64_t leaf) const;

    /**
     * Exact counter aggregate over the aligned leaf range. A counter
     * never sampled on this CPU yields count == 0.
     */
    CounterAggregate counterAggregate(CounterId counter,
                                      std::uint64_t first_leaf,
                                      std::uint64_t last_leaf,
                                      std::uint64_t &nodes_touched) const;

    /**
     * Tasks of this CPU beginning inside the aligned leaf range (the
     * per-node task-begin counts summed over the decomposition).
     */
    std::uint64_t tasksStarted(std::uint64_t first_leaf,
                               std::uint64_t last_leaf,
                               std::uint64_t &nodes_touched) const;

    /** Bytes used by the node arrays. */
    std::size_t memoryBytes() const;

  private:
    /**
     * Canonical bottom-up decomposition of the leaf range
     * [first, last) into O(log n) nodes; calls @p visit with each
     * node's flat index.
     */
    template <typename Visit>
    void decompose(std::uint64_t first, std::uint64_t last,
                   std::uint64_t &nodes_touched, Visit &&visit) const;

    TimeStamp g0_;
    std::uint64_t leafCount_;
    std::vector<CounterId> counterIds_; ///< Sorted; slot order of counters_.
    std::vector<std::uint32_t> states_; ///< Sorted; slot order of occ_.

    /**
     * Every level's nodes in one index space: level k holds nodes
     * [levelStart_[k], levelStart_[k + 1]); level 0 are the leaves,
     * level k merges pairs of level k-1, the top level has one node.
     */
    std::vector<std::uint64_t> levelStart_;
    /** CSR occupancy: node n owns occ_[occStart_[n], occStart_[n + 1]). */
    std::vector<std::uint32_t> occStart_;
    std::vector<Occupancy> occ_;
    /** Node n's aggregate of counterIds_[c] is counters_[n * C + c]. */
    std::vector<CounterAggregate> counters_;
    std::vector<std::uint64_t> tasksStarted_; ///< Per node.
};

/**
 * The shared, per-CPU-sharded pyramid store of one trace. One leaf
 * granularity g0 for every CPU (chosen from the trace span), per-CPU
 * pyramids built lazily under per-shard locks (rank kPyramidShard),
 * plus the trace-global sorted task-start/end arrays that make the
 * interval task counts (tasksStarted / tasksOverlapping) and the
 * histogram's task selection O(log n) for any interval.
 */
class TracePyramids
{
  public:
    /** Target leaf count the granularity is chosen against. */
    static constexpr std::uint64_t kTargetLeaves = 4096;

    /** Pyramids over @p trace, which must stay alive and unchanged. */
    explicit TracePyramids(const trace::Trace &trace);

    /** Leaf granularity shared by every CPU's pyramid. */
    TimeStamp leafGranularity() const { return g0_; }

    /** Leaves per pyramid; the domain is [0, leafCount * g0). */
    std::uint64_t leafCount() const { return leafCount_; }

    /** End of the pyramid domain (>= the trace span's end). */
    TimeStamp domainEnd() const { return g0_ * leafCount_; }

    /**
     * The pyramid of @p cpu, built on first use; panics on
     * out-of-range ids. Thread-safe; the reference stays valid for
     * this object's lifetime. When @p built is non-null it is set to
     * whether *this* call constructed the pyramid (decided under the
     * shard lock), which lets PyramidBuildQuery attribute its builds.
     */
    const SummaryPyramid &get(CpuId cpu, bool *built = nullptr);

    /** Like get(), but returns nullptr for out-of-range CPU ids. */
    const SummaryPyramid *getOrNull(CpuId cpu, bool *built = nullptr);

    /** Number of pyramids currently built. */
    std::size_t size() const;

    /**
     * The granularity (a power-of-two multiple of g0) the engine
     * snaps @p interval to under @p resolution, or 0 when the request
     * must fall back to the exact scan (Exact kind, a budget finer
     * than one leaf, or a zero-width Pixels request).
     */
    TimeStamp granularityFor(const Resolution &resolution,
                             const TimeInterval &interval) const;

    /**
     * @p interval with both edges snapped outward to multiples of
     * @p granularity and clamped to the pyramid domain. Each edge
     * moves by less than @p granularity; the result is leaf-aligned.
     */
    TimeInterval snap(const TimeInterval &interval,
                      TimeStamp granularity) const;

    /** Leaf range [first, last) of a leaf-aligned @p interval. */
    std::pair<std::uint64_t, std::uint64_t>
    leafRange(const TimeInterval &interval) const;

    /** Tasks (trace-wide) whose start lies inside @p interval. */
    std::uint64_t tasksStartedIn(const TimeInterval &interval) const;

    /** Tasks (trace-wide) overlapping @p interval. */
    std::uint64_t tasksOverlapping(const TimeInterval &interval) const;

    /** All task instances sorted by start time (ties by trace order). */
    const std::vector<const trace::TaskInstance *> &tasksByStart() const
    {
        return tasksByStart_;
    }

    /**
     * Index range [first, last) into tasksByStart() of the tasks whose
     * start lies inside @p interval.
     */
    std::pair<std::size_t, std::size_t>
    taskStartRange(const TimeInterval &interval) const;

  private:
    /**
     * One CPU's slot, guarded by its own lock. Shards share one rank
     * (kPyramidShard) because no code path holds two at once.
     */
    struct Shard
    {
        mutable base::Mutex mutex{base::lockrank::kPyramidShard,
                                  "pyramid-shard"};
        std::unique_ptr<SummaryPyramid> pyramid AM_GUARDED_BY(mutex);
    };

    const trace::Trace &trace_;
    TimeStamp g0_ = 1;
    std::uint64_t leafCount_ = 1;
    std::vector<Shard> shards_; ///< One per CPU; never resized.

    // Immutable after construction: trace-global task arrays.
    std::vector<TimeStamp> taskStarts_; ///< Sorted start times.
    std::vector<TimeStamp> taskEnds_;   ///< Sorted end times.
    std::vector<const trace::TaskInstance *> tasksByStart_;
    /** Start times of CPU c's tasks are cpuTaskStarts_[cpuTaskFirst_[c],
     *  cpuTaskFirst_[c + 1]), so a build reads only its own tasks. */
    std::vector<std::size_t> cpuTaskFirst_;
    std::vector<TimeStamp> cpuTaskStarts_;
};

} // namespace index
} // namespace aftermath

#endif // AFTERMATH_INDEX_SUMMARY_PYRAMID_H
