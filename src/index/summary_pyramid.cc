#include "index/summary_pyramid.h"

#include <algorithm>

#include "base/logging.h"

namespace aftermath {
namespace index {

namespace {

/** Slotwise combine; an empty aggregate is the identity. */
void
combineAggregate(SummaryPyramid::CounterAggregate &into,
                 const SummaryPyramid::CounterAggregate &from)
{
    if (from.count == 0)
        return;
    if (into.count == 0) {
        into = from;
        return;
    }
    into.min = std::min(into.min, from.min);
    into.max = std::max(into.max, from.max);
    // Wrapping add via unsigned arithmetic (signed overflow is UB).
    into.sum = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(into.sum) +
        static_cast<std::uint64_t>(from.sum));
    into.count += from.count;
}

} // namespace

SummaryPyramid::SummaryPyramid(const trace::Trace &trace, CpuId cpu,
                               TimeStamp leaf_granularity,
                               std::uint64_t leaf_count,
                               std::span<const TimeStamp> task_starts)
    : g0_(leaf_granularity), leafCount_(leaf_count)
{
    AFTERMATH_ASSERT(g0_ > 0 && leafCount_ > 0,
                     "pyramid with a degenerate leaf layout");
    const trace::CpuTimeline &tl = trace.cpu(cpu);
    counterIds_ = tl.counterIds();
    const TimeStamp domain_end = g0_ * leafCount_;

    levelStart_.push_back(0);
    for (std::uint64_t n = leafCount_;; n = (n + 1) / 2) {
        levelStart_.push_back(levelStart_.back() + n);
        if (n == 1)
            break;
    }
    const std::uint64_t nodes = levelStart_.back();

    // State occupancy. Zero-duration events have no occupancy; the
    // states of the others, sorted, define the slots.
    auto occupies = [domain_end](const trace::StateEvent &ev) {
        return ev.interval.end > ev.interval.start &&
               ev.interval.start < domain_end;
    };
    for (const trace::StateEvent &ev : tl.states())
        if (occupies(ev) && (states_.empty() || states_.back() != ev.state))
            states_.push_back(ev.state);
    std::sort(states_.begin(), states_.end());
    states_.erase(std::unique(states_.begin(), states_.end()),
                  states_.end());

    // Leaves: distribute each event's overlap across the leaves it
    // spans. Finalized states are sorted and non-overlapping, so an
    // event's first leaf is never before the previous event's last:
    // leaves fill in order, each summed in a per-slot accumulator and
    // emitted ascending by slot when the walk moves past it.
    occStart_.assign(nodes + 1, 0);
    std::vector<TimeStamp> acc(states_.size(), 0);
    std::vector<std::uint32_t> touched;
    std::uint64_t leaf = 0; // The leaf being accumulated.
    auto closeLeaf = [&] {
        std::sort(touched.begin(), touched.end());
        for (std::uint32_t slot : touched) {
            occ_.push_back({slot, acc[slot]});
            acc[slot] = 0;
        }
        touched.clear();
        occStart_[++leaf] = static_cast<std::uint32_t>(occ_.size());
    };
    for (const trace::StateEvent &ev : tl.states()) {
        if (!occupies(ev))
            continue;
        const auto slot = static_cast<std::uint32_t>(
            std::lower_bound(states_.begin(), states_.end(), ev.state) -
            states_.begin());
        std::uint64_t first = ev.interval.start / g0_;
        std::uint64_t last =
            std::min((ev.interval.end - 1) / g0_ + 1, leafCount_);
        AFTERMATH_ASSERT(first >= leaf,
                         "pyramid over unsorted state events");
        for (std::uint64_t l = first; l < last; l++) {
            while (leaf < l)
                closeLeaf();
            TimeInterval leaf_time{l * g0_, (l + 1) * g0_};
            if (acc[slot] == 0)
                touched.push_back(slot);
            acc[slot] += ev.interval.overlapDuration(leaf_time);
        }
    }
    while (leaf < leafCount_)
        closeLeaf();

    // Counter aggregates: one slot per sampled counter, samples
    // bucketed by time. Sample times never reach domain_end (the leaf
    // count strictly covers the span), but stay defensive.
    const std::size_t num_counters = counterIds_.size();
    counters_.assign(nodes * num_counters, CounterAggregate{});
    for (std::size_t slot = 0; slot < num_counters; slot++) {
        for (const trace::CounterSample &sample :
             tl.counterSamples(counterIds_[slot])) {
            std::uint64_t l = sample.time / g0_;
            if (l >= leafCount_)
                continue;
            CounterAggregate one;
            one.count = 1;
            one.min = sample.value;
            one.max = sample.value;
            one.sum = sample.value;
            combineAggregate(counters_[l * num_counters + slot], one);
        }
    }

    // Task-begin counts of this CPU's tasks.
    tasksStarted_.assign(nodes, 0);
    for (TimeStamp start : task_starts)
        if (start < domain_end)
            tasksStarted_[start / g0_]++;

    // Upper levels: node i of a level merges nodes 2i and 2i + 1 of the
    // level below; an odd last node is copied up alone.
    for (std::size_t level = 1; level + 1 < levelStart_.size(); level++) {
        const std::uint64_t below = levelStart_[level - 1];
        const std::uint64_t below_size = levelStart_[level] - below;
        for (std::uint64_t n = levelStart_[level];
             n < levelStart_[level + 1]; n++) {
            const std::uint64_t left = below + 2 * (n - levelStart_[level]);
            const bool pair = left + 1 < below + below_size;
            const std::uint64_t right = pair ? left + 1 : left;

            // Merge the children's slot-sorted entries, summing equal
            // slots (a lone child merges with an empty range).
            std::size_t i = occStart_[left];
            const std::size_t i_end = occStart_[left + 1];
            std::size_t j = pair ? occStart_[right] : occStart_[right + 1];
            const std::size_t j_end = occStart_[right + 1];
            while (i < i_end || j < j_end) {
                Occupancy next;
                if (j == j_end ||
                    (i < i_end && occ_[i].slot < occ_[j].slot)) {
                    next = occ_[i++];
                } else if (i == i_end || occ_[j].slot < occ_[i].slot) {
                    next = occ_[j++];
                } else {
                    next = {occ_[i].slot, occ_[i].time + occ_[j].time};
                    i++;
                    j++;
                }
                occ_.push_back(next);
            }
            occStart_[n + 1] = static_cast<std::uint32_t>(occ_.size());

            for (std::size_t c = 0; c < num_counters; c++) {
                counters_[n * num_counters + c] =
                    counters_[left * num_counters + c];
                if (pair)
                    combineAggregate(counters_[n * num_counters + c],
                                     counters_[right * num_counters + c]);
            }
            tasksStarted_[n] = tasksStarted_[left] +
                               (pair ? tasksStarted_[right] : 0);
        }
    }
    AFTERMATH_ASSERT(occ_.size() <= UINT32_MAX,
                     "pyramid occupancy overflows its offsets");
    occ_.shrink_to_fit();
}

template <typename Visit>
void
SummaryPyramid::decompose(std::uint64_t first, std::uint64_t last,
                          std::uint64_t &nodes_touched, Visit &&visit) const
{
    for (std::size_t level = 0;
         first < last && level + 1 < levelStart_.size(); level++) {
        const std::uint64_t base = levelStart_[level];
        if (first & 1) {
            visit(base + first);
            first++;
            nodes_touched++;
        }
        if (last & 1) {
            last--;
            visit(base + last);
            nodes_touched++;
        }
        first >>= 1;
        last >>= 1;
    }
}

void
SummaryPyramid::occupancy(std::uint64_t first_leaf, std::uint64_t last_leaf,
                          std::span<TimeStamp> into,
                          std::uint64_t &nodes_touched) const
{
    last_leaf = std::min(last_leaf, leafCount_);
    if (first_leaf >= last_leaf)
        return;
    AFTERMATH_ASSERT(into.size() >= states_.size(),
                     "occupancy buffer smaller than the state list");
    decompose(first_leaf, last_leaf, nodes_touched, [&](std::uint64_t n) {
        for (std::uint32_t i = occStart_[n]; i < occStart_[n + 1]; i++)
            into[occ_[i].slot] += occ_[i].time;
    });
}

std::span<const SummaryPyramid::Occupancy>
SummaryPyramid::leafOccupancy(std::uint64_t leaf) const
{
    AFTERMATH_ASSERT(leaf < leafCount_, "leaf outside the pyramid");
    return {occ_.data() + occStart_[leaf],
            occ_.data() + occStart_[leaf + 1]};
}

SummaryPyramid::CounterAggregate
SummaryPyramid::counterAggregate(CounterId counter,
                                 std::uint64_t first_leaf,
                                 std::uint64_t last_leaf,
                                 std::uint64_t &nodes_touched) const
{
    CounterAggregate out;
    auto it = std::lower_bound(counterIds_.begin(), counterIds_.end(),
                               counter);
    if (it == counterIds_.end() || *it != counter)
        return out;
    const std::size_t slot =
        static_cast<std::size_t>(it - counterIds_.begin());
    const std::size_t num_counters = counterIds_.size();
    last_leaf = std::min(last_leaf, leafCount_);
    if (first_leaf >= last_leaf)
        return out;
    decompose(first_leaf, last_leaf, nodes_touched, [&](std::uint64_t n) {
        combineAggregate(out, counters_[n * num_counters + slot]);
    });
    return out;
}

std::uint64_t
SummaryPyramid::tasksStarted(std::uint64_t first_leaf,
                             std::uint64_t last_leaf,
                             std::uint64_t &nodes_touched) const
{
    std::uint64_t out = 0;
    last_leaf = std::min(last_leaf, leafCount_);
    if (first_leaf >= last_leaf)
        return out;
    decompose(first_leaf, last_leaf, nodes_touched,
              [&](std::uint64_t n) { out += tasksStarted_[n]; });
    return out;
}

std::size_t
SummaryPyramid::memoryBytes() const
{
    return sizeof(*this) + counterIds_.size() * sizeof(CounterId) +
           states_.size() * sizeof(std::uint32_t) +
           levelStart_.size() * sizeof(std::uint64_t) +
           occStart_.size() * sizeof(std::uint32_t) +
           occ_.size() * sizeof(Occupancy) +
           counters_.size() * sizeof(CounterAggregate) +
           tasksStarted_.size() * sizeof(std::uint64_t);
}

TracePyramids::TracePyramids(const trace::Trace &trace)
    : trace_(trace), shards_(trace.numCpus())
{
    const TimeStamp span_end = trace.span().end;
    // Smallest power-of-two leaf strictly covering the span with at
    // most kTargetLeaves leaves; the extra leaf keeps the last event
    // strictly inside the domain even when the span divides evenly.
    g0_ = 1;
    while (span_end / g0_ + 1 > kTargetLeaves)
        g0_ <<= 1;
    leafCount_ = span_end / g0_ + 1;

    const std::vector<trace::TaskInstance> &instances =
        trace.taskInstances();
    tasksByStart_.reserve(instances.size());
    for (const trace::TaskInstance &task : instances)
        tasksByStart_.push_back(&task);
    std::stable_sort(tasksByStart_.begin(), tasksByStart_.end(),
                     [](const trace::TaskInstance *a,
                        const trace::TaskInstance *b) {
                         return a->interval.start < b->interval.start;
                     });
    taskStarts_.reserve(instances.size());
    taskEnds_.reserve(instances.size());
    for (const trace::TaskInstance *task : tasksByStart_)
        taskStarts_.push_back(task->interval.start);
    for (const trace::TaskInstance &task : instances)
        taskEnds_.push_back(task.interval.end);
    std::sort(taskEnds_.begin(), taskEnds_.end());

    // Task start times grouped by CPU (tasks on unknown CPUs dropped).
    cpuTaskFirst_.assign(shards_.size() + 1, 0);
    for (const trace::TaskInstance &task : instances)
        if (task.cpu < shards_.size())
            cpuTaskFirst_[task.cpu + 1]++;
    for (std::size_t c = 0; c < shards_.size(); c++)
        cpuTaskFirst_[c + 1] += cpuTaskFirst_[c];
    cpuTaskStarts_.resize(cpuTaskFirst_.back());
    std::vector<std::size_t> fill(cpuTaskFirst_.begin(),
                                  cpuTaskFirst_.end() - 1);
    for (const trace::TaskInstance &task : instances)
        if (task.cpu < shards_.size())
            cpuTaskStarts_[fill[task.cpu]++] = task.interval.start;
}

const SummaryPyramid &
TracePyramids::get(CpuId cpu, bool *built)
{
    const SummaryPyramid *pyramid = getOrNull(cpu, built);
    AFTERMATH_ASSERT(pyramid != nullptr,
                     "pyramid of an out-of-range cpu");
    return *pyramid;
}

const SummaryPyramid *
TracePyramids::getOrNull(CpuId cpu, bool *built)
{
    if (built)
        *built = false;
    if (cpu >= shards_.size())
        return nullptr;
    Shard &shard = shards_[cpu];
    base::MutexLock lock(shard.mutex);
    if (!shard.pyramid) {
        shard.pyramid = std::make_unique<SummaryPyramid>(
            trace_, cpu, g0_, leafCount_,
            std::span<const TimeStamp>(cpuTaskStarts_)
                .subspan(cpuTaskFirst_[cpu],
                         cpuTaskFirst_[cpu + 1] - cpuTaskFirst_[cpu]));
        if (built)
            *built = true;
    }
    return shard.pyramid.get();
}

std::size_t
TracePyramids::size() const
{
    std::size_t count = 0;
    for (const Shard &shard : shards_) {
        base::MutexLock lock(shard.mutex);
        if (shard.pyramid)
            count++;
    }
    return count;
}

TimeStamp
TracePyramids::granularityFor(const Resolution &resolution,
                              const TimeInterval &interval) const
{
    std::uint64_t budget = 0;
    switch (resolution.kind) {
    case Resolution::Kind::Exact:
        return 0;
    case Resolution::Kind::Budget:
        budget = resolution.maxErrorNs;
        break;
    case Resolution::Kind::Pixels:
        if (resolution.width == 0)
            return 0;
        budget = interval.duration() / resolution.width;
        break;
    }
    if (budget < g0_)
        return 0;
    // Largest power-of-two multiple of g0 within the budget, capped at
    // the domain (a coarser snap could not move an edge any further).
    TimeStamp g = g0_;
    while (g <= budget / 2 && g < domainEnd())
        g *= 2;
    return g;
}

TimeInterval
TracePyramids::snap(const TimeInterval &interval,
                    TimeStamp granularity) const
{
    const TimeStamp dom = domainEnd();
    TimeStamp start = interval.start >= dom
                          ? dom
                          : interval.start / granularity * granularity;
    TimeStamp end =
        interval.end >= dom
            ? dom
            : std::min((interval.end + granularity - 1) / granularity *
                           granularity,
                       dom);
    if (end < start)
        end = start;
    return {start, end};
}

std::pair<std::uint64_t, std::uint64_t>
TracePyramids::leafRange(const TimeInterval &interval) const
{
    return {interval.start / g0_,
            std::min(interval.end / g0_, leafCount_)};
}

std::uint64_t
TracePyramids::tasksStartedIn(const TimeInterval &interval) const
{
    auto lo = std::lower_bound(taskStarts_.begin(), taskStarts_.end(),
                               interval.start);
    auto hi = std::lower_bound(taskStarts_.begin(), taskStarts_.end(),
                               interval.end);
    return static_cast<std::uint64_t>(hi - lo);
}

std::uint64_t
TracePyramids::tasksOverlapping(const TimeInterval &interval) const
{
    // #{start < end} - #{end <= start}: exactly the tasks whose
    // interval overlaps [start, end), including the spanning tasks an
    // empty interval still intersects.
    auto started = std::lower_bound(taskStarts_.begin(),
                                    taskStarts_.end(), interval.end);
    auto finished = std::upper_bound(taskEnds_.begin(), taskEnds_.end(),
                                     interval.start);
    return static_cast<std::uint64_t>(started - taskStarts_.begin()) -
           static_cast<std::uint64_t>(finished - taskEnds_.begin());
}

std::pair<std::size_t, std::size_t>
TracePyramids::taskStartRange(const TimeInterval &interval) const
{
    auto lo = std::lower_bound(taskStarts_.begin(), taskStarts_.end(),
                               interval.start);
    auto hi = std::lower_bound(taskStarts_.begin(), taskStarts_.end(),
                               interval.end);
    return {static_cast<std::size_t>(lo - taskStarts_.begin()),
            static_cast<std::size_t>(hi - taskStarts_.begin())};
}

} // namespace index
} // namespace aftermath
