/**
 * @file
 * The executors of the asynchronous query plane: the Session::submit()
 * overloads and the two shapes every query runs in.
 *
 *  - A single-task query goes through submitTask(): one tracked pool
 *    task that marks the ticket running, cancels it if it went stale
 *    while queued, and otherwise runs the query's body. cancel() on a
 *    still-queued task dequeues it at once.
 *  - A fan-out query goes through submitFanOut(): a FanOutJob of
 *    independent units claimed through one atomic cursor by up to one
 *    drainer task per worker. FanOutJob is the one place the
 *    cancel/yield/merge contract lives: drainers poll staleness before
 *    every claim, background drainers hand their worker to queued
 *    interactive work at the same boundary, and the last drainer out
 *    cancels the ticket or builds the result from the per-unit partials
 *    in unit order. Results are therefore bit-identical at every worker
 *    count and across yields.
 *
 * Executors capture shared ownership of everything they read — the
 * trace, the sharded index cache, filter snapshots, the memos — and
 * never the Session itself, so sessions stay movable and destruction is
 * safe with queries in flight. No executor ever blocks on the pool, so
 * a 1-worker pool cannot deadlock.
 */

#include "session/query_engine.h"

#include <algorithm>

#include "filter/task_filter.h"
#include "index/summary_pyramid.h"
#include "session/renderer_pool.h"
#include "session/session.h"
#include "stats/anomaly.h"
#include "stats/histogram.h"
#include "trace/reader.h"

namespace aftermath {
namespace session {

// -- QueryEngine lifecycle -----------------------------------------------

QueryEngine::QueryEngine(unsigned workers)
    : defaultDomain_(std::make_shared<GenerationDomain>())
{
    setWorkers(workers);
}

QueryEngine::~QueryEngine()
{
    if (reaper_.joinable()) {
        {
            base::MutexLock lock(poolMutex_);
            stopReaper_ = true;
        }
        reaperCv_.notifyAll();
        reaper_.join();
    }
    // pool_ drains both queues and joins in its destructor; executors
    // never call back into the engine, so no lock is needed here.
}

void
QueryEngine::setWorkers(unsigned workers)
{
    unsigned effective =
        workers == 0 ? base::ThreadPool::defaultWorkers() : workers;
    base::MutexLock lock(poolMutex_);
    if (pool_ && effective != workers_)
        pool_.reset();
    workers_ = effective;
}

base::ThreadPool &
QueryEngine::ensurePoolLocked()
{
    if (!pool_) {
        pool_ = std::make_shared<base::ThreadPool>(workers_);
        // A parked reaper waits for the pool to exist again.
        reaperCv_.notifyAll();
    }
    return *pool_;
}

void
QueryEngine::withPool(const std::function<void(base::ThreadPool &)> &body)
{
    base::MutexLock lock(poolMutex_);
    body(ensurePoolLocked());
}

void
QueryEngine::drain()
{
    // Copy the handle and wait outside poolMutex_: holding the lock
    // across a full quiescence wait would turn drain() into a barrier
    // every concurrent submitter queues behind (and would deadlock
    // outright if a drained task ever needed the lock to finish).
    std::shared_ptr<base::ThreadPool> pool;
    {
        base::MutexLock lock(poolMutex_);
        pool = pool_;
    }
    // A parked pool has nothing queued or running: already drained.
    if (pool)
        pool->wait();
}

void
QueryEngine::setIdleTimeout(std::chrono::milliseconds timeout)
{
    {
        base::MutexLock lock(poolMutex_);
        idleTimeout_ = timeout;
        if (timeout.count() > 0 && !reaper_.joinable())
            reaper_ = std::thread([this] { reaperLoop(); });
    }
    reaperCv_.notifyAll();
}

void
QueryEngine::shutdown()
{
    base::MutexLock lock(poolMutex_);
    // Drains both queues (queued background work completes) and joins.
    pool_.reset();
}

unsigned
QueryEngine::liveWorkers() const
{
    base::MutexLock lock(poolMutex_);
    return pool_ ? pool_->numWorkers() : 0;
}

bool
QueryEngine::hasInteractiveWork() const
{
    base::MutexLock lock(poolMutex_);
    return pool_ && pool_->hasHighPriorityWork();
}

void
QueryEngine::reaperLoop()
{
    base::MutexLock lock(poolMutex_);
    for (;;) {
        if (stopReaper_)
            return;
        if (idleTimeout_.count() <= 0 || !pool_) {
            // Nothing to reap until a timeout is set and a pool lives.
            reaperCv_.wait(lock);
            continue;
        }
        std::chrono::steady_clock::duration idle = pool_->idleFor();
        if (idle >= idleTimeout_) {
            // Quiescent past the timeout: park-then-join. No task is
            // queued or running (that is what idle means), and every
            // submission path holds poolMutex_, so nothing races the
            // teardown. The next submission restarts the pool.
            pool_.reset();
            continue;
        }
        reaperCv_.waitFor(lock, idleTimeout_ - idle +
                                    std::chrono::milliseconds(1));
    }
}


namespace {

/** The pool scheduling class of one query priority. */
base::TaskPriority
toTaskPriority(QueryPriority priority)
{
    return priority == QueryPriority::Interactive
        ? base::TaskPriority::High
        : base::TaskPriority::Normal;
}

/** Which mutations of the driving domain make a query stale. */
enum class Staleness
{
    /** Every view, filter or trace mutation (view-dependent queries). */
    View,

    /** Filter and trace mutations only: panning never cancels. */
    Filter,

    /** None; explicit cancel only (products keyed by nothing mutable). */
    Immune,
};

/** Fresh ticket state snapshotting the domain counter of @p scope. */
template <typename Result>
std::shared_ptr<detail::TicketState<Result>>
newTicketState(const GenerationDomain &domain,
               Staleness scope = Staleness::View)
{
    auto state = std::make_shared<detail::TicketState<Result>>();
    if (scope == Staleness::Filter) {
        state->generation = domain.filterGeneration();
        state->live = domain.filterGenerationCell();
    } else {
        state->generation = domain.generation();
        if (scope == Staleness::View)
            state->live = domain.generationCell();
    }
    return state;
}

/** An already-Done ticket (memo fast path; never touches the pool). */
template <typename Result>
QueryTicket<Result>
completedTicket(const GenerationDomain &domain, Result value)
{
    auto state = newTicketState<Result>(domain);
    state->status = QueryStatus::Done;
    state->result.emplace(std::move(value));
    return QueryTicket<Result>(std::move(state));
}

/**
 * Run @p body as one tracked pool task. Once running and not yet stale,
 * body(state, pool) returns the result, or nullopt when it saw the
 * ticket go stale mid-way; @p pool is the executing pool. The tracked
 * handle lets cancel() dequeue a task that has not started.
 */
template <typename Result, typename Body>
QueryTicket<Result>
submitTask(QueryEngine &engine,
           std::shared_ptr<detail::TicketState<Result>> state,
           QueryPriority priority, Body body)
{
    base::TaskHandle handle;
    engine.withPool([&](base::ThreadPool &pool) {
        handle = pool.submitTracked(
            [state, body = std::move(body), executing = &pool] {
                state->markRunning();
                if (state->stale()) {
                    state->completeCancelled();
                    return;
                }
                std::optional<Result> result = body(*state, *executing);
                if (result)
                    state->complete(std::move(*result));
                else
                    state->completeCancelled();
            },
            toTaskPriority(priority));
    });
    {
        base::MutexLock lock(state->mutex);
        state->handle = handle;
    }
    return QueryTicket<Result>(std::move(state));
}

/**
 * One fan-out query: @c units independent units claimed by drainer
 * tasks through an atomic cursor. run(i) executes unit i, writing its
 * partial into storage indexed by i, and returns false to abandon the
 * job. finish() builds the result from the partials in unit order once
 * every unit ran, so the result never depends on which worker ran
 * which unit.
 */
template <typename Result>
struct FanOutJob
{
    std::shared_ptr<detail::TicketState<Result>> ticket;
    std::size_t units = 0;
    std::function<bool(std::size_t)> run;
    std::function<Result()> finish;

    /** The executing pool; valid for every drainer run (a drainer only
     *  runs on this pool, and the pool drains before it dies). */
    base::ThreadPool *pool = nullptr;

    /** Background jobs yield at unit boundaries; interactive never. */
    bool background = false;

    std::atomic<std::size_t> next{0};   ///< The claim cursor.
    std::atomic<std::size_t> active{0}; ///< Drainers still out.
    std::atomic<bool> abandoned{false};
};

/**
 * One drainer: claim units until none is left, the ticket went stale,
 * or a unit abandoned the job. When interactive work is queued, a
 * background drainer re-submits itself at Background priority and
 * frees its worker; the continuation keeps the drainer's slot in
 * @c active and resumes at the cursor, so the yield is invisible in
 * the result. The last drainer out (the acq_rel countdown orders every
 * unit's writes before it) cancels the ticket or completes it.
 */
template <typename Result>
void
drainFanOut(const std::shared_ptr<FanOutJob<Result>> &job)
{
    detail::TicketState<Result> &ticket = *job->ticket;
    ticket.markRunning();
    for (;;) {
        if (ticket.stale()) {
            job->abandoned.store(true, std::memory_order_relaxed);
            break;
        }
        if (job->background && job->pool->hasHighPriorityWork()) {
            job->pool->submit([job] { drainFanOut(job); },
                              base::TaskPriority::Normal);
            return;
        }
        std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job->units)
            break;
        if (!job->run(i)) {
            job->abandoned.store(true, std::memory_order_relaxed);
            break;
        }
    }
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    if (job->abandoned.load(std::memory_order_relaxed) || ticket.stale()) {
        ticket.completeCancelled();
        return;
    }
    ticket.complete(job->finish());
}

/**
 * Run @p units units of @p run as a FanOutJob with one drainer per
 * worker (at most one per unit). Zero units complete the ticket inline
 * with finish().
 */
template <typename Result>
QueryTicket<Result>
submitFanOut(QueryEngine &engine,
             std::shared_ptr<detail::TicketState<Result>> state,
             QueryPriority priority, std::size_t units,
             std::function<bool(std::size_t)> run,
             std::function<Result()> finish)
{
    if (units == 0) {
        state->complete(finish());
        return QueryTicket<Result>(std::move(state));
    }
    auto job = std::make_shared<FanOutJob<Result>>();
    job->ticket = state;
    job->units = units;
    job->run = std::move(run);
    job->finish = std::move(finish);
    job->background = priority == QueryPriority::Background;
    const std::size_t drainers = std::max<std::size_t>(
        1, std::min<std::size_t>(engine.workers(), units));
    job->active.store(drainers, std::memory_order_relaxed);
    engine.withPool([&](base::ThreadPool &pool) {
        job->pool = &pool;
        for (std::size_t d = 0; d < drainers; d++)
            pool.submit([job] { drainFanOut(job); },
                        toTaskPriority(priority));
    });
    return QueryTicket<Result>(std::move(state));
}

/**
 * The units of one exact interval-statistics scan, shared by the stats
 * query and warm-up: one unit per CPU's states, then the task array in
 * chunks. Every quantity is an exact integer sum, so merge() equals the
 * serial scan bit for bit at any worker count.
 */
struct StatsScan
{
    StatsScan(std::shared_ptr<const trace::Trace> scanned,
              TimeInterval scanned_interval, unsigned workers)
        : trace(std::move(scanned)), interval(scanned_interval)
    {
        const std::size_t instances = trace->taskInstances().size();
        std::size_t task_chunks = 0;
        if (instances > 0) {
            // Enough task chunks to load every worker a few times over,
            // but no micro-chunks: the claim cursor should stay noise.
            taskChunkSize = std::max<std::size_t>(
                4096, instances / (static_cast<std::size_t>(workers) * 4));
            task_chunks = (instances + taskChunkSize - 1) / taskChunkSize;
        }
        partials.resize(trace->numCpus() + task_chunks);
    }

    std::size_t units() const { return partials.size(); }

    /** Scan unit @p i into partials[i]. */
    void
    run(std::size_t i)
    {
        const std::size_t cpus = trace->numCpus();
        if (i < cpus) {
            partials[i] = stats::intervalStateChunk(
                trace->cpu(static_cast<CpuId>(i)), interval);
            return;
        }
        const auto &instances = trace->taskInstances();
        std::size_t begin = (i - cpus) * taskChunkSize;
        std::size_t end = std::min(instances.size(), begin + taskChunkSize);
        partials[i] = stats::intervalTaskChunk(
            instances.data() + begin, instances.data() + end, interval);
    }

    /** The partials merged in unit order. */
    stats::IntervalStats
    merge() const
    {
        stats::IntervalStats merged;
        merged.interval = interval;
        for (const stats::IntervalStats &partial : partials)
            merged.mergeFrom(partial);
        return merged;
    }

    std::shared_ptr<const trace::Trace> trace;
    TimeInterval interval;
    std::size_t taskChunkSize = 1;
    std::vector<stats::IntervalStats> partials;
};

/** Publish exact statistics into the memo under their interval. */
void
publishStats(StatsMemo &memo, const stats::IntervalStats &result)
{
    base::MutexLock lock(memo.mutex);
    memo.stats.insertOrGet(
        std::make_pair(result.interval.start, result.interval.end),
        stats::IntervalStats(result));
}

/**
 * Scan the trace's task instances against @p filters in insertion
 * order, polling @p state for staleness every few thousand instances.
 * Returns nullopt when the query went stale mid-scan.
 */
template <typename Result>
std::optional<std::vector<const trace::TaskInstance *>>
scanTaskList(const trace::Trace &trace, const filter::FilterSet &filters,
             const detail::TicketState<Result> &state)
{
    std::vector<const trace::TaskInstance *> out;
    const std::vector<trace::TaskInstance> &instances =
        trace.taskInstances();
    for (std::size_t i = 0; i < instances.size(); i++) {
        if ((i & 0xfff) == 0 && state.stale())
            return std::nullopt;
        if (filters.matches(trace, instances[i]))
            out.push_back(&instances[i]);
    }
    return out;
}

/**
 * Publish a freshly computed task list into the memo, unless the
 * filter generation moved on (a stale-keyed entry would outlive the
 * one-live-generation invariant of the cache).
 */
void
publishTaskList(SessionMemo &memo, std::uint64_t filter_generation,
                const std::vector<const trace::TaskInstance *> &list)
{
    base::MutexLock lock(memo.mutex);
    if (memo.filterGeneration != filter_generation)
        return;
    memo.taskList.insertOrGet(
        filter_generation,
        std::vector<const trace::TaskInstance *>(list));
}

} // namespace

// -- Session::submit overloads -------------------------------------------

QueryTicket<stats::IntervalStats>
Session::submit(const IntervalStatsQuery &query)
{
    TimeInterval interval = query.context.interval.value_or(view());
    const TimeStamp granularity =
        pyramids_->granularityFor(query.context.resolution, interval);
    if (granularity > 0) {
        // Pyramid path: snap the interval outward to the granularity
        // and answer the *snapped* interval exactly from O(log n)
        // nodes per CPU — one tracked task, no fan-out, and no memo
        // (the memo holds exact answers for requested intervals only).
        TimeInterval snapped = pyramids_->snap(interval, granularity);
        const bool exact = snapped.start == interval.start &&
                           snapped.end == interval.end;
        return submitTask(
            *engine_, newTicketState<stats::IntervalStats>(*domain_),
            query.context.priority,
            [trace = trace_, pyramids = pyramids_, snapped, granularity,
             exact](const auto &, base::ThreadPool &)
                -> std::optional<stats::IntervalStats> {
                stats::IntervalStats out;
                out.interval = snapped;
                std::uint64_t nodes = 0;
                auto range = pyramids->leafRange(snapped);
                std::vector<TimeStamp> by_slot;
                for (CpuId c = 0; c < trace->numCpus(); c++) {
                    const index::SummaryPyramid &p = pyramids->get(c);
                    by_slot.assign(p.states().size(), 0);
                    p.occupancy(range.first, range.second, by_slot, nodes);
                    for (std::size_t s = 0; s < by_slot.size(); s++)
                        if (by_slot[s] != 0)
                            out.timeInState[p.states()[s]] += by_slot[s];
                }
                out.tasksStarted = pyramids->tasksStartedIn(snapped);
                out.tasksOverlapping = pyramids->tasksOverlapping(snapped);
                out.resolution.exact = exact;
                out.resolution.nodesTouched = nodes;
                out.resolution.granularityNs = granularity;
                return out;
            });
    }
    {
        base::MutexLock lock(statsMemo_->mutex);
        if (const stats::IntervalStats *hit = statsMemo_->stats.tryGet(
                std::make_pair(interval.start, interval.end)))
            return completedTicket(*domain_, stats::IntervalStats(*hit));
    }
    auto scan =
        std::make_shared<StatsScan>(trace_, interval, engine_->workers());
    return submitFanOut<stats::IntervalStats>(
        *engine_, newTicketState<stats::IntervalStats>(*domain_),
        query.context.priority, scan->units(),
        [scan](std::size_t i) {
            scan->run(i);
            return true;
        },
        [scan, memo = statsMemo_] {
            stats::IntervalStats merged = scan->merge();
            publishStats(*memo, merged);
            return merged;
        });
}

QueryTicket<std::vector<const trace::TaskInstance *>>
Session::submit(const TaskListQuery &query)
{
    using List = std::vector<const trace::TaskInstance *>;
    std::uint64_t generation;
    {
        base::MutexLock lock(memo_->mutex);
        generation = memo_->filterGeneration;
        if (const List *hit = memo_->taskList.tryGet(generation))
            return completedTicket(*domain_, List(*hit));
    }
    // The task list is view-independent: staleness tracks the filter
    // generation, so panning the view never cancels it.
    return submitTask(
        *engine_, newTicketState<List>(*domain_, Staleness::Filter),
        query.context.priority,
        [trace = trace_, memo = memo_,
         filters = std::make_shared<const filter::FilterSet>(filters_),
         generation](const auto &state, base::ThreadPool &) {
            auto list = scanTaskList(*trace, *filters, state);
            if (list)
                publishTaskList(*memo, generation, *list);
            return list;
        });
}

QueryTicket<stats::Histogram>
Session::submit(const HistogramQuery &query)
{
    using List = std::vector<const trace::TaskInstance *>;
    // Like the task list it is built from, the histogram is
    // view-independent: staleness tracks the filter generation only.
    auto state = newTicketState<stats::Histogram>(*domain_,
                                                  Staleness::Filter);
    auto filters = std::make_shared<const filter::FilterSet>(filters_);
    std::uint32_t num_bins = query.numBins;
    if (query.context.interval) {
        const TimeStamp granularity = pyramids_->granularityFor(
            query.context.resolution, *query.context.interval);
        if (granularity > 0) {
            // Pyramid path: snap the interval and select the tasks
            // starting inside it by binary search on the start-sorted
            // task array — O(log n + matches) instead of a full list
            // scan. Bin counts are order-independent, so the result
            // equals the exact path's histogram of the snapped
            // interval bit for bit.
            TimeInterval snapped =
                pyramids_->snap(*query.context.interval, granularity);
            const bool exact =
                snapped.start == query.context.interval->start &&
                snapped.end == query.context.interval->end;
            return submitTask(
                *engine_, std::move(state), query.context.priority,
                [trace = trace_, pyramids = pyramids_, filters, snapped,
                 granularity, exact, num_bins](const auto &state,
                                               base::ThreadPool &)
                    -> std::optional<stats::Histogram> {
                    auto range = pyramids->taskStartRange(snapped);
                    const List &by_start = pyramids->tasksByStart();
                    std::vector<double> durations;
                    durations.reserve(range.second - range.first);
                    for (std::size_t i = range.first; i < range.second;
                         i++) {
                        const trace::TaskInstance *task = by_start[i];
                        if (filters->matches(*trace, *task))
                            durations.push_back(
                                static_cast<double>(task->duration()));
                    }
                    if (state.stale())
                        return std::nullopt;
                    stats::Histogram h =
                        stats::Histogram::fromValues(durations, num_bins);
                    h.resolution.exact = exact;
                    h.resolution.granularityNs = granularity;
                    return h;
                });
        }
    }
    std::uint64_t generation;
    std::shared_ptr<const List> cached;
    {
        base::MutexLock lock(memo_->mutex);
        generation = memo_->filterGeneration;
        if (const List *hit = memo_->taskList.tryGet(generation))
            cached = std::make_shared<const List>(*hit);
    }
    return submitTask(
        *engine_, std::move(state), query.context.priority,
        [trace = trace_, memo = memo_, filters, cached, generation,
         num_bins, restrict_to = query.context.interval](
            const auto &state,
            base::ThreadPool &) -> std::optional<stats::Histogram> {
            const List *tasks = cached.get();
            List computed;
            if (!tasks) {
                auto list = scanTaskList(*trace, *filters, state);
                if (!list)
                    return std::nullopt;
                computed = std::move(*list);
                // The scan is the expensive half; share it with later
                // tasks()/histogram() calls of the same generation (the
                // published list is unrestricted; the interval only
                // narrows the binned values).
                publishTaskList(*memo, generation, computed);
                tasks = &computed;
            }
            std::vector<double> durations;
            durations.reserve(tasks->size());
            for (const trace::TaskInstance *task : *tasks) {
                if (restrict_to &&
                    !restrict_to->contains(task->interval.start))
                    continue;
                durations.push_back(static_cast<double>(task->duration()));
            }
            if (state.stale())
                return std::nullopt;
            return stats::Histogram::fromValues(durations, num_bins);
        });
}

QueryTicket<index::MinMax>
Session::submit(const CounterExtremaQuery &query)
{
    auto state = newTicketState<index::MinMax>(*domain_);
    TimeInterval interval = query.context.interval.value_or(view());
    const TimeStamp granularity =
        pyramids_->granularityFor(query.context.resolution, interval);
    CpuId cpu = query.cpu;
    CounterId counter = query.counter;
    if (granularity > 0) {
        // Pyramid path: the extrema of the snapped interval from the
        // per-node counter aggregates — O(log n) nodes instead of the
        // index's per-sample range scan. An out-of-range CPU yields
        // the same invalid MinMax a counter with no samples does.
        TimeInterval snapped = pyramids_->snap(interval, granularity);
        return submitTask(
            *engine_, std::move(state), query.context.priority,
            [pyramids = pyramids_, cpu, counter, snapped](
                const auto &,
                base::ThreadPool &) -> std::optional<index::MinMax> {
                index::MinMax out;
                if (const index::SummaryPyramid *p =
                        pyramids->getOrNull(cpu)) {
                    std::uint64_t nodes = 0;
                    auto range = pyramids->leafRange(snapped);
                    index::SummaryPyramid::CounterAggregate agg =
                        p->counterAggregate(counter, range.first,
                                            range.second, nodes);
                    if (agg.count > 0) {
                        out.valid = true;
                        out.min = agg.min;
                        out.max = agg.max;
                    }
                }
                return out;
            });
    }
    return submitTask(
        *engine_, std::move(state), query.context.priority,
        [cache = counterIndexes_, cpu, counter, interval](
            const auto &,
            base::ThreadPool &) -> std::optional<index::MinMax> {
            return cache->query(cpu, counter, interval);
        });
}

QueryTicket<Session::WarmupStats>
Session::submit(const WarmupQuery &query)
{
    // The units, in order: the not-yet-warmed (cpu, counter) index
    // builds, the stats scan of the view (if not memoized), and the
    // task list (if not memoized).
    struct Warmup
    {
        std::vector<std::pair<CpuId, CounterId>> pairs;
        std::optional<StatsScan> scan;
        bool taskList = false;
        std::uint64_t filterGeneration = 0;
        WarmupStats result;
        std::atomic<std::size_t> built{0}; ///< Indexes this job built.
    };
    auto work = std::make_shared<Warmup>();
    work->result.workers = engine_->workers();

    const WarmupPolicy &policy = query.policy;
    const TimeInterval view_interval = view();
    std::size_t skipped = 0;
    // The two memos lock sequentially (never nested): warmed pairs and
    // the stats memo live in the shared StatsMemo, the filter
    // generation and task list in the per-context SessionMemo.
    {
        base::MutexLock lock(statsMemo_->mutex);
        if (policy.counterIndexes) {
            for (CpuId c = 0; c < trace_->numCpus(); c++) {
                for (CounterId id : trace_->cpu(c).counterIds()) {
                    if (!policy.counters.empty() &&
                        std::find(policy.counters.begin(),
                                  policy.counters.end(),
                                  id) == policy.counters.end())
                        continue;
                    if (statsMemo_->warmedPairs.count({c, id})) {
                        skipped++;
                        continue;
                    }
                    work->pairs.emplace_back(c, id);
                }
            }
        }
        // Already-memoized stats / task-list entries need no unit; the
        // lookups count hits, keeping warm-up observable like the old
        // eager revisit did.
        if (policy.intervalStats &&
            statsMemo_->stats.tryGet(std::make_pair(
                view_interval.start, view_interval.end)) == nullptr)
            work->scan.emplace(trace_, view_interval,
                                work->result.workers);
    }
    {
        base::MutexLock lock(memo_->mutex);
        work->filterGeneration = memo_->filterGeneration;
        if (policy.taskList)
            work->taskList =
                memo_->taskList.tryGet(work->filterGeneration) == nullptr;
    }
    work->result.indexesVisited = work->pairs.size();
    work->result.indexesSkipped = skipped;

    // Warm-up products are view-independent (indexes) or keyed by
    // interval / filter generation, so generation bumps don't invalidate
    // them: warm-up cancels only explicitly.
    auto state = newTicketState<WarmupStats>(*domain_, Staleness::Immune);
    const std::size_t stats_units = work->scan ? work->scan->units() : 0;
    return submitFanOut<WarmupStats>(
        *engine_, state, query.context.priority,
        work->pairs.size() + stats_units + (work->taskList ? 1 : 0),
        [work, state, trace = trace_, cache = counterIndexes_,
         memo = memo_,
         filters = std::make_shared<const filter::FilterSet>(filters_)](
            std::size_t i) {
            if (i < work->pairs.size()) {
                bool constructed = false;
                cache->get(work->pairs[i].first, work->pairs[i].second,
                           &constructed);
                // Per-call attribution: concurrent non-warm-up queries
                // building indexes never inflate this job's count.
                if (constructed)
                    work->built.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
            i -= work->pairs.size();
            if (work->scan && i < work->scan->units()) {
                work->scan->run(i);
                return true;
            }
            auto list = scanTaskList(*trace, *filters, *state);
            if (list)
                publishTaskList(*memo, work->filterGeneration, *list);
            return list.has_value();
        },
        // Runs only when every unit did: a cancelled warm-up leaves the
        // indexes it built cached (they answer lazily) but records
        // nothing as warmed, so the next warm-up revisits cheaply.
        [work, stats_memo = statsMemo_] {
            if (work->scan)
                publishStats(*stats_memo, work->scan->merge());
            base::MutexLock lock(stats_memo->mutex);
            stats_memo->warmedPairs.insert(work->pairs.begin(),
                                           work->pairs.end());
            WarmupStats out = work->result;
            out.indexesBuilt = work->built.load(std::memory_order_relaxed);
            return out;
        });
}

QueryTicket<PyramidBuildStats>
Session::submit(const PyramidBuildQuery &query)
{
    // Every CPU is one unit. TracePyramids::get() builds under the
    // CPU's shard lock, so builds of different CPUs never contend, and
    // a pyramid a concurrent resolution-bearing query already built is
    // attributed to that query (@p constructed is decided under the
    // lock). Pyramids are trace-keyed, never view- or filter-keyed:
    // explicit cancel only, and pyramids built before a cancel stay
    // cached for the next build to skip.
    PyramidBuildStats result;
    result.cpusVisited = trace_->numCpus();
    result.workers = engine_->workers();
    auto built = std::make_shared<std::atomic<std::size_t>>(0);
    return submitFanOut<PyramidBuildStats>(
        *engine_, newTicketState<PyramidBuildStats>(*domain_,
                                                    Staleness::Immune),
        query.context.priority, trace_->numCpus(),
        [pyramids = pyramids_, built](std::size_t i) {
            bool constructed = false;
            pyramids->get(static_cast<CpuId>(i), &constructed);
            if (constructed)
                built->fetch_add(1, std::memory_order_relaxed);
            return true;
        },
        [result, built] {
            PyramidBuildStats out = result;
            out.cpusBuilt = built->load(std::memory_order_relaxed);
            return out;
        });
}

QueryTicket<TraceLoadResult>
Session::submit(const TraceLoadQuery &query)
{
    AFTERMATH_ASSERT(query.bytes != nullptr || !query.path.empty(),
                     "trace load query needs a source");
    // A load's product is handed back to the driving thread, never
    // published into shared caches, so view/filter/trace mutations
    // cannot make it stale: generation-immune, explicit cancel only.
    auto state = newTicketState<TraceLoadResult>(*domain_,
                                                 Staleness::Immune);
    trace::ReadOptions options;
    // Bridge ticket.cancel() into the reader's cooperative poll (the
    // token copies share one flag).
    options.cancel = state->cancel;
    const bool background =
        query.context.priority == QueryPriority::Background;
    return submitTask(
        *engine_, std::move(state), query.context.priority,
        [bytes = query.bytes, path = query.path, options, background](
            const auto &,
            base::ThreadPool &pool) -> std::optional<TraceLoadResult> {
            // Lane decode and finalize run as units on the engine's
            // pool. A background load's serial frame scan can occupy a
            // worker for the whole file; drain queued interactive tasks
            // at the reader's poll boundaries so even a 1-worker engine
            // stays responsive. An interactive load is such a task.
            trace::ReadOptions read_options = options;
            read_options.pool = &pool;
            if (background)
                read_options.yield = [&pool] {
                    while (pool.hasHighPriorityWork() &&
                           pool.runOneHighPriorityTask()) {
                    }
                };
            trace::ReadResult read =
                bytes ? trace::readTrace(*bytes, read_options)
                      : trace::readTraceFile(path, read_options);
            if (read.cancelled)
                return std::nullopt;
            TraceLoadResult result;
            result.ok = read.ok;
            result.error = std::move(read.error);
            result.encoding = read.encoding;
            result.bytesRead = read.bytesRead;
            if (read.ok)
                result.trace = std::make_shared<const trace::Trace>(
                    std::move(read.trace));
            return result;
        });
}

QueryTicket<TimelineRenderResult>
Session::submit(const TimelineRenderQuery &query)
{
    AFTERMATH_ASSERT(query.width > 0 && query.height > 0,
                     "render query needs positive dimensions");
    // Snapshot the session's filters on the heap: the async render must
    // not point into the (mutable) session object.
    std::shared_ptr<const filter::FilterSet> filters;
    render::TimelineConfig config = query.config;
    if (!config.taskFilter && filters_.size() > 0) {
        filters = std::make_shared<const filter::FilterSet>(filters_);
        config.taskFilter = filters.get();
    }
    if (config.view.empty() && !view_.empty())
        config.view = view_;
    // A non-Exact context.resolution overrides the config's own knob,
    // so async and remote callers can request pyramid-backed rendering
    // without touching the render config.
    if (query.context.resolution.kind != Resolution::Kind::Exact)
        config.resolution = query.context.resolution;
    config.pyramids = pyramids_.get();
    return submitTask(
        *engine_, newTicketState<TimelineRenderResult>(*domain_),
        query.context.priority,
        [trace = trace_, renderers = rendererPool_, filters,
         pyramids = pyramids_, config, width = query.width,
         height = query.height](const auto &, base::ThreadPool &)
            -> std::optional<TimelineRenderResult> {
            TimelineRenderResult result;
            result.fb = render::Framebuffer(width, height);
            // Check a pooled renderer out instead of constructing:
            // repeated async renders reuse the palette and memo caches
            // a fresh renderer would rebuild per query.
            RendererPool::Lease lease = renderers->checkout(trace);
            lease->render(config, result.fb);
            result.stats = lease->stats();
            return result;
        });
}

QueryTicket<std::vector<stats::Anomaly>>
Session::submit(const AnomalyScanQuery &query)
{
    using Anomalies = std::vector<stats::Anomaly>;
    TimeInterval interval = query.context.interval.value_or(view());
    if (interval.empty() || query.options.numIntervals == 0)
        return completedTicket(*domain_, Anomalies());
    // The detector chunks of stats::anomalyScanChunks() — per-CPU idle,
    // per-task-type outlier, per-(cpu, counter) burst — merged in chunk
    // order by stats::mergeAnomalyChunks(), so the ranked list equals
    // the serial scanner's at any worker count.
    struct Scan
    {
        std::shared_ptr<const trace::Trace> trace;
        filter::FilterSet filters;
        stats::AnomalyScanOptions options;
        TimeInterval interval;
        std::vector<stats::AnomalyScanChunk> chunks;
        std::vector<stats::AnomalyChunkResult> partials;
    };
    auto scan = std::make_shared<Scan>(
        Scan{trace_, filters_, query.options, interval,
             stats::anomalyScanChunks(*trace_), {}});
    if (scan->chunks.empty())
        return completedTicket(*domain_, Anomalies());
    scan->partials.resize(scan->chunks.size());
    // View-dependent: a view, filter or trace mutation makes a queued or
    // running scan stale — the findings describe a window the user just
    // left.
    return submitFanOut<Anomalies>(
        *engine_, newTicketState<Anomalies>(*domain_),
        query.context.priority, scan->chunks.size(),
        [scan](std::size_t i) {
            scan->partials[i] =
                stats::runAnomalyChunk(*scan->trace, scan->chunks[i],
                                       scan->options, scan->interval,
                                       &scan->filters);
            return true;
        },
        [scan] {
            return stats::mergeAnomalyChunks(
                *scan->trace, scan->chunks, std::move(scan->partials),
                scan->options, scan->interval);
        });
}

} // namespace session
} // namespace aftermath
