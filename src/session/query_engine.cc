/**
 * @file
 * The executors of the asynchronous query plane: Session::submit()
 * overloads and the worker-side code they fan out.
 *
 * Executors capture shared ownership of everything they read — the
 * trace, the sharded index cache, filter snapshots, the SessionMemo —
 * and never the Session itself, so sessions stay movable and
 * destruction is safe with queries in flight. No executor ever blocks
 * on the pool (fan-out queries decompose into independent chunk tasks
 * joined by an atomic countdown), so a 1-worker pool cannot deadlock.
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

/** Fresh ticket state snapshotting the driving domain's generation. */
template <typename Result>
std::shared_ptr<detail::TicketState<Result>>
newTicketState(const GenerationDomain &domain)
{
    auto state = std::make_shared<detail::TicketState<Result>>();
    state->generation = domain.generation();
    state->live = domain.generationCell();
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

// -- Interval statistics (parallel fan-out) ------------------------------

/**
 * One cold interval-statistics scan decomposed into per-CPU state
 * chunks plus task-array chunks. Drainer tasks claim chunks through an
 * atomic cursor; the last drainer out merges the partials in chunk
 * order and completes (or cancels) the ticket. All sums are exact
 * integers, so the merged result is bit-identical to the serial scan
 * at any worker count.
 */
struct StatsJob
{
    std::shared_ptr<detail::TicketState<stats::IntervalStats>> ticket;
    std::shared_ptr<const trace::Trace> trace;
    std::shared_ptr<StatsMemo> memo;
    TimeInterval interval;
    std::size_t cpuChunks = 0;
    std::size_t taskChunks = 0;
    std::size_t taskChunkSize = 1;
    std::vector<stats::IntervalStats> partials;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> active{0};
    std::atomic<bool> abandoned{false};

    /** The executing pool; valid for every drainer run (a drainer only
     *  runs on this pool, and the pool drains before it dies). */
    base::ThreadPool *pool = nullptr;

    /** Background jobs yield at chunk boundaries; interactive never. */
    bool background = false;
};

void drainStats(const std::shared_ptr<StatsJob> &job);

/**
 * The cooperative yield of one background drainer: when interactive
 * work is queued, re-submit the continuation at Background priority
 * and free this worker for the High task. The claim cursor makes the
 * hand-off invisible — the continuation resumes exactly where the job
 * left off, so results stay bit-identical to an uninterrupted run.
 * Returns true when the caller must return *without* touching the
 * job's active count (the continuation still owns its slot).
 */
template <typename Job>
bool
yieldForInteractive(const std::shared_ptr<Job> &job,
                    void (*drain)(const std::shared_ptr<Job> &))
{
    if (!job->background || !job->pool->hasHighPriorityWork())
        return false;
    job->pool->submit([job, drain] { drain(job); },
                      base::TaskPriority::Normal);
    return true;
}

void
drainStats(const std::shared_ptr<StatsJob> &job)
{
    job->ticket->markRunning();
    const std::size_t total = job->cpuChunks + job->taskChunks;
    for (;;) {
        if (job->ticket->stale()) {
            job->abandoned.store(true, std::memory_order_relaxed);
            break;
        }
        if (yieldForInteractive(job, drainStats))
            return;
        std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total)
            break;
        if (i < job->cpuChunks) {
            job->partials[i] = stats::intervalStateChunk(
                job->trace->cpu(static_cast<CpuId>(i)), job->interval);
        } else {
            const auto &instances = job->trace->taskInstances();
            std::size_t begin = (i - job->cpuChunks) * job->taskChunkSize;
            std::size_t end =
                std::min(instances.size(), begin + job->taskChunkSize);
            job->partials[i] = stats::intervalTaskChunk(
                instances.data() + begin, instances.data() + end,
                job->interval);
        }
    }
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    // Last drainer out: merge, publish, complete.
    if (job->abandoned.load(std::memory_order_relaxed) ||
        job->ticket->stale()) {
        job->ticket->completeCancelled();
        return;
    }
    stats::IntervalStats merged;
    merged.interval = job->interval;
    for (const stats::IntervalStats &partial : job->partials)
        merged.mergeFrom(partial);
    {
        base::MutexLock lock(job->memo->mutex);
        job->memo->stats.insertOrGet(
            std::make_pair(job->interval.start, job->interval.end),
            stats::IntervalStats(merged));
    }
    job->ticket->complete(std::move(merged));
}

// -- Warm-up (parallel fan-out, generation-immune) -----------------------

/**
 * One incremental warm-up: the not-yet-warmed (cpu, counter) pairs as
 * independent index-build units, plus optional interval-statistics and
 * task-list units. Unit claiming and completion mirror StatsJob.
 */
struct WarmupJob
{
    std::shared_ptr<detail::TicketState<WarmupStats>> ticket;
    std::shared_ptr<const trace::Trace> trace;
    std::shared_ptr<CounterIndexCache> cache;
    std::shared_ptr<StatsMemo> statsMemo;
    std::shared_ptr<SessionMemo> memo;
    std::shared_ptr<const filter::FilterSet> filters;
    std::vector<std::pair<CpuId, CounterId>> pairs;
    bool doStats = false;
    bool doTaskList = false;
    TimeInterval statsInterval;
    std::uint64_t filterGeneration = 0;
    WarmupStats stats;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> active{0};
    std::atomic<std::size_t> built{0}; ///< Indexes this job constructed.
    std::atomic<bool> abandoned{false};

    /** See StatsJob::pool / StatsJob::background. */
    base::ThreadPool *pool = nullptr;
    bool background = false;
};

void
drainWarmup(const std::shared_ptr<WarmupJob> &job)
{
    job->ticket->markRunning();
    const std::size_t pair_units = job->pairs.size();
    const std::size_t stats_unit = pair_units;
    const std::size_t list_unit = pair_units + (job->doStats ? 1 : 0);
    const std::size_t total = list_unit + (job->doTaskList ? 1 : 0);
    for (;;) {
        if (job->ticket->stale()) {
            job->abandoned.store(true, std::memory_order_relaxed);
            break;
        }
        if (yieldForInteractive(job, drainWarmup))
            return;
        std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total)
            break;
        if (i < pair_units) {
            bool constructed = false;
            job->cache->get(job->pairs[i].first, job->pairs[i].second,
                            &constructed);
            // Per-call attribution: concurrent non-warm-up queries
            // building indexes never inflate this job's count.
            if (constructed)
                job->built.fetch_add(1, std::memory_order_relaxed);
        } else if (job->doStats && i == stats_unit) {
            // One serial scan (warm-up is already off the interactive
            // path; the pairs dominate the work).
            stats::IntervalStats merged;
            merged.interval = job->statsInterval;
            for (CpuId c = 0; c < job->trace->numCpus(); c++)
                merged.mergeFrom(stats::intervalStateChunk(
                    job->trace->cpu(c), job->statsInterval));
            const auto &instances = job->trace->taskInstances();
            merged.mergeFrom(stats::intervalTaskChunk(
                instances.data(), instances.data() + instances.size(),
                job->statsInterval));
            base::MutexLock lock(job->statsMemo->mutex);
            job->statsMemo->stats.insertOrGet(
                std::make_pair(job->statsInterval.start,
                               job->statsInterval.end),
                std::move(merged));
        } else {
            auto list =
                scanTaskList(*job->trace, *job->filters, *job->ticket);
            if (!list) {
                job->abandoned.store(true, std::memory_order_relaxed);
                break;
            }
            publishTaskList(*job->memo, job->filterGeneration, *list);
        }
    }
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    if (job->abandoned.load(std::memory_order_relaxed) ||
        job->ticket->stale()) {
        // Cancelled mid-way: indexes already built stay cached (they
        // answer lazily), but nothing is recorded as warmed, so the
        // next warm-up revisits cheaply.
        job->ticket->completeCancelled();
        return;
    }
    WarmupStats stats = job->stats;
    stats.indexesBuilt = job->built.load(std::memory_order_relaxed);
    {
        base::MutexLock lock(job->statsMemo->mutex);
        job->statsMemo->warmedPairs.insert(job->pairs.begin(),
                                           job->pairs.end());
    }
    job->ticket->complete(stats);
}

// -- Anomaly scan (parallel fan-out) -------------------------------------

/**
 * One anomaly scan decomposed into the detector chunks of
 * stats::anomalyScanChunks(): per-CPU idle chunks, per-task-type
 * outlier chunks, per-(cpu, counter) burst chunks. Claiming, yielding
 * and completion mirror StatsJob; the last drainer merges the partials
 * in chunk order through stats::mergeAnomalyChunks(), so the ranked
 * list is bit-identical to the serial scanner at any worker count.
 */
struct AnomalyScanJob
{
    std::shared_ptr<detail::TicketState<std::vector<stats::Anomaly>>>
        ticket;
    std::shared_ptr<const trace::Trace> trace;
    std::shared_ptr<const filter::FilterSet> filters;
    stats::AnomalyScanOptions options;
    TimeInterval interval;
    std::vector<stats::AnomalyScanChunk> chunks;
    std::vector<stats::AnomalyChunkResult> partials;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> active{0};
    std::atomic<bool> abandoned{false};

    /** See StatsJob::pool / StatsJob::background. */
    base::ThreadPool *pool = nullptr;
    bool background = false;
};

void
drainAnomalies(const std::shared_ptr<AnomalyScanJob> &job)
{
    job->ticket->markRunning();
    const std::size_t total = job->chunks.size();
    for (;;) {
        if (job->ticket->stale()) {
            job->abandoned.store(true, std::memory_order_relaxed);
            break;
        }
        if (yieldForInteractive(job, drainAnomalies))
            return;
        std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total)
            break;
        job->partials[i] = stats::runAnomalyChunk(
            *job->trace, job->chunks[i], job->options, job->interval,
            job->filters.get());
    }
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    if (job->abandoned.load(std::memory_order_relaxed) ||
        job->ticket->stale()) {
        job->ticket->completeCancelled();
        return;
    }
    job->ticket->complete(stats::mergeAnomalyChunks(
        *job->trace, job->chunks, std::move(job->partials), job->options,
        job->interval));
}

// -- Pyramid build (parallel fan-out, generation-immune) -----------------

/**
 * One pyramid build: every CPU as an independent build unit, claimed
 * through the usual atomic cursor. A unit calls TracePyramids::get(),
 * which builds under the CPU's shard lock — builds for different CPUs
 * never contend, and a CPU whose pyramid a concurrent resolution-
 * bearing query already built is attributed to that query, not this
 * job (the @p built out-parameter is decided under the shard lock).
 */
struct PyramidJob
{
    std::shared_ptr<detail::TicketState<PyramidBuildStats>> ticket;
    std::shared_ptr<const trace::Trace> trace;
    std::shared_ptr<index::TracePyramids> pyramids;
    PyramidBuildStats stats;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> active{0};
    std::atomic<std::size_t> built{0}; ///< Pyramids this job constructed.
    std::atomic<bool> abandoned{false};

    /** See StatsJob::pool / StatsJob::background. */
    base::ThreadPool *pool = nullptr;
    bool background = false;
};

void
drainPyramids(const std::shared_ptr<PyramidJob> &job)
{
    job->ticket->markRunning();
    const std::size_t total = job->trace->numCpus();
    for (;;) {
        if (job->ticket->stale()) {
            job->abandoned.store(true, std::memory_order_relaxed);
            break;
        }
        if (yieldForInteractive(job, drainPyramids))
            return;
        std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total)
            break;
        bool constructed = false;
        job->pyramids->get(static_cast<CpuId>(i), &constructed);
        if (constructed)
            job->built.fetch_add(1, std::memory_order_relaxed);
    }
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    if (job->abandoned.load(std::memory_order_relaxed) ||
        job->ticket->stale()) {
        // Pyramids already built stay cached (queries answer from them
        // lazily); the next build revisits the remaining CPUs cheaply.
        job->ticket->completeCancelled();
        return;
    }
    PyramidBuildStats stats = job->stats;
    stats.cpusBuilt = job->built.load(std::memory_order_relaxed);
    job->ticket->complete(stats);
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
        auto state = newTicketState<stats::IntervalStats>(*domain_);
        auto trace = trace_;
        auto pyramids = pyramids_;
        base::TaskHandle handle;
        engine_->withPool([&](base::ThreadPool &pool) {
            handle = pool.submitTracked(
                [state, trace, pyramids, snapped, granularity, exact] {
                    state->markRunning();
                    if (state->stale()) {
                        state->completeCancelled();
                        return;
                    }
                    stats::IntervalStats out;
                    out.interval = snapped;
                    std::uint64_t nodes = 0;
                    auto range = pyramids->leafRange(snapped);
                    std::vector<TimeStamp> by_slot;
                    for (CpuId c = 0; c < trace->numCpus(); c++) {
                        const index::SummaryPyramid &p = pyramids->get(c);
                        by_slot.assign(p.states().size(), 0);
                        p.occupancy(range.first, range.second, by_slot,
                                    nodes);
                        for (std::size_t s = 0; s < by_slot.size(); s++)
                            if (by_slot[s] != 0)
                                out.timeInState[p.states()[s]] +=
                                    by_slot[s];
                    }
                    out.tasksStarted = pyramids->tasksStartedIn(snapped);
                    out.tasksOverlapping =
                        pyramids->tasksOverlapping(snapped);
                    out.resolution.exact = exact;
                    out.resolution.nodesTouched = nodes;
                    out.resolution.granularityNs = granularity;
                    state->complete(std::move(out));
                },
                toTaskPriority(query.context.priority));
        });
        {
            base::MutexLock lock(state->mutex);
            state->handle = handle;
        }
        return QueryTicket<stats::IntervalStats>(std::move(state));
    }
    {
        base::MutexLock lock(statsMemo_->mutex);
        if (const stats::IntervalStats *hit = statsMemo_->stats.tryGet(
                std::make_pair(interval.start, interval.end)))
            return completedTicket(*domain_, stats::IntervalStats(*hit));
    }
    auto state = newTicketState<stats::IntervalStats>(*domain_);
    auto job = std::make_shared<StatsJob>();
    job->ticket = state;
    job->trace = trace_;
    job->memo = statsMemo_;
    job->interval = interval;
    job->cpuChunks = trace_->numCpus();
    const std::size_t instances = trace_->taskInstances().size();
    const unsigned workers = engine_->workers();
    if (instances > 0) {
        // Enough task chunks to load every worker a few times over,
        // but no micro-chunks: the claim cursor should stay noise.
        job->taskChunkSize = std::max<std::size_t>(
            4096, instances / (static_cast<std::size_t>(workers) * 4));
        job->taskChunks =
            (instances + job->taskChunkSize - 1) / job->taskChunkSize;
    }
    const std::size_t total = job->cpuChunks + job->taskChunks;
    if (total == 0) {
        stats::IntervalStats empty;
        empty.interval = interval;
        {
            base::MutexLock lock(statsMemo_->mutex);
            statsMemo_->stats.insertOrGet(
                std::make_pair(interval.start, interval.end),
                stats::IntervalStats(empty));
        }
        return completedTicket(*domain_, std::move(empty));
    }
    job->partials.resize(total);
    job->background = query.context.priority == QueryPriority::Background;
    const std::size_t drainers =
        std::max<std::size_t>(1, std::min<std::size_t>(workers, total));
    job->active.store(drainers, std::memory_order_relaxed);
    base::TaskPriority priority = toTaskPriority(query.context.priority);
    engine_->withPool([&](base::ThreadPool &pool) {
        job->pool = &pool;
        for (std::size_t d = 0; d < drainers; d++)
            pool.submit([job] { drainStats(job); }, priority);
    });
    return QueryTicket<stats::IntervalStats>(std::move(state));
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
    auto state = newTicketState<List>(*domain_);
    // The task list is view-independent: staleness tracks the filter
    // generation, so panning the view never cancels it.
    state->generation = domain_->filterGeneration();
    state->live = domain_->filterGenerationCell();
    auto trace = trace_;
    auto memo = memo_;
    auto filters = std::make_shared<const filter::FilterSet>(filters_);
    base::TaskHandle handle;
    engine_->withPool([&](base::ThreadPool &pool) {
        handle = pool.submitTracked(
            [state, trace, memo, filters, generation] {
                state->markRunning();
                auto list = scanTaskList(*trace, *filters, *state);
                if (!list) {
                    state->completeCancelled();
                    return;
                }
                publishTaskList(*memo, generation, *list);
                state->complete(std::move(*list));
            },
            toTaskPriority(query.context.priority));
    });
    {
        base::MutexLock lock(state->mutex);
        state->handle = handle;
    }
    return QueryTicket<List>(std::move(state));
}

QueryTicket<stats::Histogram>
Session::submit(const HistogramQuery &query)
{
    using List = std::vector<const trace::TaskInstance *>;
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
            auto state = newTicketState<stats::Histogram>(*domain_);
            state->generation = domain_->filterGeneration();
            state->live = domain_->filterGenerationCell();
            auto trace = trace_;
            auto pyramids = pyramids_;
            auto filters =
                std::make_shared<const filter::FilterSet>(filters_);
            std::uint32_t num_bins = query.numBins;
            base::TaskHandle handle;
            engine_->withPool([&](base::ThreadPool &pool) {
                handle = pool.submitTracked(
                    [state, trace, pyramids, filters, snapped,
                     granularity, exact, num_bins] {
                        state->markRunning();
                        if (state->stale()) {
                            state->completeCancelled();
                            return;
                        }
                        auto range = pyramids->taskStartRange(snapped);
                        const List &by_start = pyramids->tasksByStart();
                        std::vector<double> durations;
                        durations.reserve(range.second - range.first);
                        for (std::size_t i = range.first;
                             i < range.second; i++) {
                            const trace::TaskInstance *task = by_start[i];
                            if (filters->matches(*trace, *task))
                                durations.push_back(static_cast<double>(
                                    task->duration()));
                        }
                        if (state->stale()) {
                            state->completeCancelled();
                            return;
                        }
                        stats::Histogram h = stats::Histogram::fromValues(
                            durations, num_bins);
                        h.resolution.exact = exact;
                        h.resolution.granularityNs = granularity;
                        state->complete(std::move(h));
                    },
                    toTaskPriority(query.context.priority));
            });
            {
                base::MutexLock lock(state->mutex);
                state->handle = handle;
            }
            return QueryTicket<stats::Histogram>(std::move(state));
        }
    }
    auto state = newTicketState<stats::Histogram>(*domain_);
    // Like the task list it is built from, the histogram is
    // view-independent: staleness tracks the filter generation only.
    state->generation = domain_->filterGeneration();
    state->live = domain_->filterGenerationCell();
    std::uint64_t generation;
    std::shared_ptr<const List> cached;
    {
        base::MutexLock lock(memo_->mutex);
        generation = memo_->filterGeneration;
        if (const List *hit = memo_->taskList.tryGet(generation))
            cached = std::make_shared<const List>(*hit);
    }
    auto trace = trace_;
    auto memo = memo_;
    auto filters = std::make_shared<const filter::FilterSet>(filters_);
    std::uint32_t num_bins = query.numBins;
    std::optional<TimeInterval> restrict_to = query.context.interval;
    base::TaskHandle handle;
    engine_->withPool([&](base::ThreadPool &pool) {
        handle = pool.submitTracked(
            [state, trace, memo, filters, cached, generation, num_bins,
             restrict_to] {
                state->markRunning();
                if (state->stale()) {
                    state->completeCancelled();
                    return;
                }
                const List *tasks = cached.get();
                List computed;
                if (!tasks) {
                    auto list = scanTaskList(*trace, *filters, *state);
                    if (!list) {
                        state->completeCancelled();
                        return;
                    }
                    computed = std::move(*list);
                    // The scan is the expensive half; share it with
                    // later tasks()/histogram() calls of the same
                    // generation (the published list is unrestricted;
                    // the interval only narrows the binned values).
                    publishTaskList(*memo, generation, computed);
                    tasks = &computed;
                }
                std::vector<double> durations;
                durations.reserve(tasks->size());
                for (const trace::TaskInstance *task : *tasks) {
                    if (restrict_to &&
                        !restrict_to->contains(task->interval.start))
                        continue;
                    durations.push_back(
                        static_cast<double>(task->duration()));
                }
                if (state->stale()) {
                    state->completeCancelled();
                    return;
                }
                state->complete(
                    stats::Histogram::fromValues(durations, num_bins));
            },
            toTaskPriority(query.context.priority));
    });
    {
        base::MutexLock lock(state->mutex);
        state->handle = handle;
    }
    return QueryTicket<stats::Histogram>(std::move(state));
}

QueryTicket<index::MinMax>
Session::submit(const CounterExtremaQuery &query)
{
    auto state = newTicketState<index::MinMax>(*domain_);
    auto cache = counterIndexes_;
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
        auto pyramids = pyramids_;
        base::TaskHandle handle;
        engine_->withPool([&](base::ThreadPool &pool) {
            handle = pool.submitTracked(
                [state, pyramids, cpu, counter, snapped] {
                    state->markRunning();
                    if (state->stale()) {
                        state->completeCancelled();
                        return;
                    }
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
                    state->complete(out);
                },
                toTaskPriority(query.context.priority));
        });
        {
            base::MutexLock lock(state->mutex);
            state->handle = handle;
        }
        return QueryTicket<index::MinMax>(std::move(state));
    }
    base::TaskHandle handle;
    engine_->withPool([&](base::ThreadPool &pool) {
        handle = pool.submitTracked(
            [state, cache, cpu, counter, interval] {
                state->markRunning();
                if (state->stale()) {
                    state->completeCancelled();
                    return;
                }
                state->complete(cache->query(cpu, counter, interval));
            },
            toTaskPriority(query.context.priority));
    });
    {
        base::MutexLock lock(state->mutex);
        state->handle = handle;
    }
    return QueryTicket<index::MinMax>(std::move(state));
}

QueryTicket<Session::WarmupStats>
Session::submit(const WarmupQuery &query)
{
    auto state = newTicketState<WarmupStats>(*domain_);
    // Warm-up products are view-independent (indexes) or keyed by
    // interval / filter generation, so generation bumps don't invalidate
    // them: warm-up cancels only explicitly.
    state->live = nullptr;
    auto job = std::make_shared<WarmupJob>();
    job->ticket = state;
    job->trace = trace_;
    job->cache = counterIndexes_;
    job->statsMemo = statsMemo_;
    job->memo = memo_;
    job->filters = std::make_shared<const filter::FilterSet>(filters_);
    job->statsInterval = view();
    job->stats.workers = engine_->workers();

    const WarmupPolicy &policy = query.policy;
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
                    job->pairs.emplace_back(c, id);
                }
            }
        }
        // Already-memoized stats / task-list entries need no unit; the
        // lookups count hits, keeping warm-up observable like the old
        // eager revisit did.
        if (policy.intervalStats)
            job->doStats =
                statsMemo_->stats.tryGet(std::make_pair(
                    job->statsInterval.start,
                    job->statsInterval.end)) == nullptr;
    }
    {
        base::MutexLock lock(memo_->mutex);
        job->filterGeneration = memo_->filterGeneration;
        if (policy.taskList)
            job->doTaskList =
                memo_->taskList.tryGet(job->filterGeneration) == nullptr;
    }
    job->stats.indexesVisited = job->pairs.size();
    job->stats.indexesSkipped = skipped;

    const std::size_t total = job->pairs.size() +
                              (job->doStats ? 1 : 0) +
                              (job->doTaskList ? 1 : 0);
    if (total == 0)
        return completedTicket(*domain_, job->stats);
    job->background = query.context.priority == QueryPriority::Background;
    const std::size_t drainers = std::max<std::size_t>(
        1, std::min<std::size_t>(engine_->workers(), total));
    job->active.store(drainers, std::memory_order_relaxed);
    base::TaskPriority priority = toTaskPriority(query.context.priority);
    engine_->withPool([&](base::ThreadPool &pool) {
        job->pool = &pool;
        for (std::size_t d = 0; d < drainers; d++)
            pool.submit([job] { drainWarmup(job); }, priority);
    });
    return QueryTicket<WarmupStats>(std::move(state));
}

QueryTicket<PyramidBuildStats>
Session::submit(const PyramidBuildQuery &query)
{
    auto state = newTicketState<PyramidBuildStats>(*domain_);
    // Pyramids are trace-keyed, never view- or filter-keyed, so
    // generation bumps don't invalidate a build: explicit cancel only.
    state->live = nullptr;
    auto job = std::make_shared<PyramidJob>();
    job->ticket = state;
    job->trace = trace_;
    job->pyramids = pyramids_;
    job->stats.cpusVisited = trace_->numCpus();
    job->stats.workers = engine_->workers();
    const std::size_t total = trace_->numCpus();
    if (total == 0)
        return completedTicket(*domain_, job->stats);
    job->background = query.context.priority == QueryPriority::Background;
    const std::size_t drainers = std::max<std::size_t>(
        1, std::min<std::size_t>(engine_->workers(), total));
    job->active.store(drainers, std::memory_order_relaxed);
    base::TaskPriority priority = toTaskPriority(query.context.priority);
    engine_->withPool([&](base::ThreadPool &pool) {
        job->pool = &pool;
        for (std::size_t d = 0; d < drainers; d++)
            pool.submit([job] { drainPyramids(job); }, priority);
    });
    return QueryTicket<PyramidBuildStats>(std::move(state));
}

QueryTicket<TraceLoadResult>
Session::submit(const TraceLoadQuery &query)
{
    AFTERMATH_ASSERT(query.bytes != nullptr || !query.path.empty(),
                     "trace load query needs a source");
    auto state = newTicketState<TraceLoadResult>(*domain_);
    // A load's product is handed back to the driving thread, never
    // published into shared caches, so view/filter/trace mutations
    // cannot make it stale: generation-immune, explicit cancel only.
    state->live = nullptr;
    trace::ReadOptions options;
    options.workers =
        query.workers == 0 ? engine_->workers() : query.workers;
    // Bridge ticket.cancel() into the reader's cooperative poll (the
    // token copies share one flag).
    options.cancel = state->cancel;
    auto bytes = query.bytes;
    std::string path = query.path;
    base::TaskHandle handle;
    engine_->withPool([&](base::ThreadPool &pool) {
        // The load's serial frame scan can occupy a worker for the
        // whole file; drain queued interactive tasks at the reader's
        // poll boundaries so even a 1-worker engine stays responsive.
        // The pool outlives the load task (it runs on that pool, and
        // the pool drains before destruction), so the raw pointer in
        // the yield hook stays valid.
        base::ThreadPool *pool_ptr = &pool;
        options.yield = [pool_ptr] {
            while (pool_ptr->hasHighPriorityWork() &&
                   pool_ptr->runOneHighPriorityTask()) {
            }
        };
        handle = pool.submitTracked(
            [state, bytes, path, options] {
                state->markRunning();
                if (state->stale()) {
                    state->completeCancelled();
                    return;
                }
                // The reader spins up its own decode pool: a pool task
                // must not parallelFor() on its own pool, and a
                // 1-worker engine would serialize the decode otherwise.
                trace::ReadResult read =
                    bytes ? trace::readTrace(*bytes, options)
                          : trace::readTraceFile(path, options);
                if (read.cancelled) {
                    state->completeCancelled();
                    return;
                }
                TraceLoadResult result;
                result.ok = read.ok;
                result.error = std::move(read.error);
                result.encoding = read.encoding;
                result.bytesRead = read.bytesRead;
                if (read.ok)
                    result.trace = std::make_shared<const trace::Trace>(
                        std::move(read.trace));
                state->complete(std::move(result));
            },
            toTaskPriority(query.context.priority));
    });
    {
        base::MutexLock lock(state->mutex);
        state->handle = handle;
    }
    return QueryTicket<TraceLoadResult>(std::move(state));
}

QueryTicket<TimelineRenderResult>
Session::submit(const TimelineRenderQuery &query)
{
    AFTERMATH_ASSERT(query.width > 0 && query.height > 0,
                     "render query needs positive dimensions");
    auto state = newTicketState<TimelineRenderResult>(*domain_);
    auto trace = trace_;
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
    auto pyramids = pyramids_;
    config.pyramids = pyramids.get();
    std::uint32_t width = query.width;
    std::uint32_t height = query.height;
    auto renderers = rendererPool_;
    base::TaskHandle handle;
    engine_->withPool([&](base::ThreadPool &pool) {
        handle = pool.submitTracked(
            [state, trace, renderers, filters, pyramids, config, width,
             height] {
                state->markRunning();
                if (state->stale()) {
                    state->completeCancelled();
                    return;
                }
                TimelineRenderResult result;
                result.fb = render::Framebuffer(width, height);
                // Check a pooled renderer out instead of constructing:
                // repeated async renders reuse the palette and memo
                // caches a fresh renderer would rebuild per query.
                RendererPool::Lease lease = renderers->checkout(trace);
                lease->render(config, result.fb);
                result.stats = lease->stats();
                state->complete(std::move(result));
            },
            toTaskPriority(query.context.priority));
    });
    {
        base::MutexLock lock(state->mutex);
        state->handle = handle;
    }
    return QueryTicket<TimelineRenderResult>(std::move(state));
}

QueryTicket<std::vector<stats::Anomaly>>
Session::submit(const AnomalyScanQuery &query)
{
    TimeInterval interval = query.context.interval.value_or(view());
    // View-dependent by default generation: a view, filter or trace
    // mutation makes a queued or running scan stale (polled at chunk
    // boundaries) — the findings describe a window the user just left.
    auto state = newTicketState<std::vector<stats::Anomaly>>(*domain_);
    auto job = std::make_shared<AnomalyScanJob>();
    job->ticket = state;
    job->trace = trace_;
    job->filters = std::make_shared<const filter::FilterSet>(filters_);
    job->options = query.options;
    job->interval = interval;
    if (interval.empty() || query.options.numIntervals == 0)
        return completedTicket(*domain_, std::vector<stats::Anomaly>());
    job->chunks = stats::anomalyScanChunks(*trace_);
    const std::size_t total = job->chunks.size();
    if (total == 0)
        return completedTicket(*domain_, std::vector<stats::Anomaly>());
    job->partials.resize(total);
    job->background = query.context.priority == QueryPriority::Background;
    const std::size_t drainers = std::max<std::size_t>(
        1, std::min<std::size_t>(engine_->workers(), total));
    job->active.store(drainers, std::memory_order_relaxed);
    base::TaskPriority priority = toTaskPriority(query.context.priority);
    engine_->withPool([&](base::ThreadPool &pool) {
        job->pool = &pool;
        for (std::size_t d = 0; d < drainers; d++)
            pool.submit([job] { drainAnomalies(job); }, priority);
    });
    return QueryTicket<std::vector<stats::Anomaly>>(std::move(state));
}

} // namespace session
} // namespace aftermath
