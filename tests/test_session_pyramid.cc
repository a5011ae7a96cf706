/**
 * @file
 * Property tests of the resolution-aware query plane: pyramid answers
 * are bit-identical to the exact scan over the snapped interval,
 * snapping stays within the requested budget, Resolution::Exact is
 * bit-identical at every worker count, pyramids invalidate with the
 * trace and share through SharedCaches, pyramid builds cancel and
 * yield like every fan-out query, and the cooperative-yield
 * plumbing (ThreadPool::runOneHighPriorityTask, ReadOptions::yield)
 * behaves. Built with TSan and ASan+UBSan in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "base/resolution.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "index/summary_pyramid.h"
#include "session/query.h"
#include "session/session.h"
#include "stats/interval_stats.h"
#include "trace_builder.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace aftermath {
namespace session {
namespace {

using test_support::buildRandomTrace;
using test_support::RandomTraceOptions;

/** The serial exact interval scan, as ground truth. */
stats::IntervalStats
serialIntervalStats(const trace::Trace &tr, const TimeInterval &interval)
{
    stats::IntervalStats out;
    out.interval = interval;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        const auto &states = tr.cpu(c).states();
        trace::SliceRange slice = tr.cpu(c).stateSlice(interval);
        for (std::size_t i = slice.first; i < slice.last; i++)
            out.timeInState[states[i].state] +=
                states[i].interval.overlapDuration(interval);
    }
    for (const trace::TaskInstance &task : tr.taskInstances()) {
        if (task.interval.overlaps(interval))
            out.tasksOverlapping++;
        if (interval.contains(task.interval.start))
            out.tasksStarted++;
    }
    return out;
}

/**
 * Equality of the aggregate payload. The exact state scan records
 * zero-duration entries for states merely touched by the interval;
 * the pyramid path does not, so zero entries are dropped on both
 * sides before comparing (the documented caveat of the pyramid path).
 */
void
expectSameAggregates(const stats::IntervalStats &a,
                     const stats::IntervalStats &b)
{
    std::map<std::uint32_t, TimeStamp> nza, nzb;
    for (const auto &[state, t] : a.timeInState)
        if (t != 0)
            nza[state] = t;
    for (const auto &[state, t] : b.timeInState)
        if (t != 0)
            nzb[state] = t;
    EXPECT_EQ(nza, nzb);
    EXPECT_EQ(a.tasksStarted, b.tasksStarted);
    EXPECT_EQ(a.tasksOverlapping, b.tasksOverlapping);
}

/** A random subinterval of @p span (possibly small, never empty). */
TimeInterval
randomInterval(Rng &rng, const TimeInterval &span)
{
    TimeStamp len = span.duration();
    TimeStamp start = span.start + rng.nextBounded(len);
    TimeStamp end = start + 1 + rng.nextBounded(len - (start - span.start));
    return {start, end};
}

TEST(SummaryPyramid, BudgetAnswersEqualExactScanOfSnappedInterval)
{
    for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        RandomTraceOptions opts;
        opts.cpus = 5;
        opts.statesPerCpu = 400;
        trace::Trace tr = buildRandomTrace(seed, opts);
        Session session = Session::view(tr);
        const TimeInterval span = tr.span();

        Rng rng(seed * 31 + 1);
        for (int trial = 0; trial < 25; trial++) {
            TimeInterval interval = randomInterval(rng, span);
            std::uint64_t budget = 1 + rng.nextBounded(span.duration());
            Resolution res = Resolution::budget(budget);

            stats::IntervalStats approx =
                session
                    .submit(IntervalStatsQuery{
                        {interval, QueryPriority::Interactive, res}})
                    .take();

            const TimeStamp g =
                session.pyramids()->granularityFor(res, interval);
            if (g == 0) {
                // Budget finer than a leaf: exact fallback.
                EXPECT_TRUE(approx.resolution.exact);
                EXPECT_EQ(approx.resolution.granularityNs, 0u);
                EXPECT_EQ(approx.interval, interval);
                expectSameAggregates(approx,
                                     serialIntervalStats(tr, interval));
                continue;
            }

            // The snapped interval covers the request, each edge moved
            // by less than the granularity (and the granularity is
            // within the budget).
            EXPECT_LE(g, budget);
            EXPECT_LE(approx.interval.start, interval.start);
            EXPECT_GE(approx.interval.end, interval.end);
            EXPECT_LT(interval.start - approx.interval.start, g);
            EXPECT_LT(approx.interval.end - interval.end, g);
            EXPECT_EQ(approx.interval,
                      session.pyramids()->snap(interval, g));

            // Bit-identical to the exact scan of the snapped interval.
            expectSameAggregates(
                approx, serialIntervalStats(tr, approx.interval));

            // Provenance: granularity reported, exactness iff the snap
            // was the identity.
            EXPECT_EQ(approx.resolution.granularityNs, g);
            EXPECT_EQ(approx.resolution.exact,
                      approx.interval == interval);
            EXPECT_GT(approx.resolution.nodesTouched, 0u);
        }
    }
}

TEST(SummaryPyramid, PixelsIsBudgetOfIntervalOverWidth)
{
    trace::Trace tr = buildRandomTrace(5);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    const std::uint32_t width = 64;

    stats::IntervalStats by_pixels =
        session
            .submit(IntervalStatsQuery{
                {span, QueryPriority::Interactive,
                 Resolution::pixels(width)}})
            .take();
    stats::IntervalStats by_budget =
        session
            .submit(IntervalStatsQuery{
                {span, QueryPriority::Interactive,
                 Resolution::budget(span.duration() / width)}})
            .take();
    EXPECT_EQ(by_pixels.interval, by_budget.interval);
    expectSameAggregates(by_pixels, by_budget);
    EXPECT_EQ(by_pixels.resolution.granularityNs,
              by_budget.resolution.granularityNs);

    // Width 0 is an exact request.
    stats::IntervalStats w0 =
        session
            .submit(IntervalStatsQuery{
                {span, QueryPriority::Interactive, Resolution::pixels(0)}})
            .take();
    EXPECT_TRUE(w0.resolution.exact);
    expectSameAggregates(w0, serialIntervalStats(tr, span));
}

TEST(SummaryPyramid, ExactStaysBitIdenticalAtEveryWorkerCount)
{
    trace::Trace tr = buildRandomTrace(11);
    const TimeInterval span = tr.span();
    TimeInterval interval{span.start + 13, span.end - 7};
    stats::IntervalStats expect = serialIntervalStats(tr, interval);

    for (unsigned workers : {1u, 2u, 5u}) {
        Session session = Session::view(tr);
        session.setConcurrency({workers});
        stats::IntervalStats got =
            session.submit(IntervalStatsQuery{{interval}}).take();
        EXPECT_EQ(got.timeInState, expect.timeInState) << workers;
        EXPECT_EQ(got.tasksStarted, expect.tasksStarted) << workers;
        EXPECT_EQ(got.tasksOverlapping, expect.tasksOverlapping)
            << workers;
        EXPECT_TRUE(got.resolution.exact);
        EXPECT_EQ(got.resolution.granularityNs, 0u);
    }
}

TEST(SummaryPyramid, ApproximateResultsAreNeverMemoized)
{
    trace::Trace tr = buildRandomTrace(17);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    TimeInterval interval{span.start + 3, span.end - 5};
    Resolution coarse = Resolution::budget(span.duration() / 4);

    stats::IntervalStats approx =
        session
            .submit(IntervalStatsQuery{
                {interval, QueryPriority::Interactive, coarse}})
            .take();
    ASSERT_GT(approx.resolution.granularityNs, 0u);

    // The exact query over the same interval must not be served from
    // anything the approximate pass left behind.
    stats::IntervalStats exact =
        session.submit(IntervalStatsQuery{{interval}}).take();
    EXPECT_TRUE(exact.resolution.exact);
    EXPECT_EQ(exact.interval, interval);
    expectSameAggregates(exact, serialIntervalStats(tr, interval));
}

TEST(SummaryPyramid, CounterExtremaMatchExactOverSnappedInterval)
{
    trace::Trace tr = buildRandomTrace(23);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    Rng rng(99);
    for (int trial = 0; trial < 15; trial++) {
        CpuId cpu = static_cast<CpuId>(rng.nextBounded(tr.numCpus()));
        TimeInterval interval = randomInterval(rng, span);
        Resolution res =
            Resolution::budget(1 + rng.nextBounded(span.duration()));
        index::MinMax approx =
            session
                .submit(CounterExtremaQuery{
                    {interval, QueryPriority::Interactive, res}, cpu, 0})
                .take();
        TimeStamp g = session.pyramids()->granularityFor(res, interval);
        TimeInterval probe =
            g == 0 ? interval : session.pyramids()->snap(interval, g);
        index::MinMax exact =
            session.submit(CounterExtremaQuery{{probe}, cpu, 0}).take();
        EXPECT_EQ(approx.valid, exact.valid);
        if (exact.valid) {
            EXPECT_EQ(approx.min, exact.min);
            EXPECT_EQ(approx.max, exact.max);
        }
    }
}

TEST(SummaryPyramid, HistogramRestrictionMatchesExactOverSnappedInterval)
{
    trace::Trace tr = buildRandomTrace(29);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    Rng rng(7);
    for (int trial = 0; trial < 10; trial++) {
        TimeInterval interval = randomInterval(rng, span);
        Resolution res =
            Resolution::budget(1 + rng.nextBounded(span.duration()));
        stats::Histogram approx =
            session
                .submit(HistogramQuery{
                    {interval, QueryPriority::Interactive, res}, 12})
                .take();
        TimeStamp g = session.pyramids()->granularityFor(res, interval);
        TimeInterval probe =
            g == 0 ? interval : session.pyramids()->snap(interval, g);
        stats::Histogram exact =
            session.submit(HistogramQuery{{probe}, 12}).take();
        ASSERT_EQ(approx.numBins(), exact.numBins());
        EXPECT_EQ(approx.rangeMin(), exact.rangeMin());
        EXPECT_EQ(approx.rangeMax(), exact.rangeMax());
        for (std::uint32_t bin = 0; bin < exact.numBins(); bin++)
            EXPECT_EQ(approx.count(bin), exact.count(bin)) << bin;
    }
}

TEST(SummaryPyramid, BuildQueryIsIdempotentAndAttributed)
{
    trace::Trace tr = buildRandomTrace(31);
    Session session = Session::view(tr);
    PyramidBuildStats first = session.submit(PyramidBuildQuery{}).take();
    EXPECT_EQ(first.cpusVisited, tr.numCpus());
    EXPECT_EQ(first.cpusBuilt, tr.numCpus());
    PyramidBuildStats second = session.submit(PyramidBuildQuery{}).take();
    EXPECT_EQ(second.cpusVisited, tr.numCpus());
    EXPECT_EQ(second.cpusBuilt, 0u);
}

TEST(SummaryPyramid, SetTraceReplacesThePyramidStoreWholesale)
{
    trace::Trace before = buildRandomTrace(37);
    Session session = Session::view(before);
    session.submit(PyramidBuildQuery{}).take();
    std::shared_ptr<index::TracePyramids> old = session.pyramids();

    trace::Trace after = buildRandomTrace(41);
    const TimeInterval span = after.span();
    session.setTrace(std::move(after));
    EXPECT_NE(session.pyramids().get(), old.get());

    // Approximate queries answer from the *new* trace's pyramids.
    TimeInterval interval{span.start + 1, span.end - 1};
    Resolution res = Resolution::budget(span.duration() / 2);
    stats::IntervalStats approx =
        session
            .submit(IntervalStatsQuery{
                {interval, QueryPriority::Interactive, res}})
            .take();
    expectSameAggregates(
        approx, serialIntervalStats(session.trace(), approx.interval));
}

TEST(SummaryPyramid, SharedCachesShareOnePyramidStore)
{
    auto tr = std::make_shared<const trace::Trace>(buildRandomTrace(43));
    Session a(tr);
    a.submit(PyramidBuildQuery{}).take();
    Session b(tr);
    b.adoptSharedCaches(a.sharedCaches());
    EXPECT_EQ(a.pyramids().get(), b.pyramids().get());

    const TimeInterval span = tr->span();
    Resolution res = Resolution::budget(span.duration() / 8);
    stats::IntervalStats via_b =
        a.submit(IntervalStatsQuery{
                     {span, QueryPriority::Interactive, res}})
            .take();
    expectSameAggregates(via_b,
                         serialIntervalStats(*tr, via_b.interval));
}

/** A gate that parks a worker until released; records entry. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    std::atomic<bool> entered{false};

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }

    void
    block()
    {
        entered.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
    }

    void
    awaitEntered() const
    {
        while (!entered.load(std::memory_order_acquire))
            std::this_thread::yield();
    }
};

/** Park @p session's worker in an interactive task blocking on @p gate. */
void
occupyWithInteractive(Session &session, const std::shared_ptr<Gate> &gate)
{
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([gate] { gate->block(); }, base::TaskPriority::High);
    });
    gate->awaitEntered();
}

/** Enough CPUs and states that a build spans many unit boundaries. */
trace::Trace
buildHeavyTrace()
{
    RandomTraceOptions opts;
    opts.cpus = 32;
    opts.statesPerCpu = 3'000;
    return buildRandomTrace(61, opts);
}

/**
 * Catch a Background pyramid build on a fresh one-worker @p session
 * midway: start it, let it run for a while, then take the worker with
 * an interactive task blocking on a fresh @p gate, so the build yields
 * at its next unit boundary. The wait adapts until the parked build
 * has built some CPUs but not all: a build that had finished shortens
 * it, one that had built nothing lengthens it. (Polling progress does
 * not work: TracePyramids::size() waits behind each build's shard
 * lock.) Returns the parked build, or an invalid ticket if every
 * attempt missed.
 */
QueryTicket<PyramidBuildStats>
parkBuildMidway(const trace::Trace &tr, std::optional<Session> &session,
                std::shared_ptr<Gate> &gate)
{
    std::chrono::microseconds delay(500);
    for (int attempt = 0; attempt < 40; attempt++) {
        session.emplace(Session::view(tr));
        gate = std::make_shared<Gate>();
        auto build = session->submit(PyramidBuildQuery{});
        while (build.status() == QueryStatus::Pending)
            std::this_thread::yield();
        std::this_thread::sleep_for(delay);
        occupyWithInteractive(*session, gate);
        // The only worker is parked: nothing builds meanwhile.
        const std::size_t built = session->pyramids()->size();
        if (!build.done() && built > 0 && built < tr.numCpus())
            return build;
        gate->release();
        build.wait();
        delay = built == 0 ? delay * 2 : delay / 2;
    }
    return {};
}

TEST(SummaryPyramid, BuildCancelledWhileQueuedBuildsNothing)
{
    trace::Trace tr = buildRandomTrace(59);
    Session session = Session::view(tr); // One worker.
    auto gate = std::make_shared<Gate>();
    occupyWithInteractive(session, gate);
    auto build = session.submit(PyramidBuildQuery{});
    EXPECT_EQ(build.status(), QueryStatus::Pending);
    build.cancel();
    gate->release();
    EXPECT_EQ(build.wait(), QueryStatus::Cancelled);
    EXPECT_EQ(session.pyramids()->size(), 0u);
}

TEST(SummaryPyramid, BuildCancelledMidwayKeepsBuiltPyramids)
{
    trace::Trace tr = buildHeavyTrace();
    std::optional<Session> session;
    std::shared_ptr<Gate> gate;
    auto build = parkBuildMidway(tr, session, gate);
    ASSERT_TRUE(build.valid()) << "never caught the build midway";
    const std::size_t kept = session->pyramids()->size();
    build.cancel();
    gate->release();
    ASSERT_EQ(build.wait(), QueryStatus::Cancelled);
    EXPECT_EQ(session->pyramids()->size(), kept);

    // The follow-up build visits every CPU but builds only the rest.
    PyramidBuildStats rest = session->submit(PyramidBuildQuery{}).take();
    EXPECT_EQ(rest.cpusVisited, tr.numCpus());
    EXPECT_EQ(rest.cpusBuilt, tr.numCpus() - kept);
    EXPECT_EQ(session->pyramids()->size(), tr.numCpus());
}

TEST(SummaryPyramid, BackgroundBuildYieldsToInteractiveStorm)
{
    trace::Trace tr = buildHeavyTrace();
    const TimeInterval span = tr.span();
    std::optional<Session> session;
    std::shared_ptr<Gate> gate;
    auto build = parkBuildMidway(tr, session, gate);
    ASSERT_TRUE(build.valid()) << "never caught the build midway";

    // The storm queues behind the parked interactive task and, on the
    // one worker, runs before the yielded build resumes.
    std::vector<QueryTicket<index::MinMax>> storm;
    std::atomic<int> after_build{0};
    for (CpuId c = 0; c < 8; c++) {
        storm.push_back(session->submit(CounterExtremaQuery{
            {span}, c, static_cast<CounterId>(c % 2)}));
        storm.back().onComplete([build, &after_build](QueryStatus) {
            if (build.done())
                after_build.fetch_add(1, std::memory_order_relaxed);
        });
    }
    gate->release();
    for (auto &ticket : storm)
        EXPECT_EQ(ticket.wait(), QueryStatus::Done);
    ASSERT_EQ(build.wait(), QueryStatus::Done);
    EXPECT_EQ(after_build.load(), 0);
    EXPECT_EQ(build.result().cpusBuilt, tr.numCpus());

    // Yielding changed nothing: every pyramid answers exactly like the
    // ones four workers built.
    Session wide = Session::view(tr);
    wide.setConcurrency({4});
    ASSERT_EQ(wide.submit(PyramidBuildQuery{}).take().cpusBuilt,
              tr.numCpus());
    Rng rng(67);
    for (int i = 0; i < 20; i++) {
        const TimeInterval interval = randomInterval(rng, span);
        QueryContext context{
            interval, QueryPriority::Interactive,
            Resolution::budget(
                std::max<TimeStamp>(1, interval.duration() / 16))};
        stats::IntervalStats a =
            session->submit(IntervalStatsQuery{context}).take();
        stats::IntervalStats b =
            wide.submit(IntervalStatsQuery{context}).take();
        EXPECT_EQ(a.interval, b.interval);
        EXPECT_EQ(a.timeInState, b.timeInState);
        EXPECT_EQ(a.tasksStarted, b.tasksStarted);
        EXPECT_EQ(a.tasksOverlapping, b.tasksOverlapping);
        EXPECT_EQ(a.resolution.nodesTouched, b.resolution.nodesTouched);
        for (CpuId c = 0; c < tr.numCpus(); c += 5) {
            CounterExtremaQuery extrema{context, c, 0};
            index::MinMax ea = session->submit(extrema).take();
            index::MinMax eb = wide.submit(extrema).take();
            EXPECT_EQ(ea.valid, eb.valid);
            EXPECT_EQ(ea.min, eb.min);
            EXPECT_EQ(ea.max, eb.max);
        }
    }
}

TEST(SummaryPyramid, RenderAtPixelsResolutionReportsProvenance)
{
    trace::Trace tr = buildRandomTrace(47);
    Session session = Session::view(tr);
    render::TimelineConfig config;
    config.view = tr.span();
    // A granularity far coarser than a leaf guarantees the pyramid
    // path engages for this viewport width.
    render::Framebuffer fb(32, 64);
    config.resolution = Resolution::pixels(32);
    const render::RenderStats &stats = session.render(config, fb);
    EXPECT_FALSE(stats.resolution.exact);
    EXPECT_EQ(stats.resolution.granularityNs,
              session.pyramids()->leafGranularity());
    EXPECT_GT(stats.resolution.nodesTouched, 0u);

    // Exact rendering is untouched by the pyramid plumbing.
    render::Framebuffer exact_fb(32, 64);
    render::TimelineConfig exact_config;
    exact_config.view = tr.span();
    const render::RenderStats &exact_stats =
        session.render(exact_config, exact_fb);
    EXPECT_TRUE(exact_stats.resolution.exact);
    EXPECT_EQ(exact_stats.resolution.granularityNs, 0u);
}

TEST(SummaryPyramid, FlatStoreMatchesBruteForceOverRandomLeafRanges)
{
    RandomTraceOptions opts;
    opts.cpus = 3;
    opts.counters = 3;
    opts.statesPerCpu = 300;
    for (std::uint64_t seed : {3ull, 19ull}) {
        trace::Trace tr = buildRandomTrace(seed, opts);
        index::TracePyramids pyramids(tr);
        const TimeStamp g0 = pyramids.leafGranularity();
        const std::uint64_t leaves = pyramids.leafCount();
        ASSERT_GT(g0, 1u); // Leaf edges fall inside events.
        Rng rng(seed + 5);
        for (CpuId c = 0; c < tr.numCpus(); c++) {
            const index::SummaryPyramid &p = pyramids.get(c);
            const trace::CpuTimeline &tl = tr.cpu(c);
            std::vector<CounterId> counters = tl.counterIds();
            counters.push_back(1000); // Never sampled.
            for (int trial = 0; trial < 60; trial++) {
                std::uint64_t first = 0;
                std::uint64_t last = leaves;
                if (trial > 0) {
                    first = rng.nextBounded(leaves + 1);
                    last = first + rng.nextBounded(leaves + 1 - first);
                }
                const TimeInterval range{first * g0, last * g0};
                std::uint64_t nodes = 0;

                std::map<std::uint32_t, TimeStamp> expect_occupancy;
                for (const trace::StateEvent &ev : tl.states())
                    if (TimeStamp t = ev.interval.overlapDuration(range))
                        expect_occupancy[ev.state] += t;
                std::vector<TimeStamp> by_slot(p.states().size(), 0);
                p.occupancy(first, last, by_slot, nodes);
                std::map<std::uint32_t, TimeStamp> occupancy;
                for (std::size_t slot = 0; slot < by_slot.size(); slot++)
                    if (by_slot[slot] != 0)
                        occupancy[p.states()[slot]] = by_slot[slot];
                EXPECT_EQ(occupancy, expect_occupancy)
                    << "leaves [" << first << ", " << last << ")";
                EXPECT_EQ(nodes > 0, first < last);

                for (CounterId counter : counters) {
                    index::SummaryPyramid::CounterAggregate expect;
                    for (const trace::CounterSample &sample :
                         tl.counterSamples(counter)) {
                        if (!range.contains(sample.time))
                            continue;
                        if (expect.count == 0) {
                            expect.min = expect.max = sample.value;
                        }
                        expect.min = std::min(expect.min, sample.value);
                        expect.max = std::max(expect.max, sample.value);
                        expect.sum = static_cast<std::int64_t>(
                            static_cast<std::uint64_t>(expect.sum) +
                            static_cast<std::uint64_t>(sample.value));
                        expect.count++;
                    }
                    index::SummaryPyramid::CounterAggregate got =
                        p.counterAggregate(counter, first, last, nodes);
                    EXPECT_EQ(got.count, expect.count) << counter;
                    if (expect.count > 0) {
                        EXPECT_EQ(got.min, expect.min) << counter;
                        EXPECT_EQ(got.max, expect.max) << counter;
                        EXPECT_EQ(got.sum, expect.sum) << counter;
                    }
                }

                std::uint64_t expect_tasks = 0;
                for (const trace::TaskInstance &task : tr.taskInstances())
                    if (task.cpu == c && range.contains(task.interval.start))
                        expect_tasks++;
                EXPECT_EQ(p.tasksStarted(first, last, nodes), expect_tasks);
            }
        }
    }
}

TEST(SummaryPyramid, PixelsRenderColumnsMatchBandsFromStateEvents)
{
    RandomTraceOptions opts;
    opts.cpus = 4;
    opts.statesPerCpu = 600;
    trace::Trace tr = buildRandomTrace(61, opts);
    Session session = Session::view(tr);
    const std::uint32_t width = 97;
    render::Framebuffer fb(width, 64);
    render::TimelineConfig config;
    config.view = tr.span();
    config.resolution = Resolution::pixels(width);
    ASSERT_FALSE(session.render(config, fb).resolution.exact);

    const index::TracePyramids &pyramids = *session.pyramids();
    const TimeStamp g0 = pyramids.leafGranularity();
    const TimeStamp domain_end = pyramids.domainEnd();
    ASSERT_GT(g0, 1u); // Pixel edges fall inside leaves.
    render::TimelineLayout layout(tr.span(), fb.width(), fb.height(),
                                  tr.numCpus());
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        const auto &events = tr.cpu(c).states();
        // Time per state of the events inside [start, end).
        auto statesIn = [&](TimeStamp start, TimeStamp end) {
            std::map<std::uint32_t, TimeStamp> out;
            for (const trace::StateEvent &ev : events)
                if (TimeStamp t = ev.interval.overlapDuration({start, end}))
                    out[ev.state] += t;
            return out;
        };
        const render::Rgba background =
            c % 2 ? render::kBackgroundAlt : render::kBackground;
        const std::uint32_t top = layout.laneTop(c);
        const std::uint32_t height = layout.laneHeight();
        for (std::uint32_t x = 0; x < width; x++) {
            const TimeInterval pixel = layout.pixelInterval(x);
            // Whole leaves count exactly, a boundary leaf pro rata.
            std::map<std::uint32_t, double> partial;
            std::map<std::uint32_t, TimeStamp> whole;
            auto addPartial = [&](std::uint64_t leaf, TimeStamp covered) {
                double fraction = static_cast<double>(covered) /
                                  static_cast<double>(g0);
                for (const auto &[state, t] :
                     statesIn(leaf * g0, (leaf + 1) * g0))
                    partial[state] += static_cast<double>(t) * fraction;
            };
            TimeStamp start = std::min(pixel.start, domain_end);
            TimeStamp end = std::min(pixel.end, domain_end);
            if (start < end && start % g0 != 0) {
                TimeStamp leaf_end = (start / g0 + 1) * g0;
                addPartial(start / g0, std::min(end, leaf_end) - start);
                start = std::min(leaf_end, end);
            }
            if (start < end && end % g0 != 0) {
                addPartial(end / g0, end % g0);
                end = end / g0 * g0;
            }
            if (start < end)
                whole = statesIn(start, end);

            // Bands in state order, largest-remainder rows.
            struct Band
            {
                std::uint32_t state;
                double share;
                std::uint32_t rows;
            };
            std::vector<Band> bands;
            std::map<std::uint32_t, double> time = partial;
            for (const auto &[state, t] : whole)
                time[state];
            double covered = 0.0;
            for (const auto &[state, t] : time) {
                double share = std::min(
                    (t + static_cast<double>(whole[state])) /
                        static_cast<double>(pixel.duration()) * height,
                    static_cast<double>(height));
                bands.push_back(
                    {state, share, static_cast<std::uint32_t>(share)});
                covered += share;
            }
            std::uint32_t rows = 0;
            for (const Band &b : bands)
                rows += b.rows;
            const auto covered_rows = static_cast<std::uint32_t>(
                std::min(covered + 0.5, static_cast<double>(height)));
            for (; rows < covered_rows; rows++) {
                Band *best = &bands.front();
                for (Band &b : bands)
                    if (b.share - b.rows > best->share - best->rows)
                        best = &b;
                best->rows++;
            }
            std::vector<render::Rgba> column;
            for (const Band &b : bands)
                column.insert(column.end(), b.rows,
                              render::stateColor(b.state));
            column.resize(height, background);

            for (std::uint32_t r = 0; r < height; r++)
                ASSERT_EQ(fb.pixel(x, top + r), column[r])
                    << "cpu " << c << " x " << x << " row " << r;
        }
    }
}

TEST(SummaryPyramid, ThreadPoolRunsOneHighPriorityTaskOnDonorThread)
{
    base::ThreadPool pool(1);
    // Park the only worker so High submissions stay queued.
    std::atomic<bool> release{false};
    std::atomic<bool> ran{false};
    pool.submit([&release] {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    pool.submit([&ran] { ran.store(true, std::memory_order_release); },
                base::TaskPriority::High);

    // The donor (this thread) runs the queued High task directly.
    EXPECT_TRUE(pool.hasHighPriorityWork());
    EXPECT_TRUE(pool.runOneHighPriorityTask());
    EXPECT_TRUE(ran.load(std::memory_order_acquire));
    EXPECT_FALSE(pool.hasHighPriorityWork());
    EXPECT_FALSE(pool.runOneHighPriorityTask());
    release.store(true, std::memory_order_release);
    pool.wait();
}

TEST(SummaryPyramid, ReaderYieldHookFiresAtScanBatchBoundaries)
{
    RandomTraceOptions opts;
    opts.cpus = 4;
    opts.statesPerCpu = 1'200; // Comfortably over one 4096-frame batch.
    trace::Trace tr = buildRandomTrace(53, opts);
    std::vector<std::uint8_t> bytes =
        trace::writeTrace(tr, trace::Encoding::Compact);

    std::size_t lane_frames = tr.taskInstances().size() +
                              tr.memRegions().size() +
                              tr.memAccesses().size();
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        const trace::CpuTimeline &cpu = tr.cpu(c);
        lane_frames += cpu.states().size() + cpu.discreteEvents().size() +
                       cpu.commEvents().size();
        for (CounterId id : cpu.counterIds())
            lane_frames += cpu.counterSamples(id).size();
    }

    std::atomic<std::uint64_t> yields{0};
    trace::ReadOptions options;
    options.yield = [&yields] {
        yields.fetch_add(1, std::memory_order_relaxed);
    };
    trace::ReadResult result = trace::readTrace(bytes, options);
    ASSERT_TRUE(result.ok) << result.error;
    // At one worker the calling thread polls once per 4096 frames it
    // scans *and* once per 4096 lane frames it decodes. A hook that
    // fired during the scan alone would stay near lane_frames / 4096.
    ASSERT_GT(lane_frames, 3u * 4096u);
    EXPECT_GE(yields.load(), 2 * lane_frames / 4096);

    // The hook is observational: the decoded trace is unchanged.
    trace::ReadResult plain = trace::readTrace(bytes);
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_EQ(trace::writeTrace(result.trace, trace::Encoding::Raw),
              trace::writeTrace(plain.trace, trace::Encoding::Raw));
}

TEST(SummaryPyramid, DaemonCarriesResolutionAndProvenanceOverTheWire)
{
    using namespace aftermath::daemon;
    trace::Trace built = buildRandomTrace(59);
    std::vector<std::uint8_t> bytes =
        trace::writeTrace(built, trace::Encoding::Raw);

    Server server(Server::Options{2, 16});
    Client client;
    std::string error;
    ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;

    OpenTraceRequest open;
    open.bytes =
        std::make_shared<const std::vector<std::uint8_t>>(bytes);
    Reply<OpenTraceReply> opened = client.openTrace(open);
    ASSERT_TRUE(opened.ok()) << opened.message;
    const TimeInterval span = opened.value.span;

    // A local session over the same trace is the reference.
    trace::ReadResult local_read = trace::readTrace(bytes);
    ASSERT_TRUE(local_read.ok) << local_read.error;
    Session local = Session::view(local_read.trace);

    TimeInterval interval{span.start + 9, span.end - 11};
    Resolution res = Resolution::budget(span.duration() / 3);

    IntervalStatsRequest request;
    request.head.traceId = opened.value.traceId;
    request.interval = interval;
    request.resolution = res;
    Reply<stats::IntervalStats> remote = client.intervalStats(request);
    ASSERT_TRUE(remote.ok()) << remote.message;

    stats::IntervalStats expect =
        local
            .submit(IntervalStatsQuery{
                {interval, QueryPriority::Interactive, res}})
            .take();
    EXPECT_EQ(remote.value.interval, expect.interval);
    EXPECT_EQ(remote.value.timeInState, expect.timeInState);
    EXPECT_EQ(remote.value.tasksStarted, expect.tasksStarted);
    EXPECT_EQ(remote.value.tasksOverlapping, expect.tasksOverlapping);
    EXPECT_EQ(remote.value.resolution.exact, expect.resolution.exact);
    EXPECT_EQ(remote.value.resolution.granularityNs,
              expect.resolution.granularityNs);

    // Exact over the wire stays bit-identical to the local exact scan.
    IntervalStatsRequest exact_request;
    exact_request.head.traceId = opened.value.traceId;
    exact_request.interval = interval;
    Reply<stats::IntervalStats> remote_exact =
        client.intervalStats(exact_request);
    ASSERT_TRUE(remote_exact.ok()) << remote_exact.message;
    stats::IntervalStats local_exact =
        serialIntervalStats(local_read.trace, interval);
    EXPECT_EQ(remote_exact.value.timeInState, local_exact.timeInState);
    EXPECT_EQ(remote_exact.value.tasksStarted, local_exact.tasksStarted);
    EXPECT_TRUE(remote_exact.value.resolution.exact);

    // Render provenance rides the RenderReply.
    TimelineRenderRequest render;
    render.head.traceId = opened.value.traceId;
    render.view = span;
    render.width = 16;
    render.height = 32;
    render.resolution = Resolution::pixels(16);
    Reply<RenderReply> frame = client.timelineRender(render);
    ASSERT_TRUE(frame.ok()) << frame.message;
    EXPECT_FALSE(frame.value.stats.resolution.exact);
    EXPECT_GT(frame.value.stats.resolution.granularityNs, 0u);

    client.closeTrace(opened.value.traceId);
}

} // namespace
} // namespace session
} // namespace aftermath
