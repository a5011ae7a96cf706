/** @file Tests of the timeline renderer: modes, optimizations, filters. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "filter/task_filter.h"
#include "render/timeline_renderer.h"
#include "trace/state.h"

namespace aftermath {
namespace render {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);

/** Random but valid trace with tasks and NUMA-placed regions. */
trace::Trace
randomTrace(std::uint64_t seed, std::uint32_t cpus = 4)
{
    Rng rng(seed);
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, (cpus + 1) / 2));
    tr.addTaskType({0x1, "alpha"});
    tr.addTaskType({0x2, "beta"});
    TaskInstanceId next = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        TimeStamp t = rng.nextBounded(30);
        for (int i = 0; i < 60; i++) {
            TimeStamp end = t + 1 + rng.nextBounded(50);
            if (rng.nextBool(0.7)) {
                TaskInstanceId id = next++;
                tr.addTaskInstance(
                    {id, rng.nextBool(0.5) ? 0x1ull : 0x2ull, c, {t, end}});
                tr.cpu(c).addState({{t, end}, kExec, id});
                tr.addMemAccess({id, 0x1000 + (id % 8) * 0x100, 64,
                                 rng.nextBool(0.5)});
            } else {
                tr.cpu(c).addState({{t, end}, kIdle,
                                    kInvalidTaskInstance});
            }
            t = end + rng.nextBounded(15);
        }
    }
    for (RegionId r = 0; r < 8; r++)
        tr.addMemRegion({r, 0x1000 + r * 0x100, 0x100,
                         static_cast<NodeId>(r % 2)});
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/** Sweep: seeds x all five modes, fast path vs independent per-pixel. */
class RendererProperty
    : public ::testing::TestWithParam<std::tuple<int, TimelineMode>>
{};

TEST_P(RendererProperty, FastPathMatchesPerPixelResolution)
{
    auto [seed, mode] = GetParam();
    trace::Trace tr = randomTrace(seed);
    Framebuffer fb(173, 64);
    TimelineRenderer renderer(tr);
    TimelineConfig config;
    config.mode = mode;
    renderer.render(config, fb);

    TimelineLayout layout(tr.span(), fb.width(), fb.height(),
                          tr.numCpus());
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        std::uint32_t y = layout.laneTop(c);
        for (std::uint32_t x = 0; x < fb.width(); x += 7) {
            Rgba expect = renderer.resolvePixel(config, layout, c, x);
            EXPECT_EQ(fb.pixel(x, y), expect)
                << "cpu " << c << " x " << x;
        }
    }
}

/**
 * Every pixel of every lane equals resolvePixel, over views that put
 * the run path to work: zoomed far in (one event spans many pixels),
 * starting and ending mid-event, shorter than the width (empty
 * pixels), and the whole span; each with and without a task filter.
 */
TEST_P(RendererProperty, RunPathMatchesPerPixelResolutionEverywhere)
{
    auto [seed, mode] = GetParam();
    trace::Trace tr = randomTrace(seed);
    const TimeInterval span = tr.span();
    const auto &events = tr.cpu(0).states();
    const trace::StateEvent &a = events[events.size() / 3];
    const trace::StateEvent &b = events[events.size() / 2];
    const std::vector<TimeInterval> views = {
        span,
        {span.start + span.duration() / 3,
         span.start + span.duration() / 3 + span.duration() / 8},
        {a.interval.start + a.interval.duration() / 2,
         b.interval.start + b.interval.duration() / 2},
        {span.start + span.duration() / 2,
         span.start + span.duration() / 2 + 61},
    };
    filter::TaskTypeFilter only_alpha({0x1});

    Framebuffer fb(173, 64);
    TimelineRenderer renderer(tr);
    for (const TimeInterval &view : views) {
        for (const filter::TaskFilter *filter :
             {static_cast<const filter::TaskFilter *>(nullptr),
              static_cast<const filter::TaskFilter *>(&only_alpha)}) {
            TimelineConfig config;
            config.mode = mode;
            config.view = view;
            config.taskFilter = filter;
            renderer.render(config, fb);
            const std::uint64_t visited = renderer.stats().eventsVisited;

            TimelineLayout layout(view, fb.width(), fb.height(),
                                  tr.numCpus());
            for (CpuId c = 0; c < tr.numCpus(); c++) {
                for (std::uint32_t x = 0; x < fb.width(); x++) {
                    Rgba expect = renderer.resolvePixel(config, layout, c, x);
                    for (std::uint32_t y = layout.laneTop(c);
                         y < layout.laneTop(c) + layout.laneHeight(); y++)
                        ASSERT_EQ(fb.pixel(x, y), expect)
                            << "view [" << view.start << ", " << view.end
                            << ") filter " << (filter != nullptr)
                            << " cpu " << c << " x " << x << " y " << y;
                }
            }
            // Zoomed in, runs visit fewer events than resolving every
            // pixel on its own does (resolvePixel adds to the stats).
            const std::uint64_t resolved =
                renderer.stats().eventsVisited - visited;
            if (view.duration() <= span.duration() / 8) {
                EXPECT_LT(visited, resolved);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RendererProperty,
    ::testing::Combine(
        ::testing::Values(1, 7, 33),
        ::testing::Values(TimelineMode::State, TimelineMode::Heatmap,
                          TimelineMode::TypeMap, TimelineMode::NumaRead,
                          TimelineMode::NumaWrite,
                          TimelineMode::NumaHeatmap)));

TEST(Renderer, StateModeShowsDominantState)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    // 90% exec, 10% idle within the single pixel.
    tr.addTaskType({0x1, "t"});
    tr.addTaskInstance({0, 0x1, 0, {0, 90}});
    tr.cpu(0).addState({{0, 90}, kExec, 0});
    tr.cpu(0).addState({{90, 100}, kIdle, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    Framebuffer fb(1, 1);
    TimelineRenderer renderer(tr);
    renderer.render({}, fb);
    EXPECT_EQ(fb.pixel(0, 0), stateColor(kExec));
}

TEST(Renderer, BackgroundVisibleInGaps)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.cpu(0).addState({{0, 10}, kIdle, kInvalidTaskInstance});
    tr.cpu(0).addState({{90, 100}, kIdle, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    Framebuffer fb(100, 4);
    TimelineRenderer renderer(tr);
    renderer.render({}, fb);
    EXPECT_EQ(fb.pixel(50, 0), kBackground); // The gap (Fig 7's black).
    EXPECT_EQ(fb.pixel(5, 0), stateColor(kIdle));
}

TEST(Renderer, AggregationBoundsRectOps)
{
    trace::Trace tr = randomTrace(5);
    Framebuffer fb(200, 64);
    TimelineRenderer renderer(tr);
    renderer.render({}, fb);
    // Optimized: at most one rect per pixel column per lane.
    EXPECT_LE(renderer.stats().rectOps,
              static_cast<std::uint64_t>(200) * tr.numCpus());
    EXPECT_GT(renderer.stats().rectOps, 0u);
}

TEST(Renderer, NaiveIssuesOneOpPerEvent)
{
    trace::Trace tr = randomTrace(6);
    std::uint64_t events = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++)
        events += tr.cpu(c).states().size();

    Framebuffer fb(200, 64);
    TimelineRenderer renderer(tr);
    renderer.renderNaive({}, fb);
    // One background rect per lane plus one per drawn event.
    EXPECT_GE(renderer.stats().rectOps, events / 2);
    EXPECT_LE(renderer.stats().rectOps, events + tr.numCpus());
}

TEST(Renderer, ZoomedOutOptimizedBeatsNaive)
{
    // Narrow framebuffer, many events per pixel: aggregation wins big.
    trace::Trace tr = randomTrace(8, 2);
    Framebuffer fb(10, 16);
    TimelineRenderer optimized(tr);
    optimized.render({}, fb);
    Framebuffer fb2(10, 16);
    TimelineRenderer naive(tr);
    naive.renderNaive({}, fb2);
    EXPECT_LT(optimized.stats().rectOps, naive.stats().rectOps / 2);
}

TEST(Renderer, TaskFilterHidesTasks)
{
    trace::Trace tr = randomTrace(9);
    filter::TaskTypeFilter only_alpha({0x1});
    TimelineConfig config;
    config.mode = TimelineMode::TypeMap;
    config.taskFilter = &only_alpha;

    Framebuffer fb(300, 64);
    TimelineRenderer renderer(tr);
    renderer.render(config, fb);
    // Beta's color must not appear; alpha's should.
    Rgba alpha = taskTypeColor(0);
    Rgba beta = taskTypeColor(1);
    EXPECT_GT(fb.countPixels(alpha), 0u);
    EXPECT_EQ(fb.countPixels(beta), 0u);

    // Without the filter both appear.
    config.taskFilter = nullptr;
    renderer.render(config, fb);
    EXPECT_GT(fb.countPixels(alpha), 0u);
    EXPECT_GT(fb.countPixels(beta), 0u);
}

TEST(Renderer, HeatmapUsesConfiguredRange)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addTaskType({0x1, "t"});
    tr.addTaskInstance({0, 0x1, 0, {0, 1000}});
    tr.cpu(0).addState({{0, 1000}, kExec, 0});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    // Fixed range far above the task's duration: lightest shade.
    TimelineConfig config;
    config.mode = TimelineMode::Heatmap;
    config.heatmapMin = 0;
    config.heatmapMax = 50'000'000;
    config.heatmapShades = 10;
    Framebuffer fb(10, 4);
    TimelineRenderer renderer(tr);
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(0, 0), heatmapShade(0, 0, 10, 10));
}

TEST(Renderer, NumaReadModeColorsByDominantNode)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, 1));
    tr.addTaskType({0x1, "t"});
    tr.addTaskInstance({0, 0x1, 0, {0, 100}});
    tr.cpu(0).addState({{0, 100}, kExec, 0});
    tr.addMemRegion({0, 0x1000, 0x100, 1}); // Data on node 1.
    tr.addMemAccess({0, 0x1000, 64, false});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    Framebuffer fb(10, 8);
    TimelineRenderer renderer(tr);
    TimelineConfig config;
    config.mode = TimelineMode::NumaRead;
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(5, 0), numaNodeColor(1));

    // Write map: no writes recorded -> unknown gray.
    config.mode = TimelineMode::NumaWrite;
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(5, 0), (Rgba{120, 120, 120, 255}));

    // NUMA heatmap: all bytes remote from node 0 -> pink end.
    config.mode = TimelineMode::NumaHeatmap;
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(5, 0), numaHeatShade(1.0));
}

TEST(Renderer, ViewRestrictsRendering)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.cpu(0).addState({{0, 50}, kIdle, kInvalidTaskInstance});
    tr.cpu(0).addState({{50, 100}, kExec, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    TimelineConfig config;
    config.view = {0, 50};
    Framebuffer fb(10, 2);
    TimelineRenderer renderer(tr);
    renderer.render(config, fb);
    EXPECT_EQ(fb.countPixels(stateColor(kExec)), 0u);
    EXPECT_GT(fb.countPixels(stateColor(kIdle)), 0u);
}

/** The frame @p renderer draws for @p config, as PPM bytes. */
std::string
frameBytes(TimelineRenderer &renderer, const TimelineConfig &config)
{
    Framebuffer fb(173, 64);
    renderer.render(config, fb);
    std::ostringstream out;
    fb.writePpm(out);
    return out.str();
}

/**
 * A renderer keeps its task-color and remote-fraction caches across
 * frames. Every config drawn right after every other one on one
 * renderer must match a fresh renderer's frame byte for byte: each
 * mode after each mode, Heatmap at a second view and under a filter
 * (both move its adaptive range), and Heatmap with other shades.
 */
TEST(Renderer, CachesKeptAcrossFramesMatchFreshRenderer)
{
    trace::Trace tr = randomTrace(7);
    const TimeInterval span = tr.span();
    filter::TaskTypeFilter only_alpha({0x1});
    std::vector<TimelineConfig> configs;
    for (TimelineMode mode :
         {TimelineMode::State, TimelineMode::Heatmap, TimelineMode::TypeMap,
          TimelineMode::NumaRead, TimelineMode::NumaWrite,
          TimelineMode::NumaHeatmap}) {
        TimelineConfig config;
        config.mode = mode;
        configs.push_back(config);
    }
    TimelineConfig zoomed;
    zoomed.mode = TimelineMode::Heatmap;
    zoomed.view = {span.start + span.duration() / 4,
                   span.start + span.duration() / 4 + span.duration() / 16};
    configs.push_back(zoomed);
    TimelineConfig filtered;
    filtered.mode = TimelineMode::Heatmap;
    filtered.taskFilter = &only_alpha;
    configs.push_back(filtered);
    TimelineConfig coarse;
    coarse.mode = TimelineMode::Heatmap;
    coarse.heatmapShades = 3;
    configs.push_back(coarse);

    std::vector<std::string> fresh;
    for (const TimelineConfig &config : configs) {
        TimelineRenderer renderer(tr);
        fresh.push_back(frameBytes(renderer, config));
    }
    // The configs must disagree, or a stale cache could not show.
    EXPECT_NE(fresh[1], fresh[6]);
    EXPECT_NE(fresh[1], fresh[8]);

    for (std::size_t first = 0; first < configs.size(); first++) {
        for (std::size_t second = 0; second < configs.size(); second++) {
            TimelineRenderer renderer(tr);
            ASSERT_EQ(frameBytes(renderer, configs[first]), fresh[first]);
            EXPECT_EQ(frameBytes(renderer, configs[second]), fresh[second])
                << "config " << second << " after config " << first;
        }
    }
}

} // namespace
} // namespace render
} // namespace aftermath
