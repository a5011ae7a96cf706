/**
 * @file
 * The timeline renderer and its five modes.
 *
 * The timeline shows the activity of each processor over time (paper
 * section II-B): state mode, task-duration heatmap, task-type map, NUMA
 * read/write maps and the NUMA heatmap. Rendering follows the paper's
 * optimizations (section VI-B): every pixel is drawn exactly once with the
 * predominant color of its interval, and runs of equal-colored adjacent
 * pixels are aggregated into single rectangle fills.
 *
 * A frame costs O(visible runs + boundary pixels), not O(pixels). The
 * width + 1 pixel edges are computed once per frame and shared by
 * every lane. When one state event covers a whole pixel it
 * alone decides that pixel and every following pixel it also covers,
 * so the whole run takes the event's color (or the lane background
 * when the task filter hides it) in one step. Only the boundary pixels,
 * where events meet, go through the per-event predominant-color
 * resolution. RenderStats::eventsVisited therefore counts runs plus
 * the events of boundary pixels. The image is bit-identical to
 * resolving every pixel on its own, which resolvePixel does and the
 * property tests compare against.
 *
 * Pyramid-backed State frames (TimelineConfig::resolution) read each
 * pixel column's state occupancy from the flat summary pyramid
 * (index/summary_pyramid.h) into per-slot buffers the renderer reuses,
 * so neither path allocates per pixel.
 */

#ifndef AFTERMATH_RENDER_TIMELINE_RENDERER_H
#define AFTERMATH_RENDER_TIMELINE_RENDERER_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/resolution.h"
#include "base/time_interval.h"
#include "filter/task_filter.h"
#include "render/color.h"
#include "render/framebuffer.h"
#include "render/layout.h"
#include "render/render_stats.h"
#include "trace/trace.h"

namespace aftermath {

namespace index {
class TracePyramids;
} // namespace index

namespace render {

/** The five timeline modes of paper section II-B. */
enum class TimelineMode {
    State,      ///< Worker states over time (default).
    Heatmap,    ///< Task durations as shades of red.
    TypeMap,    ///< One color per task type.
    NumaRead,   ///< Node holding most data read per task.
    NumaWrite,  ///< Node holding most data written per task.
    NumaHeatmap,///< Remote-access fraction, blue (local) to pink (remote).
};

/** Configuration of one timeline rendering pass. */
struct TimelineConfig
{
    TimelineMode mode = TimelineMode::State;

    /** Visible interval; empty means the whole trace span. */
    TimeInterval view;

    /**
     * Heatmap duration range. When max is 0 the range adapts to the
     * shortest/longest task currently displayed (paper section II-B).
     */
    TimeStamp heatmapMin = 0;
    TimeStamp heatmapMax = 0;

    /** Number of discrete heatmap shades (the paper uses 10). */
    std::uint32_t heatmapShades = 10;

    /** Optional task filter; non-matching tasks are not drawn. */
    const filter::TaskFilter *taskFilter = nullptr;

    /**
     * Resolution request (base/resolution.h). A non-Exact request lets
     * State-mode renders answer each pixel column from the summary
     * pyramid's occupancy — sub-pixel vertical bands showing the state
     * mix instead of the per-event predominant color — when `pyramids`
     * is set, no task filter is active, and a pixel spans at least one
     * pyramid leaf. Exact (the default) always renders per event.
     */
    Resolution resolution;

    /**
     * Pyramid store backing non-Exact renders; owned by the caller and
     * kept alive across the render (Session wires its own and the
     * async executor holds a shared reference).
     */
    index::TracePyramids *pyramids = nullptr;
};

/**
 * Renders a trace's timeline into a framebuffer.
 *
 * The renderer is independent of any particular framebuffer: construct it
 * once per trace and pass the target buffer to each render call. Internal
 * caches (task type palette assignment) persist across renders, which is
 * what session::Session relies on for repeated interactive redraws.
 */
class TimelineRenderer
{
  public:
    /** A renderer for @p trace; pass the framebuffer per render call. */
    explicit TimelineRenderer(const trace::Trace &trace);

    /**
     * Render into @p fb with the paper's optimizations: per-pixel
     * predominant color resolution and aggregation of equal adjacent
     * pixels into single rectangles.
     */
    void render(const TimelineConfig &config, Framebuffer &fb);

    /**
     * Render naively into @p fb: one rectangle per visible event, drawn
     * in trace order. Produces (approximately) the same image but issues
     * one operation per event — the baseline of the Fig 20 comparison.
     */
    void renderNaive(const TimelineConfig &config, Framebuffer &fb);

    /** Operation counts of the last render call. */
    const RenderStats &stats() const { return stats_; }

    /**
     * The color the optimized path assigns to pixel @p x of @p cpu's
     * lane, resolved independently through binary-search slicing. Used
     * by property tests to cross-check the scanning fast path.
     */
    Rgba resolvePixel(const TimelineConfig &config,
                      const TimelineLayout &layout, CpuId cpu,
                      std::uint32_t x);

  private:
    /** True when this render can answer from the summary pyramids. */
    bool usePyramids(const TimelineConfig &config,
                     const TimelineLayout &layout) const;

    /**
     * Pyramid-backed lane: every pixel column drawn as sub-pixel
     * vertical bands of the column's state occupancy (largest-remainder
     * rounding, states in id order, uncovered time as lane background).
     */
    void renderPyramidLane(const TimelineConfig &config,
                           const TimelineLayout &layout, CpuId cpu,
                           Framebuffer &fb);

    /**
     * Resolve every pixel column color of one CPU lane into row_: a run
     * of pixels one event covers whole in one step (fillRun), each
     * remaining boundary pixel through resolveInterval.
     */
    void resolveLane(const TimelineConfig &config,
                     const TimelineLayout &layout, CpuId cpu);

    /**
     * Color pixel @p x, which @p ev covers whole, and every following
     * pixel @p ev also covers whole; returns the first pixel after the
     * run.
     */
    std::uint32_t fillRun(const TimelineConfig &config, CpuId cpu,
                          const trace::StateEvent &ev, std::uint32_t x);

    /** Predominant-color resolution over a slice of state events. */
    Rgba resolveInterval(const TimelineConfig &config, CpuId cpu,
                         const std::vector<trace::StateEvent> &states,
                         std::size_t first, std::size_t last,
                         const TimeInterval &pixel);

    /** Background color of @p cpu's lane. */
    static Rgba laneBackground(CpuId cpu);

    /** Color of a task in non-state modes (heatmap/typemap/NUMA). */
    std::optional<Rgba> taskColor(const TimelineConfig &config,
                                  TaskInstanceId id);

    /** Remote-access fraction of a task, cached. */
    double taskRemoteFraction(TaskInstanceId id, CpuId cpu);

    /** True if the task passes the config's filter. */
    bool taskVisible(const TimelineConfig &config, TaskInstanceId id) const;

    /** Compute the effective heatmap duration range for this view. */
    void prepareHeatmapRange(const TimelineConfig &config,
                             const TimeInterval &view);

    /** Map task type id to its palette index. */
    std::size_t typeIndex(TaskTypeId type) const;

    const trace::Trace &trace_;
    RenderStats stats_;

    TimeStamp effectiveHeatMin_ = 0;
    TimeStamp effectiveHeatMax_ = 0;

    /** One state's share of a pyramid pixel column. */
    struct Band
    {
        std::uint32_t state;
        double exact;
        std::uint32_t rows;
    };

    // Per-frame buffers, reused across renders so a frame allocates
    // nothing once the renderer is warm.
    /** Pixel x covers [edges_[x], edges_[x + 1]). */
    std::vector<TimeStamp> edges_;
    std::vector<Rgba> row_; ///< One exact lane's pixel colors.
    /** (state, time) sums of one boundary pixel. */
    std::vector<std::pair<std::uint32_t, TimeStamp>> stateTime_;
    std::vector<double> partialTime_; ///< Pyramid column, boundary leaves.
    std::vector<TimeStamp> exactTime_; ///< Pyramid column, whole leaves.
    std::vector<Band> bands_;          ///< Pyramid column bands.

    /** What taskColor() results depend on besides the trace. */
    struct ColorKey
    {
        TimelineMode mode;
        TimeStamp heatMin;
        TimeStamp heatMax;
        std::uint32_t shades;

        bool operator==(const ColorKey &) const = default;
    };

    // Caches kept across frames: task colors while colorKey_ holds
    // (render() clears them when it changes), remote fractions for the
    // renderer's life (they depend on the bound trace only).
    std::unordered_map<TaskInstanceId, Rgba> taskColorCache_;
    std::optional<ColorKey> colorKey_;
    std::unordered_map<TaskInstanceId, double> remoteFractionCache_;
    std::unordered_map<TaskTypeId, std::size_t> typeIndexCache_;
};

} // namespace render
} // namespace aftermath

#endif // AFTERMATH_RENDER_TIMELINE_RENDERER_H
