/**
 * @file
 * Timeline geometry: mapping between trace time and pixels.
 *
 * Each horizontal pixel of the timeline represents an interval of the
 * trace whose duration depends on the zoom level (paper section VI-B,
 * Fig 20). The layout also assigns one horizontal lane per CPU.
 */

#ifndef AFTERMATH_RENDER_LAYOUT_H
#define AFTERMATH_RENDER_LAYOUT_H

#include <cstdint>
#include <vector>

#include "base/time_interval.h"
#include "base/types.h"

namespace aftermath {
namespace render {

/** Maps the visible time interval onto a pixel grid of CPU lanes. */
class TimelineLayout
{
  public:
    /**
     * @param view Visible time interval (the zoom window).
     * @param width Pixel width of the drawing area.
     * @param height Pixel height of the drawing area.
     * @param num_cpus Number of CPU lanes stacked vertically.
     */
    TimelineLayout(const TimeInterval &view, std::uint32_t width,
                   std::uint32_t height, std::uint32_t num_cpus);

    /** The visible interval. */
    const TimeInterval &view() const { return view_; }

    /** Pixel width. */
    std::uint32_t width() const { return width_; }

    /** Pixel height. */
    std::uint32_t height() const { return height_; }

    /** Number of lanes. */
    std::uint32_t numCpus() const { return numCpus_; }

    /** The time interval represented by pixel column @p x. */
    TimeInterval pixelInterval(std::uint32_t x) const;

    /**
     * The width + 1 pixel edges, computed once for a whole frame:
     * pixelInterval(x) is [@p edges[x], @p edges[x + 1]).
     */
    void pixelEdges(std::vector<TimeStamp> &edges) const;

    /** The pixel column containing time @p t (clamped to the view). */
    std::uint32_t timeToPixel(TimeStamp t) const;

    /** Trace duration represented by one pixel column. */
    double cyclesPerPixel() const;

    /** Top y coordinate of CPU @p cpu's lane. */
    std::uint32_t laneTop(CpuId cpu) const;

    /** Height of every lane in pixels (>= 1). */
    std::uint32_t laneHeight() const;

  private:
    /** Start of pixel column @p x; edge(width) is the view's end. */
    TimeStamp edge(std::uint32_t x) const;

    TimeInterval view_;
    std::uint32_t width_;
    std::uint32_t height_;
    std::uint32_t numCpus_;
};

} // namespace render
} // namespace aftermath

#endif // AFTERMATH_RENDER_LAYOUT_H
