#include "render/layout.h"

#include <algorithm>

#include "base/logging.h"

namespace aftermath {
namespace render {

TimelineLayout::TimelineLayout(const TimeInterval &view, std::uint32_t width,
                               std::uint32_t height, std::uint32_t num_cpus)
    : view_(view), width_(width), height_(height), numCpus_(num_cpus)
{
    AFTERMATH_ASSERT(width > 0 && height > 0, "layout area must be positive");
    AFTERMATH_ASSERT(num_cpus > 0, "layout needs at least one cpu lane");
    AFTERMATH_ASSERT(!view.empty(), "layout view interval must be non-empty");
}

TimeStamp
TimelineLayout::edge(std::uint32_t x) const
{
    // Integer split of the view into `width` near-equal pieces; pixel
    // intervals tile the view exactly (no gaps, no overlaps) so that the
    // predominant-state resolution never double-counts time.
    return view_.start +
           static_cast<TimeStamp>(
               (static_cast<unsigned __int128>(view_.duration()) * x) /
               width_);
}

TimeInterval
TimelineLayout::pixelInterval(std::uint32_t x) const
{
    TimeStamp start = edge(x);
    return {start, std::max(edge(x + 1), start)};
}

void
TimelineLayout::pixelEdges(std::vector<TimeStamp> &edges) const
{
    edges.resize(static_cast<std::size_t>(width_) + 1);
    for (std::uint32_t x = 0; x <= width_; x++)
        edges[x] = edge(x);
}

std::uint32_t
TimelineLayout::timeToPixel(TimeStamp t) const
{
    if (t <= view_.start)
        return 0;
    if (t >= view_.end)
        return width_ - 1;
    unsigned __int128 off = t - view_.start;
    std::uint32_t x = static_cast<std::uint32_t>(
        (off * width_) / view_.duration());
    return std::min(x, width_ - 1);
}

double
TimelineLayout::cyclesPerPixel() const
{
    return static_cast<double>(view_.duration()) /
           static_cast<double>(width_);
}

std::uint32_t
TimelineLayout::laneTop(CpuId cpu) const
{
    AFTERMATH_ASSERT(cpu < numCpus_, "cpu %u outside layout", cpu);
    return (height_ * cpu) / numCpus_;
}

std::uint32_t
TimelineLayout::laneHeight() const
{
    return std::max<std::uint32_t>(height_ / numCpus_, 1);
}

} // namespace render
} // namespace aftermath
