/** @file Tests of the in-memory trace model: topology, timelines, trace. */

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "trace/trace.h"

namespace aftermath {
namespace trace {
namespace {

TEST(Topology, UniformLayout)
{
    MachineTopology t = MachineTopology::uniform(4, 8, 20);
    EXPECT_EQ(t.numCpus(), 32u);
    EXPECT_EQ(t.numNodes(), 4u);
    EXPECT_EQ(t.nodeOfCpu(0), 0u);
    EXPECT_EQ(t.nodeOfCpu(7), 0u);
    EXPECT_EQ(t.nodeOfCpu(8), 1u);
    EXPECT_EQ(t.nodeOfCpu(31), 3u);
    EXPECT_EQ(t.distance(2, 2), 10u);
    EXPECT_EQ(t.distance(0, 3), 20u);
    EXPECT_EQ(t.cpusOfNode(1).size(), 8u);
    EXPECT_EQ(t.cpusOfNode(1)[0], 8u);
    EXPECT_TRUE(t.valid());
}

TEST(Topology, CustomDistancesAndMapping)
{
    MachineTopology t = MachineTopology::custom(
        {0, 1, 1, 0}, 2, {10, 42, 37, 10});
    EXPECT_EQ(t.numCpus(), 4u);
    EXPECT_EQ(t.distance(0, 1), 42u);
    EXPECT_EQ(t.distance(1, 0), 37u);
    EXPECT_EQ(t.cpusOfNode(0), (std::vector<CpuId>{0, 3}));
    EXPECT_TRUE(t.isLocal(1, 1));
    EXPECT_FALSE(t.isLocal(0, 1));
}

TEST(Topology, DefaultIsInvalid)
{
    MachineTopology t;
    EXPECT_FALSE(t.valid());
    EXPECT_EQ(t.numCpus(), 0u);
}

class CpuTimelineTest : public ::testing::Test
{
  protected:
    CpuTimeline tl;

    void
    addStates(std::initializer_list<StateEvent> events)
    {
        for (const StateEvent &ev : events)
            tl.addState(ev);
    }
};

TEST_F(CpuTimelineTest, StateSliceFindsOverlaps)
{
    addStates({{{0, 10}, 1, 0}, {{10, 30}, 2, 1}, {{40, 50}, 1, 2}});
    std::string err;
    ASSERT_TRUE(tl.finalize(err)) << err;

    SliceRange all = tl.stateSlice({0, 100});
    EXPECT_EQ(all.first, 0u);
    EXPECT_EQ(all.last, 3u);

    SliceRange mid = tl.stateSlice({15, 45});
    EXPECT_EQ(mid.first, 1u);
    EXPECT_EQ(mid.last, 3u);

    SliceRange gap = tl.stateSlice({31, 39});
    EXPECT_TRUE(gap.empty());

    SliceRange touch = tl.stateSlice({10, 11});
    EXPECT_EQ(touch.first, 1u); // [0,10) ends at 10, excluded.
    EXPECT_EQ(touch.last, 2u);
}

TEST_F(CpuTimelineTest, StateSliceMatchesBruteForce)
{
    Rng rng(5);
    TimeStamp t = 0;
    std::vector<StateEvent> events;
    for (int i = 0; i < 300; i++) {
        t += rng.nextBounded(20); // Possible gaps.
        TimeStamp end = t + 1 + rng.nextBounded(30);
        StateEvent ev{{t, end}, static_cast<std::uint32_t>(
            rng.nextBounded(5)), kInvalidTaskInstance};
        events.push_back(ev);
        tl.addState(ev);
        t = end;
    }
    std::string err;
    ASSERT_TRUE(tl.finalize(err)) << err;

    for (int trial = 0; trial < 500; trial++) {
        TimeStamp a = rng.nextBounded(t + 100);
        TimeStamp b = a + rng.nextBounded(200);
        TimeInterval iv{a, b};
        SliceRange slice = tl.stateSlice(iv);
        for (std::size_t i = 0; i < events.size(); i++) {
            bool overlaps = events[i].interval.overlaps(iv);
            bool in_slice = i >= slice.first && i < slice.last;
            // The slice may include non-overlapping events only at the
            // fringes of gaps; it must never exclude an overlapping one.
            if (overlaps) {
                EXPECT_TRUE(in_slice) << "event " << i;
            }
        }
    }
}

TEST_F(CpuTimelineTest, TimeInStateClampsPartialOverlap)
{
    addStates({{{0, 100}, 7, 0}, {{100, 200}, 8, 1}});
    std::string err;
    ASSERT_TRUE(tl.finalize(err)) << err;
    EXPECT_EQ(tl.timeInState(7, {50, 150}), 50u);
    EXPECT_EQ(tl.timeInState(8, {50, 150}), 50u);
    EXPECT_EQ(tl.timeInState(9, {0, 200}), 0u);
    EXPECT_EQ(tl.timeInState(7, {0, 200}), 100u);
}

TEST_F(CpuTimelineTest, FinalizeRejectsOverlappingStates)
{
    addStates({{{0, 10}, 1, 0}, {{5, 15}, 2, 1}});
    std::string err;
    EXPECT_FALSE(tl.finalize(err));
    EXPECT_NE(err.find("overlap"), std::string::npos);
}

TEST_F(CpuTimelineTest, FinalizeRejectsOutOfOrderCounters)
{
    tl.addCounterSample(3, {100, 1});
    tl.addCounterSample(3, {50, 2});
    std::string err;
    EXPECT_FALSE(tl.finalize(err));
}

TEST_F(CpuTimelineTest, CounterSliceAndIds)
{
    tl.addCounterSample(1, {10, 100});
    tl.addCounterSample(1, {20, 200});
    tl.addCounterSample(2, {15, 300});
    std::string err;
    ASSERT_TRUE(tl.finalize(err)) << err;

    EXPECT_EQ(tl.counterIds(), (std::vector<CounterId>{1, 2}));
    SliceRange r = tl.counterSlice(1, {15, 25});
    EXPECT_EQ(r.first, 1u);
    EXPECT_EQ(r.last, 2u);
    EXPECT_TRUE(tl.counterSamples(99).empty());
}

TEST_F(CpuTimelineTest, LastTimeConsidersAllArrays)
{
    tl.addState({{0, 50}, 1, 0});
    tl.addCounterSample(1, {70, 1});
    tl.addDiscrete({60, DiscreteType::TaskCreated, 0});
    EXPECT_EQ(tl.lastTime(), 70u);
}

class TraceTest : public ::testing::Test
{
  protected:
    Trace tr;

    void
    SetUp() override
    {
        tr.setTopology(MachineTopology::uniform(2, 2));
    }
};

TEST_F(TraceTest, FinalizeComputesSpan)
{
    tr.cpu(0).addState({{0, 100}, 0, kInvalidTaskInstance});
    tr.cpu(3).addState({{50, 250}, 2, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;
    EXPECT_EQ(tr.span(), TimeInterval(0, 250));
}

TEST_F(TraceTest, RegionLookupByAddress)
{
    tr.addMemRegion({1, 0x1000, 0x100, 0});
    tr.addMemRegion({2, 0x2000, 0x100, 1});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    EXPECT_EQ(tr.regionContaining(0x1000)->id, 1u);
    EXPECT_EQ(tr.regionContaining(0x10ff)->id, 1u);
    EXPECT_EQ(tr.regionContaining(0x1100), nullptr);
    EXPECT_EQ(tr.regionContaining(0x2080)->id, 2u);
    EXPECT_EQ(tr.regionContaining(0x0), nullptr);
    EXPECT_EQ(tr.region(2)->address, 0x2000u);
    EXPECT_EQ(tr.region(99), nullptr);
}

TEST_F(TraceTest, FinalizeRejectsOverlappingRegions)
{
    tr.addMemRegion({1, 0x1000, 0x200, 0});
    tr.addMemRegion({2, 0x1100, 0x100, 1});
    std::string err;
    EXPECT_FALSE(tr.finalize(err));
    EXPECT_NE(err.find("overlap"), std::string::npos);
}

TEST_F(TraceTest, AccessesGroupedByTask)
{
    tr.addTaskInstance({10, 0xabc, 0, {0, 5}});
    tr.addTaskInstance({11, 0xabc, 1, {5, 9}});
    tr.addMemAccess({11, 0x2000, 8, false});
    tr.addMemAccess({10, 0x1000, 4, true});
    tr.addMemAccess({11, 0x3000, 16, true});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    auto [first10, last10] = tr.accessRange(10);
    ASSERT_EQ(std::distance(first10, last10), 1);
    EXPECT_EQ(first10->address, 0x1000u);
    auto [first11, last11] = tr.accessRange(11);
    ASSERT_EQ(std::distance(first11, last11), 2);
    // Grouping is stable: task 11's accesses keep insertion order.
    EXPECT_EQ(first11[0].address, 0x2000u);
    EXPECT_EQ(first11[1].address, 0x3000u);
    auto [first12, last12] = tr.accessRange(12);
    EXPECT_EQ(std::distance(first12, last12), 0);
}

TEST_F(TraceTest, AccessRangeIsEmptyForUnknownTask)
{
    tr.addTaskInstance({10, 0xabc, 0, {0, 5}});
    tr.addMemAccess({10, 0x1000, 4, true});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    // Unknown ids yield an iterable empty range, not dangling iterators.
    // Ids below and above the known one both miss.
    for (TaskInstanceId id : {TaskInstanceId{0}, TaskInstanceId{999}}) {
        auto [first, last] = tr.accessRange(id);
        EXPECT_EQ(first, last) << "id " << id;
        std::size_t visited = 0;
        for (auto it = first; it != last; ++it)
            visited++;
        EXPECT_EQ(visited, 0u);
    }
    auto [kf, kl] = tr.accessRange(10);
    EXPECT_EQ(std::distance(kf, kl), 1);
}

TEST_F(TraceTest, AccessRangeIsEmptyBeforeFinalize)
{
    tr.addMemAccess({10, 0x1000, 4, true});
    auto [first, last] = tr.accessRange(10);
    EXPECT_EQ(first, last);
}

TEST_F(TraceTest, AccessRangeOnTraceWithoutAccesses)
{
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;
    auto [first, last] = tr.accessRange(0);
    EXPECT_EQ(first, last);
}

/**
 * An 8-CPU trace breaking finalize() rules, in reporting order:
 * overlapping states on cpu 2, out-of-order counter samples on cpu 5,
 * a task instance on invalid cpu 9, overlapping memory regions. The
 * first @p skip violations are left out.
 */
Trace
brokenTrace(int skip)
{
    Trace tr;
    tr.setTopology(MachineTopology::uniform(2, 4));
    if (skip < 1) {
        tr.cpu(2).addState({{0, 10}, 1, 0});
        tr.cpu(2).addState({{5, 15}, 1, 0});
    }
    if (skip < 2) {
        tr.cpu(5).addCounterSample(3, {100, 1});
        tr.cpu(5).addCounterSample(3, {50, 2});
    }
    if (skip < 3)
        tr.addTaskInstance({1, 0xabc, 9, {0, 5}});
    tr.addMemRegion({1, 0x1000, 0x200, 0});
    tr.addMemRegion({2, 0x1100, 0x100, 1});
    return tr;
}

TEST(TraceFinalize, ReportsTheSameErrorWithAndWithoutAPool)
{
    const char *expected[] = {"cpu 2: ", "cpu 5: ",
                              "task instance 1 on invalid cpu 9",
                              "memory regions 1 and 2 overlap"};
    for (int skip = 0; skip < 4; skip++) {
        Trace serial = brokenTrace(skip);
        std::string serial_error;
        ASSERT_FALSE(serial.finalize(serial_error));
        EXPECT_EQ(serial_error.rfind(expected[skip], 0), 0u)
            << serial_error;
        for (unsigned workers : {1u, 4u}) {
            base::ThreadPool pool(workers);
            Trace tr = brokenTrace(skip);
            std::string error;
            EXPECT_FALSE(tr.finalize(error, &pool));
            EXPECT_FALSE(tr.finalized());
            EXPECT_EQ(error, serial_error)
                << "skip " << skip << ", " << workers << " workers";
        }
    }
}

TEST_F(TraceTest, CpuLookupBoundsChecked)
{
    // uniform(2, 2) has CPUs 0..3.
    EXPECT_TRUE(tr.hasCpu(0));
    EXPECT_TRUE(tr.hasCpu(3));
    EXPECT_FALSE(tr.hasCpu(4));
    EXPECT_FALSE(tr.hasCpu(kInvalidCpu));
    EXPECT_NE(tr.cpuOrNull(0), nullptr);
    EXPECT_EQ(tr.cpuOrNull(0), &std::as_const(tr).cpu(0));
    EXPECT_EQ(tr.cpuOrNull(4), nullptr);
    EXPECT_EQ(tr.cpuOrNull(kInvalidCpu), nullptr);
}

TEST_F(TraceTest, InstanceLookupAndNames)
{
    tr.addTaskInstance({42, 0xf00, 2, {10, 30}});
    tr.addStateDescription({5, "custom_state"});
    tr.addCounterDescription({9, "ctr"});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    ASSERT_NE(tr.taskInstance(42), nullptr);
    EXPECT_EQ(tr.taskInstance(42)->duration(), 20u);
    EXPECT_EQ(tr.taskInstance(43), nullptr);
    EXPECT_EQ(tr.stateName(5), "custom_state");
    EXPECT_EQ(tr.stateName(6), "state_6");
    EXPECT_EQ(tr.counterName(9), "ctr");
    EXPECT_EQ(tr.counterName(10), "counter_10");
}

TEST_F(TraceTest, FinalizeRejectsInstanceOnInvalidCpu)
{
    tr.addTaskInstance({1, 0xf00, 99, {0, 1}});
    std::string err;
    EXPECT_FALSE(tr.finalize(err));
}

TEST(TraceNoTopology, FinalizeFails)
{
    Trace tr;
    std::string err;
    EXPECT_FALSE(tr.finalize(err));
    EXPECT_NE(err.find("topology"), std::string::npos);
}

} // namespace
} // namespace trace
} // namespace aftermath
