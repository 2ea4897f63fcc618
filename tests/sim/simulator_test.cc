#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace comma::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.QueueSize(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, SameTimeEventsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  bool ran = false;
  sim.Schedule(-50, [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, ScheduleAtPastTimeClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  TimePoint seen = -1;
  sim.ScheduleAt(10, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 100);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<TimePoint> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.Now());
    sim.Schedule(10, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<TimePoint>{10, 20}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(i * 10, [&] { ++count; });
  }
  sim.RunUntil(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), 50);
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(12345);
  EXPECT_EQ(sim.Now(), 12345);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunUntil(100);
  int count = 0;
  sim.Schedule(50, [&] { ++count; });
  sim.Schedule(150, [&] { ++count; });
  sim.RunFor(100);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.Now(), 200);
}

TEST(SimulatorTest, RunWithLimitStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(i, [&] { ++count; });
  }
  EXPECT_EQ(sim.Run(10), 10u);
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, TimerCancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  TimerId id = sim.ScheduleTimer(100, [&] { ran = true; });
  EXPECT_TRUE(sim.IsPending(id));
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.IsPending(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, TimerCancelAfterFireReturnsFalse) {
  Simulator sim;
  TimerId id = sim.ScheduleTimer(10, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_FALSE(sim.IsPending(id));
}

TEST(SimulatorTest, CancelOneOfManyTimers) {
  Simulator sim;
  std::vector<int> fired;
  TimerId a = sim.ScheduleTimer(10, [&] { fired.push_back(1); });
  sim.ScheduleTimer(20, [&] { fired.push_back(2); });
  sim.ScheduleTimer(30, [&] { fired.push_back(3); });
  sim.Cancel(a);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
}

TEST(SimulatorTest, EventsRunCounterCountsOnlyExecuted) {
  Simulator sim;
  TimerId id = sim.ScheduleTimer(5, [] {});
  sim.Schedule(10, [] {});
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(sim.EventsRun(), 1u);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, UidsComeFromTheExecutingRegion) {
  Simulator sim;
  const RegionId edge = sim.AddRegion("edge");
  std::vector<uint64_t> main_ids;
  std::vector<uint64_t> edge_ids;
  sim.Schedule(1, [&] {
    main_ids.push_back(NextUid());
    main_ids.push_back(NextUid());
  });
  sim.ScheduleInRegion(edge, 1, [&] { edge_ids.push_back(NextUid()); });
  sim.Run();
  // Region 0 ids are bare shard-local counters; other regions carry their
  // id in the top 16 bits.
  EXPECT_EQ(main_ids, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(edge_ids, (std::vector<uint64_t>{uint64_t{edge} << 48 | 1}));
}

TEST(SimulatorTest, SetupUidsComeFromTheReservedRegionAndResetRewinds) {
  Simulator sim;
  const uint64_t setup = uint64_t{kSetupUidRegion} << 48;
  EXPECT_EQ(NextUid(), setup | 1);
  EXPECT_EQ(NextUid(), setup | 2);
  uint64_t in_event = 0;
  sim.Schedule(1, [&] { in_event = NextUid(); });
  sim.Run();
  EXPECT_EQ(in_event, 1u);

  sim.Reset();
  EXPECT_EQ(NextUid(), setup | 1);
  sim.Schedule(1, [&] { in_event = NextUid(); });
  sim.Run();
  EXPECT_EQ(in_event, 1u);

  Simulator fresh;
  EXPECT_EQ(NextUid(), setup | 1);
}

TEST(TimeTest, FormatTimeRendersSeconds) {
  EXPECT_EQ(FormatTime(0), "0.000000s");
  EXPECT_EQ(FormatTime(1500000), "1.500000s");
  EXPECT_EQ(FormatTime(42), "0.000042s");
}

TEST(TimeTest, SecondsConversionRoundTrips) {
  EXPECT_EQ(SecondsToDuration(1.5), 1500000);
  EXPECT_DOUBLE_EQ(DurationToSeconds(2500000), 2.5);
}

}  // namespace
}  // namespace comma::sim
