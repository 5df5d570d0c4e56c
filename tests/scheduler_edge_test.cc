// Edge cases of the discrete-event scheduler: cancellation semantics,
// FIFO ordering at one instant, run_until clock handling, pending-event
// accounting under cancellations, and peek_next_time.
#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.h"

namespace hydra::sim {
namespace {

TEST(SchedulerEdge, CancelAfterRunReturnsFalse) {
  Scheduler sched;
  int runs = 0;
  const auto id = sched.schedule_in(Duration::millis(1), [&] { ++runs; });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(sched.cancel(id));  // already executed
}

TEST(SchedulerEdge, CancelTwiceReturnsFalseTheSecondTime) {
  Scheduler sched;
  const auto id = sched.schedule_in(Duration::millis(1), [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
  EXPECT_EQ(sched.run(), 0u);
}

TEST(SchedulerEdge, InvalidIdCancelReturnsFalse) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
}

TEST(SchedulerEdge, SameInstantEventsRunInSchedulingOrder) {
  Scheduler sched;
  std::vector<int> order;
  const auto at = TimePoint::at(Duration::millis(5));
  for (int i = 0; i < 8; ++i) {
    sched.schedule_at(at, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SchedulerEdge, FifoHoldsForEventsScheduledFromCallbacks) {
  Scheduler sched;
  std::vector<int> order;
  const auto at = TimePoint::at(Duration::millis(5));
  sched.schedule_at(at, [&] {
    order.push_back(0);
    // Same-instant event scheduled while running: goes to the back.
    sched.schedule_at(at, [&] { order.push_back(2); });
  });
  sched.schedule_at(at, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerEdge, RunUntilAdvancesNowAndKeepsLaterEventsQueued) {
  Scheduler sched;
  int early = 0, late = 0;
  sched.schedule_in(Duration::millis(10), [&] { ++early; });
  sched.schedule_in(Duration::millis(30), [&] { ++late; });
  const auto deadline = TimePoint::at(Duration::millis(20));
  EXPECT_EQ(sched.run_until(deadline), 1u);
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(sched.now(), deadline);  // clock lands on the deadline
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(late, 1);
}

TEST(SchedulerEdge, PendingEventsExcludesCancellations) {
  Scheduler sched;
  const auto a = sched.schedule_in(Duration::millis(1), [] {});
  sched.schedule_in(Duration::millis(2), [] {});
  const auto c = sched.schedule_in(Duration::millis(3), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_TRUE(sched.cancel(a));
  EXPECT_TRUE(sched.cancel(c));
  EXPECT_EQ(sched.pending_events(), 1u);
  // Only the surviving event executes and the counters settle.
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 1u);
}

TEST(SchedulerEdge, PeekNextTimeSkipsCancelledHeads) {
  Scheduler sched;
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
  const auto a = sched.schedule_in(Duration::millis(1), [] {});
  sched.schedule_in(Duration::millis(2), [] {});
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(1)));
  // Cancelling the head must not leave a stale peek: the tombstone is
  // dropped and the next live event surfaces.
  EXPECT_TRUE(sched.cancel(a));
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(2)));
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
}

}  // namespace
}  // namespace hydra::sim
