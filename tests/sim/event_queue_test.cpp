#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace mb::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesResolveInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(5.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(10.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StepExecutesOne) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(1.0, [] {}), support::Error);
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), support::Error);
}

TEST(EventQueue, EmptyCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule_at(1.0, EventQueue::Callback{}), support::Error);
}

TEST(EventQueue, ExecutedCountAccumulates) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.executed(), 5u);
}

// Callbacks live in a slab that grows while a callback runs: the running
// callback must already be out of its slot, and every capture must
// survive the slab reallocating under it.
TEST(EventQueue, CallbackGrowsSlabWhileRunning) {
  EventQueue q;
  std::vector<int> order;
  const std::array<int, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
  q.schedule_at(1.0, [&q, &order, payload] {
    for (int i = 0; i < 5000; ++i)
      q.schedule_at(2.0 + i, [&order, i] { order.push_back(i); });
    // The lambda's own captures are still intact after 5000 pushes.
    order.push_back(-payload[7]);
  });
  q.run();
  ASSERT_EQ(order.size(), 5001u);
  EXPECT_EQ(order[0], -8);
  for (int i = 0; i < 5000; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  EXPECT_EQ(q.executed(), 5001u);
}

// Interleaved schedule/step reuses vacated slots; the dequeue order must
// still be exactly (time, seq) against a reference priority queue.
TEST(EventQueue, FreedSlotsReusedWithoutReordering) {
  EventQueue q;
  using Ref = std::pair<double, std::uint64_t>;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
  std::vector<std::uint64_t> got;
  std::vector<std::uint64_t> want;
  support::Rng rng(14);
  std::uint64_t id = 0;
  for (int round = 0; round < 2000; ++round) {
    const int pushes = static_cast<int>(rng.index(4));
    for (int p = 0; p < pushes; ++p) {
      // Quantized delays give dense ties between old and reused slots.
      const double t = q.now() + static_cast<double>(rng.index(8));
      ref.emplace(t, id);
      q.schedule_at(t, [&got, id] { got.push_back(id); });
      ++id;
    }
    if (!ref.empty() && rng.index(3) != 0) {
      want.push_back(ref.top().second);
      ref.pop();
      ASSERT_TRUE(q.step());
    }
  }
  while (!ref.empty()) {
    want.push_back(ref.top().second);
    ref.pop();
  }
  q.run();
  EXPECT_EQ(got, want);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PendingCallbacksDestroyedWithQueue) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    for (int i = 0; i < 100; ++i)
      q.schedule_at(1.0 + i, [token] { ++*token; });
    q.run_until(10.0);  // 10 ran and released their captures
    EXPECT_EQ(*token, 10);
    EXPECT_EQ(token.use_count(), 1 + 90);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// A capture over SmallFn's 48-byte inline buffer takes the heap fallback;
// it must move into, out of and be destroyed from the slab like any other.
TEST(EventQueue, OversizedCaptureGoesThroughSlab) {
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 8> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  static_assert(sizeof(big) > 48);
  std::uint64_t sum = 0;
  {
    EventQueue q;
    for (int i = 0; i < 3; ++i)
      q.schedule_at(i, [token, big, &sum] {
        for (std::uint64_t v : big) sum += v;
      });
    q.schedule_at(9.0, [token, big] { (void)big; });
    q.run_until(5.0);
    EXPECT_EQ(sum, 3u * 36u);
    EXPECT_EQ(token.use_count(), 2);  // the never-run event still holds it
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace mb::sim
