// Property tests for the pending-message mailbox: randomized push/pop
// sequences checked against a std::map<key, std::deque> reference, plus
// targeted layouts the random walk may miss — clusters that wrap past the
// end of the table, a grow() in the middle of such a cluster — and the
// bound on table size when messages are matched as they arrive.
#include "mpi/mailbox.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "support/rng.h"

namespace mb::mpi {
namespace {

using Box = Mailbox<std::uint64_t>;
using Reference = std::map<Box::Key, std::deque<std::uint64_t>>;

std::size_t home(Box::Key k, std::size_t capacity) {
  return Box::hash(k) & (capacity - 1);
}

/// `count` distinct keys (source 0..) whose home slot in a table of
/// `capacity` slots is `slot`.
std::vector<Box::Key> keys_homed_at(std::size_t slot, std::size_t capacity,
                                    std::size_t count) {
  std::vector<Box::Key> keys;
  for (std::uint32_t src = 0; keys.size() < count; ++src) {
    const Box::Key k = Box::key(src, 70000);
    if (home(k, capacity) == slot) keys.push_back(k);
  }
  return keys;
}

/// Pops `k` from both and checks they agree. The reference is popped
/// even on a mismatch, so callers draining it always terminate.
void expect_pop(Box& box, Reference& ref, Box::Key k) {
  std::uint64_t got = 0;
  const bool found = box.pop(k, got);
  auto it = ref.find(k);
  if (it == ref.end() || it->second.empty()) {
    EXPECT_FALSE(found) << "key " << k;
    return;
  }
  const std::uint64_t want = it->second.front();
  it->second.pop_front();
  EXPECT_TRUE(found) << "key " << k;
  if (found) {
    EXPECT_EQ(got, want) << "key " << k;
  }
}

void drain_and_compare(Box& box, Reference& ref) {
  for (auto& [k, fifo] : ref) {
    while (!fifo.empty()) expect_pop(box, ref, k);
    expect_pop(box, ref, k);  // now absent
  }
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxTest, KeyRoundTripsSourceAndSignedTag) {
  const Box::Key k = Box::key(4095, -7);
  EXPECT_EQ(Box::source(k), 4095u);
  EXPECT_EQ(Box::tag(k), -7);
  EXPECT_EQ(Box::tag(Box::key(0, (1 << 16) + 4096)), (1 << 16) + 4096);
}

TEST(MailboxTest, EmptyMailboxPopsNothingAndAllocatesNothing) {
  Box box;
  std::uint64_t out = 99;
  EXPECT_FALSE(box.pop(Box::key(0, 0), out));
  EXPECT_EQ(out, 99u);
  EXPECT_EQ(box.capacity(), 0u);
  box.push(Box::key(1, 2), 5);
  EXPECT_EQ(box.capacity(), 8u);
  EXPECT_FALSE(box.pop(Box::key(2, 1), out));
  ASSERT_TRUE(box.pop(Box::key(1, 2), out));
  EXPECT_EQ(out, 5u);
  EXPECT_FALSE(box.pop(Box::key(1, 2), out));
}

TEST(MailboxTest, ManyEntriesOnOneKeyComeOutFifo) {
  Box box;
  const Box::Key k = Box::key(3, 11);
  for (std::uint64_t i = 0; i < 1000; ++i) box.push(k, i);
  box.push(Box::key(4, 11), 5000);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(box.pop(k, out));
    EXPECT_EQ(out, i);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(box.pop(k, out));
  ASSERT_TRUE(box.pop(Box::key(4, 11), out));
  EXPECT_EQ(out, 5000u);
}

TEST(MailboxTest, ClusterWrappingPastTheEndKeepsFifoOrder) {
  // Two keys homed at the last slot of an 8-slot table: their entries
  // fill slots 7, 0, 1 and pops must walk the wrapped cluster in order.
  const auto keys = keys_homed_at(7, 8, 2);
  Box box;
  Reference ref;
  const std::uint64_t values[] = {10, 20, 11};
  const Box::Key order[] = {keys[0], keys[1], keys[0]};
  for (int i = 0; i < 3; ++i) {
    box.push(order[i], values[i]);
    ref[order[i]].push_back(values[i]);
  }
  ASSERT_EQ(box.capacity(), 8u);
  // Removing the head of the cluster shifts the wrapped entries back.
  expect_pop(box, ref, keys[0]);
  expect_pop(box, ref, keys[1]);
  box.push(keys[1], 21);
  ref[keys[1]].push_back(21);
  drain_and_compare(box, ref);
}

TEST(MailboxTest, GrowInsideAWrappedClusterKeepsFifoOrder) {
  // Four entries of two keys homed at slot 7 occupy 7, 0, 1, 2; the fifth
  // push doubles the table while that cluster wraps.
  const auto keys = keys_homed_at(7, 8, 2);
  Box box;
  Reference ref;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const Box::Key k = keys[i % 2];
    box.push(k, i);
    ref[k].push_back(i);
  }
  ASSERT_EQ(box.capacity(), 8u);
  box.push(keys[0], 4);
  ref[keys[0]].push_back(4);
  EXPECT_EQ(box.capacity(), 16u);
  EXPECT_EQ(box.size(), 5u);
  drain_and_compare(box, ref);
}

TEST(MailboxTest, RandomizedAgainstMapOfDeques) {
  // Few sources and tags so keys repeat, clusters form and wrap, and the
  // table grows mid-sequence; pops hit absent keys about a third of the
  // time.
  support::Rng rng(2013);
  for (int trial = 0; trial < 200; ++trial) {
    Box box;
    Reference ref;
    std::size_t pending = 0;
    const std::size_t sources = 1 + rng.index(12);
    const std::size_t tags = 1 + rng.index(6);
    const std::size_t steps = 50 + rng.index(1500);
    const double push_bias = rng.uniform(0.35, 0.65);
    for (std::size_t step = 0; step < steps; ++step) {
      // Tags start at -1: negative user tags match literally too.
      const Box::Key k =
          Box::key(static_cast<std::uint32_t>(rng.index(sources)),
                   static_cast<std::int32_t>(rng.index(tags)) - 1);
      if (rng.bernoulli(push_bias)) {
        const std::uint64_t v = rng();
        box.push(k, v);
        ref[k].push_back(v);
        ++pending;
      } else {
        const auto it = ref.find(k);
        if (it != ref.end() && !it->second.empty()) --pending;
        expect_pop(box, ref, k);
      }
      ASSERT_EQ(box.size(), pending) << "trial " << trial << " step "
                                     << step;
      ASSERT_LE(box.size() * 2, box.capacity());
    }
    drain_and_compare(box, ref);
    ASSERT_FALSE(HasFailure()) << "trial " << trial;
  }
}

TEST(MailboxTest, ForEachVisitsEveryPendingEntry) {
  Box box;
  std::map<Box::Key, std::uint64_t> sums;
  for (std::uint32_t src = 0; src < 20; ++src) {
    for (std::uint64_t v = 1; v <= 3; ++v) {
      box.push(Box::key(src, 1), v * (src + 1));
      sums[Box::key(src, 1)] += v * (src + 1);
    }
  }
  std::map<Box::Key, std::uint64_t> seen;
  box.for_each([&](Box::Key k, std::uint64_t v) { seen[k] += v; });
  EXPECT_EQ(seen, sums);
}

TEST(MailboxTest, TableSizeIsBoundedByPendingNotByMessagesReceived) {
  // 100k messages on distinct keys (a fresh tag each, as every collective
  // occurrence brings), matched with at most three pending at once.
  Box box;
  std::uint64_t popped = 0;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    box.push(Box::key(i % 7, static_cast<std::int32_t>(i)), i);
    if (i >= 2) {
      std::uint64_t out = 0;
      const std::uint32_t j = i - 2;
      ASSERT_TRUE(box.pop(Box::key(j % 7, static_cast<std::int32_t>(j)),
                          out));
      EXPECT_EQ(out, j);
      ++popped;
    }
  }
  EXPECT_EQ(popped, 99998u);
  EXPECT_EQ(box.size(), 2u);
  EXPECT_LE(box.capacity(), 16u);
}

}  // namespace
}  // namespace mb::mpi
