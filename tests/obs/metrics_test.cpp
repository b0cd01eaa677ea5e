#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/check.h"
#include "support/json.h"

namespace mb::obs {
namespace {

TEST(Metrics, CounterFindOrCreateAccumulates) {
  Registry r;
  Counter& c = r.counter("x");
  c.inc();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(r.counter("x").value(), 3.5);
  EXPECT_EQ(&r.counter("x"), &c);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  Registry r;
  Counter& a = r.counter("x", {{"b", "2"}, {"a", "1"}});
  Counter& b = r.counter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.counter_key(0), "x{a=1,b=2}");
}

TEST(Metrics, DifferentLabelsAreDifferentSeries) {
  Registry r;
  r.counter("x", {{"rank", "0"}}).add(1.0);
  r.counter("x", {{"rank", "1"}}).add(2.0);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.counter("x", {{"rank", "0"}}).value(), 1.0);
  EXPECT_DOUBLE_EQ(r.counter("x", {{"rank", "1"}}).value(), 2.0);
}

TEST(Metrics, DuplicateLabelKeysRejected) {
  Registry r;
  EXPECT_THROW(r.counter("x", {{"a", "1"}, {"a", "2"}}), support::Error);
}

TEST(Metrics, TypeMismatchRejected) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), support::Error);
  EXPECT_THROW(r.histogram("x", {1.0}), support::Error);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Registry r;
  Histogram& h = r.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(-3.0);  // below the first bound -> first bucket
  h.observe(1.0);   // exactly on a bound -> that bucket (le semantics)
  h.observe(1.0001);
  h.observe(4.0);
  h.observe(4.5);  // past the last bound -> overflow
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), -3.0 + 1.0 + 1.0001 + 4.0 + 4.5);
}

TEST(Metrics, HistogramBoundsMustMatchOnRelookup) {
  Registry r;
  r.histogram("lat", {1.0, 2.0});
  EXPECT_NO_THROW(r.histogram("lat", {1.0, 2.0}));
  EXPECT_THROW(r.histogram("lat", {1.0, 3.0}), support::Error);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), support::Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), support::Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), support::Error);
}

TEST(Metrics, ResetZeroesValuesButKeepsHandlesValid) {
  Registry r;
  Counter& c = r.counter("x");
  Gauge& g = r.gauge("g");
  Histogram& h = r.histogram("h", {1.0});
  c.add(5.0);
  g.set(7.0);
  h.observe(0.5);
  r.reset();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // the handle still feeds the registered series
  EXPECT_DOUBLE_EQ(r.counter("x").value(), 1.0);
}

TEST(Metrics, CounterSubsetIndexesOnlyCounters) {
  Registry r;
  r.counter("a");
  r.gauge("g");
  r.counter("b", {{"k", "v"}});
  r.histogram("h", {1.0});
  ASSERT_EQ(r.counter_count(), 2u);
  EXPECT_EQ(r.counter_key(0), "a");
  EXPECT_EQ(r.counter_key(1), "b{k=v}");
  EXPECT_THROW(r.counter_value(2), support::Error);
}

TEST(Metrics, SnapshotRoundTripsThroughJson) {
  Registry r;
  r.counter("bytes", {{"rank", "3"}}).add(4096.0);
  r.gauge("depth").set(17.0);
  Histogram& h = r.histogram("lat", {1.0, 8.0});
  h.observe(0.5);
  h.observe(100.0);

  const auto before = r.snapshot();
  support::JsonWriter w;
  write_metrics_json(w, before);
  const auto after = parse_metrics_json(support::parse_json(w.str()));

  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].type, before[i].type);
    EXPECT_EQ(after[i].labels, before[i].labels);
    EXPECT_DOUBLE_EQ(after[i].value, before[i].value);
    EXPECT_EQ(after[i].bounds, before[i].bounds);
    EXPECT_EQ(after[i].counts, before[i].counts);
    EXPECT_EQ(after[i].overflow, before[i].overflow);
    EXPECT_EQ(after[i].count, before[i].count);
  }
  EXPECT_EQ(after[0].key(), "bytes{rank=3}");
}

TEST(Metrics, RelookupOfManyLabelledSeriesReturnsSameHandles) {
  Registry r;
  std::vector<Counter*> handles;
  for (int i = 0; i < 10000; ++i)
    handles.push_back(
        &r.counter("mpi.bytes_sent", {{"rank", std::to_string(i)}}));
  ASSERT_EQ(r.size(), 10000u);
  for (int i = 9999; i >= 0; --i)
    EXPECT_EQ(&r.counter("mpi.bytes_sent", {{"rank", std::to_string(i)}}),
              handles[static_cast<std::size_t>(i)]);
  EXPECT_EQ(r.size(), 10000u);
}

TEST(Metrics, ClearThenReregister) {
  Registry r;
  r.counter("x", {{"rank", "0"}}).add(3.0);
  r.gauge("g").set(1.0);
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.counter_count(), 0u);
  // Same identities, now with other types: the old index entries are gone.
  Gauge& g = r.gauge("x", {{"rank", "0"}});
  Counter& c = r.counter("g");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(&r.gauge("x", {{"rank", "0"}}), &g);
  EXPECT_EQ(&r.counter("g"), &c);
  EXPECT_EQ(r.size(), 2u);
  ASSERT_EQ(r.counter_count(), 1u);
  EXPECT_EQ(r.counter_key(0), "g");
}

TEST(Metrics, SeriesWithCollidingPlainKeysStayDistinct) {
  Registry r;
  // Each pair spells the same "name{k=v,...}" text, or the same string
  // when name, keys and values are simply concatenated.
  Counter& a = r.counter("x{a=1}");
  Counter& b = r.counter("x", {{"a", "1"}});
  Counter& c = r.counter("x", {{"a", "1,b=2"}});
  Counter& d = r.counter("x", {{"a", "1"}, {"b", "2"}});
  Counter& e = r.counter("a", {{"bc", "d"}});
  Counter& f = r.counter("ab", {{"c", "d"}});
  Counter& g = r.counter("y", {{"k", "vw"}});
  Counter& h = r.counter("y", {{"kv", "w"}});
  const std::vector<Counter*> all{&a, &b, &c, &d, &e, &f, &g, &h};
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_NE(all[i], all[j]) << i << " vs " << j;
  EXPECT_EQ(r.size(), all.size());
  EXPECT_EQ(&r.counter("x", {{"a", "1,b=2"}}), &c);
  EXPECT_EQ(&r.counter("ab", {{"c", "d"}}), &f);
}

TEST(Metrics, MismatchesStillThrowOnLabelledSeries) {
  Registry r;
  r.counter("c", {{"rank", "1"}});
  r.histogram("h", {1.0, 2.0}, {{"rank", "1"}});
  EXPECT_THROW(r.gauge("c", {{"rank", "1"}}), support::Error);
  EXPECT_THROW(r.histogram("c", {1.0}, {{"rank", "1"}}), support::Error);
  EXPECT_THROW(r.counter("h", {{"rank", "1"}}), support::Error);
  EXPECT_THROW(r.histogram("h", {1.0, 3.0}, {{"rank", "1"}}),
               support::Error);
  // Other labels are other series: no conflict.
  EXPECT_NO_THROW(r.gauge("c", {{"rank", "2"}}));
  EXPECT_NO_THROW(r.histogram("h", {5.0}, {{"rank", "2"}}));
}

TEST(Metrics, SnapshotKeepsRegistrationOrder) {
  Registry r;
  const std::vector<std::string> names{"z", "a", "m", "b", "y"};
  for (const auto& n : names) {
    r.counter(n, {{"rank", "1"}});
    r.gauge(n);
  }
  r.counter("a", {{"rank", "1"}}).inc();  // re-lookup must not reorder
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 2 * names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(snap[2 * i].key(), names[i] + "{rank=1}");
    EXPECT_EQ(snap[2 * i + 1].key(), names[i]);
  }
}

}  // namespace
}  // namespace mb::obs
