// Unit tests of the benchmark's own arithmetic and input generation.

#include <gtest/gtest.h>

#include "served.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, PicksTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tailPercentile(10), 0.0);   // even the median leaves only 5
  EXPECT_EQ(tailPercentile(20), 50.0);  // 10 beyond p50
  EXPECT_EQ(tailPercentile(39), 50.0);  // p75 leaves 9
  EXPECT_EQ(tailPercentile(40), 75.0);  // p75 leaves 10
  EXPECT_EQ(tailPercentile(50), 80.0);
  EXPECT_EQ(tailPercentile(199), 90.0);  // p95 leaves 9
  EXPECT_EQ(tailPercentile(200), 95.0);
  EXPECT_EQ(tailPercentile(1000), 99.0);
  EXPECT_EQ(tailPercentile(10000), 99.9);
}

TEST(TailPercentile, MinSamplesIsTheInverse) {
  for (const double p : {50.0, 75.0, 80.0, 90.0, 95.0, 99.0}) {
    const std::size_t n = minSamplesFor(p);
    EXPECT_GE(samplesBeyond(n, p), 10u) << p;
    EXPECT_LT(samplesBeyond(n - 1, p), 10u) << p;
    EXPECT_GE(tailPercentile(n), p) << p;
  }
}

TEST(Percentile, NearestRankAndMedian) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 50), 3.0);
  EXPECT_EQ(percentile(v, 80), 4.0);
  EXPECT_EQ(percentile(v, 100), 5.0);
  EXPECT_EQ(median(v), 3.0);
  EXPECT_EQ(median({1, 2, 3, 4}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(std::int64_t id, std::int64_t parent, const char* layer, double start,
          double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  // bench [0, 10] > engine [1, 4] > mcmc [2, 3]; bench > serve [5, 9]
  const std::vector<Span> spans = {
      span(0, -1, "bench", 0, 10), span(1, 0, "engine", 1, 4),
      span(2, 1, "mcmc", 2, 3), span(3, 0, "serve", 5, 9)};
  const auto self = selfTimeByLayer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("engine"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("mcmc"), 1.0);
  EXPECT_DOUBLE_EQ(self.at("serve"), 4.0);
}

TEST(SelfTime, OverlappingChildrenAreCountedOnceAndClipped) {
  // Two concurrent children overlap on [3, 5]; a third pokes out past the
  // parent's end. The parent's covered part is [2, 6] and [7, 8]: 5 of 8.
  const std::vector<Span> spans = {
      span(0, -1, "serve", 0, 8), span(1, 0, "engine", 2, 5),
      span(2, 0, "engine", 3, 6), span(3, 0, "stream", 7, 12)};
  const auto self = selfTimeByLayer(spans);
  EXPECT_DOUBLE_EQ(self.at("serve"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("engine"), 3.0 + 3.0);
  EXPECT_DOUBLE_EQ(self.at("stream"), 5.0);
}

TEST(SelfTime, SameLayerLogsAcrossThreads) {
  SpanLog log(true);
  {
    ScopedSpan outer(log, "bench.request", "bench", 7);
    log.record("serve.submit", "serve", 7, outer.id(), log.now(), log.now() + 0.5);
  }
  const std::vector<Span> spans = log.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const Span& s : spans) EXPECT_EQ(s.job, 7u);
  SpanLog off(false);
  { ScopedSpan ignored(off, "x", "bench", 1); }
  EXPECT_TRUE(off.snapshot().empty());
}

TEST(ServedInputs, SameSeedSameScheduleAndImages) {
  const auto a = served::makeSchedule(11, 5.0, 200);
  const auto b = served::makeSchedule(11, 5.0, 200);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].image, b[i].image);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
  const auto c = served::makeSchedule(12, 5.0, 200);
  EXPECT_NE(a.front().at, c.front().at);

  const served::Inputs x = served::makeInputs(11);
  const served::Inputs y = served::makeInputs(11);
  ASSERT_EQ(x.hotU8.size(), y.hotU8.size());
  ASSERT_EQ(x.freshU8.size(), y.freshU8.size());
  for (std::size_t k = 0; k < x.hotU8.size(); ++k) {
    EXPECT_EQ(x.hotU8[k].pixels(), y.hotU8[k].pixels());
  }
  for (std::size_t k = 0; k < x.freshU8.size(); ++k) {
    EXPECT_EQ(x.freshU8[k].pixels(), y.freshU8[k].pixels());
  }
  EXPECT_EQ(x.heavyU8.pixels(), y.heavyU8.pixels());
  EXPECT_NE(x.freshU8[0].pixels(), served::makeInputs(12).freshU8[0].pixels());
}

TEST(SloTally, FailuresAndRefusalsCountAsMisses) {
  SloTally slo;
  slo.setLimit("light", 0.1);
  slo.setLimit("heavy", 1.0);
  slo.record("light", 0.05, true);   // met
  slo.record("light", 0.20, true);   // too slow
  slo.record("light", 0.01, false);  // fast but failed
  slo.record("heavy", 0.90, true);   // met under the heavy limit
  slo.record("heavy", 0.00, false);  // refused
  EXPECT_EQ(slo.sent(), 5u);
  EXPECT_EQ(slo.met(), 2u);
  EXPECT_DOUBLE_EQ(slo.share(), 0.4);
}

}  // namespace
}  // namespace perfbench
