// Tests for the metrobench harness: percentile selection, open-loop
// late-start accounting and span self-time reduction.

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace metrobench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = Iota(1000);
  EXPECT_EQ(Quantile(v, 0.50), 500);
  // 0.99 * 1000 is 990 in exact arithmetic; rounding must not bump the rank.
  EXPECT_EQ(Quantile(v, 0.99), 990);
  EXPECT_EQ(Quantile(v, 1.0), 1000);
  EXPECT_EQ(Quantile(v, 0.0), 1);
  EXPECT_EQ(Quantile(std::vector<double>{7}, 0.99), 7);
  EXPECT_TRUE(std::isnan(Quantile(std::vector<double>{}, 0.5)));
}

TEST(Percentile, AtLeastTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(Resolvable(1000, 0.99));
  EXPECT_FALSE(Resolvable(999, 0.99));
  EXPECT_FALSE(Resolvable(100, 0.99));
  EXPECT_TRUE(Resolvable(20, 0.50));
  EXPECT_FALSE(Resolvable(19, 0.50));
  EXPECT_FALSE(Resolvable(0, 0.50));
}

TEST(Percentile, SummarizeSortsAndFlagsThinTails) {
  std::vector<double> v = Iota(2000);
  std::reverse(v.begin(), v.end());
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 2000u);
  EXPECT_EQ(s.p50, 1000);
  EXPECT_EQ(s.p99, 1980);
  EXPECT_TRUE(s.p99_resolvable);
  EXPECT_FALSE(Summarize(Iota(500)).p99_resolvable);
}

TEST(Percentile, FailedOpsMissEveryLimit) {
  std::vector<double> v = Iota(1000);
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 20; ++i) v[std::size_t(i)] = inf;
  const LatencySummary s = Summarize(v);
  EXPECT_TRUE(std::isinf(s.p99));
  EXPECT_FALSE(std::isinf(s.p50));
}

TEST(OpenLoop, FixedRateOffsets) {
  const std::vector<TimeNs> offsets = OpenLoop::FixedRate(1000, 4);
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0);
  EXPECT_EQ(offsets[3], 3'000'000);
}

TEST(OpenLoop, LateStartDoesNotShiftTheSchedule) {
  // Ops due at 1'000, 1'001'000, 2'001'000, 3'001'000 and 4'001'000 ns.
  OpenLoop loop(1'000, OpenLoop::FixedRate(1000, 5));
  EXPECT_EQ(loop.Start(0, 1'000), 1'000);  // on time
  EXPECT_EQ(loop.max_lateness(), 0);
  // Op 1 starts 2.5 ms late (a stall), after ops 2 and 3 were due.
  EXPECT_EQ(loop.Start(1, 3'501'000), 1'001'000);
  EXPECT_EQ(loop.max_lateness(), 2'500'000);
  // The backlog does not move later ops' due times, so their latency,
  // measured from Due(), keeps the wait the stall imposed on them.
  EXPECT_EQ(loop.Due(2), 2'001'000);
  EXPECT_EQ(loop.Start(2, 3'600'000), 2'001'000);
  EXPECT_EQ(loop.Start(3, 3'700'000), 3'001'000);
  EXPECT_EQ(loop.max_lateness(), 2'500'000);
  // A start before the due time does not lower the lateness seen so far.
  EXPECT_EQ(loop.Start(4, 4'000'000), 4'001'000);
  EXPECT_EQ(loop.max_lateness(), 2'500'000);
}

TEST(Spans, SelfTimeSubtractsChildrenUnion) {
  // root [0, 100) with children [10, 30) and [20, 50) (overlapping: union
  // 40) and [90, 120) (clipped to 10); a grandchild does not count
  // against the root.
  std::vector<BenchSpan> spans = {
      {"root", nullptr, 1, 0, 100'000},
      {"a", "root", 1, 10'000, 30'000},
      {"b", "root", 1, 20'000, 50'000},
      {"c", "root", 1, 90'000, 120'000},
      {"leaf", "a", 1, 12'000, 14'000},
  };
  const auto t = ReduceSpans(spans);
  ASSERT_EQ(t.at("root").self_us.size(), 1u);
  EXPECT_DOUBLE_EQ(t.at("root").total_us[0], 100);
  EXPECT_DOUBLE_EQ(t.at("root").self_us[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(t.at("a").self_us[0], 20 - 2);
  EXPECT_DOUBLE_EQ(t.at("b").self_us[0], 30);
  EXPECT_DOUBLE_EQ(t.at("leaf").self_us[0], 2);
}

TEST(Spans, OpsAreReducedSeparately) {
  // Same names in two ops: a child of op 2 must not cover op 1's root.
  std::vector<BenchSpan> spans = {
      {"root", nullptr, 1, 0, 10'000},
      {"root", nullptr, 2, 0, 10'000},
      {"kid", "root", 2, 0, 10'000},
  };
  const auto t = ReduceSpans(spans);
  std::vector<double> self = t.at("root").self_us;
  std::sort(self.begin(), self.end());
  EXPECT_EQ(self, (std::vector<double>{0, 10}));
}

TEST(Spans, PerThreadBuffersAreCollected) {
  spans::Clear();
  spans::Record("x", nullptr, 1, 0, 1);
  std::thread([] { spans::Record("y", nullptr, 2, 0, 1); }).join();
  EXPECT_EQ(spans::Collect().size(), 2u);
  spans::Clear();
  EXPECT_TRUE(spans::Collect().empty());
}

TEST(Result, JsonLineShape) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  const std::string line =
      ResultLine(r, {{"latency_p99_ms", 1.25, "ms"},
                     {"bad", std::numeric_limits<double>::infinity(), "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"latency_p99_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"bad\": {\"value\": 1.0000000000000001e+300, "
            "\"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace metrobench
