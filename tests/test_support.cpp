#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace vsensor {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowUnbiasedBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  StreamingStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Mix64, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(StreamingStats, Basics) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, MergeMatchesSequential) {
  StreamingStats a;
  StreamingStats b;
  StreamingStats all;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0, 10);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(StreamingStats, EmptyIsSafe) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, UnsortedInputViaHelper) {
  EXPECT_DOUBLE_EQ(percentile_of({5, 1, 3, 2, 4}, 50), 3.0);
}

TEST(MaxMinRatio, Basics) {
  std::vector<double> v{2.0, 3.0, 6.0};
  EXPECT_DOUBLE_EQ(max_min_ratio(v), 3.0);
  EXPECT_DOUBLE_EQ(max_min_ratio({}), 1.0);
}

TEST(Histogram, PaperBuckets) {
  auto h = make_sense_length_histogram();
  h.add(50e-6);    // <100us
  h.add(1e-3);     // 100us~10ms
  h.add(0.5);      // 10ms~1s
  h.add(2.0);      // >1s
  h.add(99e-6);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.label(0), "<100us");
  EXPECT_EQ(h.label(1), "100us~10ms");
  EXPECT_EQ(h.label(3), ">1s");
}

TEST(Histogram, MergeAddsCounts) {
  auto a = make_sense_length_histogram();
  auto b = make_sense_length_histogram();
  a.add(1e-6);
  b.add(1e-6);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(3), 1u);
}

TEST(Histogram, BoundaryGoesToUpperBucket) {
  auto h = make_sense_length_histogram();
  h.add(100e-6);  // exactly the bound: belongs to [100us, 10ms)
  EXPECT_EQ(h.count(1), 1u);
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, CsvQuotesCommas) {
  TextTable t({"a"});
  t.add_row({"x,y"});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Format, Helpers) {
  EXPECT_EQ(fmt_percent(0.0373), "3.73%");
  EXPECT_EQ(fmt_bytes(9227468.8), "8.8 MB");
  EXPECT_EQ(fmt_double(1.005, 2), "1.00");
  EXPECT_EQ(format_duration(100e-6), "100us");
  EXPECT_EQ(format_duration(0.01), "10ms");
  EXPECT_EQ(format_duration(1.0), "1s");
}

}  // namespace
}  // namespace vsensor
