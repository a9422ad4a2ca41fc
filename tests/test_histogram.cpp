#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include "common/table.hpp"

namespace smarth {
namespace {

TEST(SummaryStats, BasicMoments) {
  SummaryStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);  // sample variance
}

TEST(SummaryStats, EmptyIsZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryStats, MergeEqualsCombined) {
  SummaryStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryStats, MergeWithEmpty) {
  SummaryStats a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h({1.0, 2.0, 4.0});
  h.add(0.5);   // bucket 0
  h.add(1.5);   // bucket 1
  h.add(2.0);   // bucket 1 (upper bound inclusive via lower_bound)
  h.add(3.0);   // bucket 2
  h.add(100.0); // overflow
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.add(5.0);   // all in [0, 10)
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_LE(h.quantile(1.0), 10.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram({}), std::logic_error);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace smarth
