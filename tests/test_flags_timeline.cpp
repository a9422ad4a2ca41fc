// Tests for the CLI flag parser and the --timeline strip chart.
#include <gtest/gtest.h>

#include "common/flags.hpp"
#include "metrics/report.hpp"

namespace smarth {
namespace {

FlagSet make_flags() {
  FlagSet flags("test");
  flags.declare("cluster", "cluster name", "small");
  flags.declare("size-gb", "upload size", "1");
  flags.declare("seed", "rng seed", "42");
  flags.declare_bool("verbose", "logging");
  return flags;
}

Status parse(FlagSet& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return flags.parse(static_cast<int>(args.size()), args.data());
}

TEST(Flags, DefaultsApply) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(parse(flags, {}).ok());
  EXPECT_EQ(flags.get("cluster"), "small");
  EXPECT_EQ(flags.get_int("seed"), 42);
  EXPECT_FALSE(flags.get_bool("verbose"));
  EXPECT_FALSE(flags.has("cluster"));  // not explicitly set
}

TEST(Flags, EqualsForm) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--cluster=hetero", "--size-gb=2.5"}).ok());
  EXPECT_EQ(flags.get("cluster"), "hetero");
  EXPECT_DOUBLE_EQ(*flags.get_double("size-gb"), 2.5);
  EXPECT_TRUE(flags.has("cluster"));
}

TEST(Flags, SpaceForm) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--cluster", "medium", "--seed", "7"}).ok());
  EXPECT_EQ(flags.get("cluster"), "medium");
  EXPECT_EQ(flags.get_int("seed"), 7);
}

TEST(Flags, BoolWithoutValue) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--verbose"}).ok());
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, UnknownFlagRejected) {
  FlagSet flags = make_flags();
  const Status status = parse(flags, {"--nope=1"});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "unknown_flag");
}

TEST(Flags, MissingValueRejected) {
  FlagSet flags = make_flags();
  const Status status = parse(flags, {"--cluster"});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "missing_value");
}

TEST(Flags, PositionalCollected) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(parse(flags, {"file1", "--seed=1", "file2"}).ok());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"file1", "file2"}));
}

TEST(Flags, BadNumbersReturnNullopt) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--cluster=abc"}).ok());
  EXPECT_FALSE(flags.get_int("cluster").has_value());
  EXPECT_FALSE(flags.get_double("cluster").has_value());
}

TEST(Flags, UsageListsEverything) {
  FlagSet flags = make_flags();
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("--cluster"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("default: small"), std::string::npos);
}

/// A one-column flight run with the given (time, value) samples.
metrics::FlightRun run_of(
    std::initializer_list<std::pair<SimTime, double>> points) {
  metrics::FlightRun run;
  for (const auto& [t, v] : points) run.samples.push_back({t, {v}});
  return run;
}

TEST(StripChart, AsciiRenderShape) {
  const metrics::FlightRun run =
      run_of({{0, 1.0}, {seconds(5), 3.0}, {seconds(10), 2.0}});
  const std::string chart = metrics::render_strip_chart("pipelines", run, 0, 40);
  EXPECT_NE(chart.find("pipelines (peak 3.000000)"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
  // Bottom level is always filled once values are >= 1.
  EXPECT_NE(chart.find("####"), std::string::npos);
  // Three levels, a rule of the chart's width and the time range.
  EXPECT_NE(chart.find(std::string(40, '-') + "\n0 ns .. 10.000 s\n"),
            std::string::npos);
}

TEST(StripChart, EmptyRender) {
  EXPECT_EQ(metrics::render_strip_chart("empty", metrics::FlightRun{}, 0),
            "empty: (empty)\n");
}

}  // namespace
}  // namespace smarth
