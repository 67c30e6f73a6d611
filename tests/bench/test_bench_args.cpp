// BenchArgs flag parsing: the shared CLI surface of every bench binary.
// Malformed values must exit with status 2 (checked via death tests).
#include "bench/common.hpp"

#include <gtest/gtest.h>

namespace qnetp::bench {
namespace {

BenchArgs parse(std::initializer_list<const char*> cli,
                const char* default_out = nullptr,
                std::size_t max_shards = 0) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (const char* a : cli) argv.push_back(const_cast<char*>(a));
  return BenchArgs::parse(static_cast<int>(argv.size()), argv.data(),
                          default_out, max_shards);
}

TEST(BenchArgs, Defaults) {
  const BenchArgs args = parse({});
  EXPECT_EQ(args.runs, 0u);
  EXPECT_EQ(args.jobs, 1u);
  EXPECT_EQ(args.shards, 1u);
  EXPECT_EQ(args.seed, 0u);
  EXPECT_FALSE(args.quick);
  EXPECT_FALSE(args.csv);
  EXPECT_EQ(args.trials(7), 7u);
  EXPECT_EQ(args.base_seed(99), 99u);
}

TEST(BenchArgs, ParsesAllFlags) {
  const BenchArgs args =
      parse({"--runs=12", "--jobs=8", "--shards=4", "--seed=4242", "--quick",
             "--csv"},
            "BENCH_x.json", 4);
  EXPECT_EQ(args.runs, 12u);
  EXPECT_EQ(args.jobs, 8u);
  EXPECT_EQ(args.shards, 4u);
  EXPECT_EQ(args.seed, 4242u);
  EXPECT_TRUE(args.quick);
  EXPECT_TRUE(args.csv);
  EXPECT_EQ(args.trials(7), 12u);
  EXPECT_EQ(args.base_seed(99), 4242u);
}

TEST(BenchArgs, RunnerReflectsFlags) {
  const BenchArgs args = parse({"--jobs=3", "--seed=5"});
  const exp::TrialRunner runner = args.runner(1);
  EXPECT_EQ(runner.options().jobs, 3u);
  EXPECT_EQ(runner.options().base_seed, 5u);
}

TEST(BenchArgs, OutDefaultsToTheBinarysPath) {
  EXPECT_EQ(parse({}, "BENCH_x.json").out, "BENCH_x.json");
  EXPECT_EQ(parse({}).out, "");
}

TEST(BenchArgs, OutOverridesTheDefault) {
  const BenchArgs args = parse({"--runs=2", "--out=x/y.json"}, "BENCH_x.json");
  EXPECT_EQ(args.runs, 2u);
  EXPECT_EQ(args.out, "x/y.json");
}

using BenchArgsDeath = ::testing::Test;

TEST(BenchArgsDeath, RejectsMalformedRuns) {
  EXPECT_EXIT(parse({"--runs=abc"}), ::testing::ExitedWithCode(2),
              "bad value for --runs");
  EXPECT_EXIT(parse({"--runs="}), ::testing::ExitedWithCode(2),
              "bad value for --runs");
  EXPECT_EXIT(parse({"--runs=1x"}), ::testing::ExitedWithCode(2),
              "bad value for --runs");
  EXPECT_EXIT(parse({"--runs=-3"}), ::testing::ExitedWithCode(2),
              "bad value for --runs");
  EXPECT_EXIT(parse({"--runs=0"}), ::testing::ExitedWithCode(2),
              "bad value for --runs");
}

TEST(BenchArgsDeath, RejectsMalformedJobs) {
  EXPECT_EXIT(parse({"--jobs=many"}), ::testing::ExitedWithCode(2),
              "bad value for --jobs");
  EXPECT_EXIT(parse({"--jobs=0"}), ::testing::ExitedWithCode(2),
              "bad value for --jobs");
}

TEST(BenchArgsDeath, RejectsMalformedSeed) {
  EXPECT_EXIT(parse({"--seed=0xBAD"}), ::testing::ExitedWithCode(2),
              "bad value for --seed");
  EXPECT_EXIT(parse({"--seed=0"}), ::testing::ExitedWithCode(2),
              "bad value for --seed");
}

TEST(BenchArgsDeath, RejectsEmptyOut) {
  EXPECT_EXIT(parse({"--out="}, "BENCH_x.json"),
              ::testing::ExitedWithCode(2), "bad value for --out");
}

TEST(BenchArgsDeath, OutIsUnknownWithoutAJsonResult) {
  EXPECT_EXIT(parse({"--out=x"}), ::testing::ExitedWithCode(2),
              "unknown argument: --out=x");
}

TEST(BenchArgsDeath, ShardsNeedAMultiRegionFabric) {
  // Without a region count no fabric would read the flag.
  EXPECT_EXIT(parse({"--shards=2"}), ::testing::ExitedWithCode(2),
              "unknown argument: --shards=2");
  EXPECT_EXIT(parse({"--shards=2"}, "BENCH_x.json"),
              ::testing::ExitedWithCode(2), "unknown argument: --shards=2");
  // With one, the region count bounds it.
  EXPECT_EXIT(parse({"--shards=5"}, "BENCH_x.json", 4),
              ::testing::ExitedWithCode(2),
              "bad value for --shards: 5 \\(must be <= 4");
  EXPECT_EXIT(parse({"--shards=0"}, "BENCH_x.json", 4),
              ::testing::ExitedWithCode(2), "bad value for --shards");
}

TEST(BenchArgsDeath, RejectsUnknownArgument) {
  EXPECT_EXIT(parse({"--frobnicate"}), ::testing::ExitedWithCode(2),
              "unknown argument");
  EXPECT_EXIT(parse({"positional"}), ::testing::ExitedWithCode(2),
              "unknown argument");
}

}  // namespace
}  // namespace qnetp::bench
