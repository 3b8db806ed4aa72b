#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error.h"
#include "common/hashing.h"

namespace nf::wl {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig cfg;
  cfg.num_peers = 50;
  cfg.num_items = 2000;
  cfg.alpha = 1.0;
  cfg.seed = 42;
  return cfg;
}

TEST(WorkloadTest, TotalInstancesMatchConfig) {
  const Workload w = Workload::generate(small_config());
  // 10 instances per item, unit values.
  EXPECT_EQ(w.total_value(), 20000u);
  EXPECT_EQ(w.num_peers(), 50u);
}

TEST(WorkloadTest, GroundTruthEqualsSumOfLocalSets) {
  const Workload w = Workload::generate(small_config());
  LocalItems merged;
  for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
    merged.merge_add(w.local_items(PeerId(p)));
  }
  EXPECT_EQ(merged, w.global());
}

TEST(WorkloadTest, DeterministicForSeed) {
  const Workload a = Workload::generate(small_config());
  const Workload b = Workload::generate(small_config());
  EXPECT_EQ(a.global(), b.global());
  for (std::uint32_t p = 0; p < a.num_peers(); ++p) {
    EXPECT_EQ(a.local_items(PeerId(p)), b.local_items(PeerId(p)));
  }
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  WorkloadConfig c1 = small_config();
  WorkloadConfig c2 = small_config();
  c2.seed = 43;
  EXPECT_NE(Workload::generate(c1).global(),
            Workload::generate(c2).global());
}

TEST(WorkloadTest, ThresholdForRoundsUp) {
  const Workload w = Workload::generate(small_config());
  EXPECT_EQ(w.threshold_for(0.01),
            static_cast<Value>(std::ceil(0.01 * 20000)));
  EXPECT_EQ(w.threshold_for(1.0), w.total_value());
  EXPECT_THROW((void)w.threshold_for(0.0), InvalidArgument);
  EXPECT_THROW((void)w.threshold_for(1.5), InvalidArgument);
}

TEST(WorkloadTest, FrequentItemsOracleIsExact) {
  const Workload w = Workload::generate(small_config());
  const Value t = w.threshold_for(0.01);
  const auto frequent = w.frequent_items(t);
  for (const auto& [id, v] : frequent) {
    EXPECT_GE(v, t);
    EXPECT_EQ(v, w.global().value_of(id));
  }
  // Complement check: nothing above t was missed.
  std::size_t above = 0;
  for (const auto& [id, v] : w.global()) {
    if (v >= t) ++above;
  }
  EXPECT_EQ(frequent.size(), above);
  EXPECT_GT(frequent.size(), 0u);
}

TEST(WorkloadTest, HigherSkewConcentratesTopItem) {
  WorkloadConfig flat = small_config();
  flat.alpha = 0.0;
  WorkloadConfig steep = small_config();
  steep.alpha = 2.0;
  auto top_value = [](const Workload& w) {
    Value best = 0;
    for (const auto& [id, v] : w.global()) best = std::max(best, v);
    return best;
  };
  EXPECT_GT(top_value(Workload::generate(steep)),
            top_value(Workload::generate(flat)) * 10);
}

TEST(WorkloadTest, AvgLocalDistinctIsPlausible) {
  const Workload w = Workload::generate(small_config());
  // 20000 instances over 50 peers = 400 per peer; distinct <= 400.
  EXPECT_LE(w.avg_local_distinct(), 400.0);
  EXPECT_GT(w.avg_local_distinct(), 100.0);
}

TEST(WorkloadTest, AvgValuesAreConsistent) {
  const Workload w = Workload::generate(small_config());
  EXPECT_NEAR(w.avg_global_value(),
              static_cast<double>(w.total_value()) /
                  static_cast<double>(w.num_distinct()),
              1e-9);
  const Value t = w.threshold_for(0.01);
  EXPECT_LT(w.avg_light_value(t), static_cast<double>(t));
  EXPECT_GT(w.avg_light_value(t), 0.0);
}

TEST(WorkloadTest, FromLocalSetsBuildsGroundTruth) {
  std::vector<LocalItems> locals(2);
  locals[0].add(ItemId(1), 5);
  locals[0].add(ItemId(2), 1);
  locals[1].add(ItemId(1), 3);
  const Workload w = Workload::from_local_sets(std::move(locals));
  EXPECT_EQ(w.total_value(), 9u);
  EXPECT_EQ(w.global().value_of(ItemId(1)), 8u);
  EXPECT_EQ(w.global().value_of(ItemId(2)), 1u);
  EXPECT_EQ(w.num_distinct(), 2u);
}

TEST(WorkloadTest, ItemIdsAreScatteredNotSequential) {
  const Workload w = Workload::generate(small_config());
  // Hashed ids should not be tiny integers.
  std::size_t big = 0;
  for (const auto& [id, v] : w.global()) {
    if (id.value() > 0xFFFFFFFFull) ++big;
  }
  EXPECT_GT(big, w.num_distinct() / 2);
}

TEST(WorkloadTest, InvalidConfigThrows) {
  WorkloadConfig bad = small_config();
  bad.num_peers = 0;
  EXPECT_THROW((void)Workload::generate(bad), InvalidArgument);
  bad = small_config();
  bad.alpha = -1.0;
  EXPECT_THROW((void)Workload::generate(bad), InvalidArgument);
  bad = small_config();
  bad.instances_per_item = 0.0;
  EXPECT_THROW((void)Workload::generate(bad), InvalidArgument);
}

// One 64-bit digest of everything `generate` produces: every peer's
// (id, value) pairs in order, the global map and the grand total.
std::uint64_t fingerprint(const WorkloadConfig& cfg) {
  const Workload w = Workload::generate(cfg);
  std::uint64_t h = 0;
  auto mix = [&h](std::uint64_t x) {
    h = fmix64(h ^ x) + 0x9E3779B97F4A7C15ull;
  };
  for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
    const auto& local = w.local_items(PeerId(p));
    mix(local.size());
    for (const auto& [id, v] : local) {
      mix(id.value());
      mix(v);
    }
  }
  mix(w.global().size());
  for (const auto& [id, v] : w.global()) {
    mix(id.value());
    mix(v);
  }
  mix(w.total_value());
  return h;
}

WorkloadConfig shape(std::uint32_t peers, std::uint64_t items,
                     double instances_per_item) {
  WorkloadConfig cfg;
  cfg.num_peers = peers;
  cfg.num_items = items;
  cfg.instances_per_item = instances_per_item;
  cfg.alpha = 1.0;
  cfg.seed = 42;
  return cfg;
}

// Pins the exact output of `generate` (its RNG draw order, the rank -> id
// mapping and the per-peer maps), so a faster generator must reproduce the
// committed workloads bit for bit. The configs cover the benchmark shapes at
// test size, the degenerate corners and, last, two that split the peers into
// several key buckets: N*n above 2^32, and one peer range capped by count.
TEST(WorkloadTest, GenerateMatchesGoldenFingerprint) {
  std::vector<std::pair<WorkloadConfig, std::uint64_t>> golden;
  // The perfbench scale, unpruned and multiquery shapes at --tiny size.
  golden.emplace_back(shape(2000, 2000, 2.0), 0x78a30dcb95452013ull);
  golden.emplace_back(shape(100, 10000, 10.0), 0x036ebc743fe21b40ull);
  golden.emplace_back(shape(300, 3000, 10.0), 0xca4353e5545ebcdaull);
  golden.emplace_back(shape(1, 1, 10.0), 0xd70150abe3b54abaull);
  WorkloadConfig flat = shape(300, 3000, 10.0);
  flat.alpha = 0.0;
  golden.emplace_back(flat, 0x87ac6c1a2cbe4bf7ull);
  WorkloadConfig no_floor = shape(300, 3000, 10.0);
  no_floor.min_one_instance = false;
  golden.emplace_back(no_floor, 0x3d6c232e91b7b256ull);
  golden.emplace_back(shape(300, 3000, 0.5), 0x442e92cd6d48af7aull);
  golden.emplace_back(shape(50000, 100000, 10.0), 0x9725f38275143b04ull);
  golden.emplace_back(shape(8, 1000, 5000.0), 0x5b6325b9e92a4bbfull);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const std::uint64_t got = fingerprint(golden[i].first);
    EXPECT_EQ(got, golden[i].second)
        << "config " << i << ": got 0x" << std::hex << got;
  }
}

class WorkloadParamTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(WorkloadParamTest, InvariantsHoldAcrossSkewAndSeed) {
  const auto [alpha, seed] = GetParam();
  WorkloadConfig cfg = small_config();
  cfg.alpha = alpha;
  cfg.seed = seed;
  const Workload w = Workload::generate(cfg);
  EXPECT_EQ(w.total_value(), 20000u);
  EXPECT_LE(w.num_distinct(), 2000u);
  EXPECT_GT(w.num_distinct(), 0u);
  // Every local value positive, every item in ground truth.
  for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
    for (const auto& [id, v] : w.local_items(PeerId(p))) {
      EXPECT_GT(v, 0u);
      EXPECT_GE(w.global().value_of(id), v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkloadParamTest,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0),
                       ::testing::Values(1u, 7u)));

}  // namespace
}  // namespace nf::wl
