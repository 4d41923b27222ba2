// The sharded engine's test-enforced invariant: the merged output of a
// run is a pure function of (seed, shards) — bit-identical for any
// thread count — and a one-shard fleet reproduces the legacy
// single-domain stack exactly.
#include <gtest/gtest.h>

#include "bench/workload_runner.h"

namespace speedkit::bench {
namespace {

RunSpec SmallShardedSpec(int shards) {
  RunSpec spec = DefaultRunSpec();
  spec.stack.shards = shards;
  spec.stack.cdn_edges = 8;
  spec.traffic.num_clients = 16;
  spec.traffic.duration = Duration::Minutes(5);
  return spec;
}

TEST(ShardedRunTest, ThreadCountNeverChangesResults) {
  RunSpec base = SmallShardedSpec(/*shards=*/4);
  uint64_t reference = 0;
  for (int threads : {1, 4, 8}) {
    RunSpec spec = base;
    spec.run_threads = threads;
    uint64_t fp = FingerprintRun(RunWorkload(spec));
    if (threads == 1) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference) << "diverged at run_threads=" << threads;
    }
  }
}

TEST(ShardedRunTest, RepeatedRunsAreBitIdentical) {
  RunSpec spec = SmallShardedSpec(/*shards=*/2);
  spec.run_threads = 2;
  EXPECT_EQ(FingerprintRun(RunWorkload(spec)),
            FingerprintRun(RunWorkload(spec)));
}

TEST(ShardedRunTest, OneShardFleetReproducesLegacyStack) {
  RunSpec spec = SmallShardedSpec(/*shards=*/1);
  // RunWorkload always runs a fleet; the reference is one standalone
  // stack (private edge tier, no fleet) driven by the same recipe.
  core::SpeedKitStack stack(spec.stack);
  workload::Catalog catalog(spec.catalog, Pcg32(spec.catalog_seed));
  uint64_t legacy = FingerprintRun(RunOneStack(stack, catalog, spec));
  uint64_t fleet = FingerprintRun(RunWorkload(spec));
  EXPECT_EQ(fleet, legacy);
}

TEST(ShardedRunTest, ShardCountIsAModelParameter) {
  // Different shard counts are DIFFERENT models (each shard replicates the
  // origin and write stream), so fingerprints are expected to differ —
  // catching an accidental "shards don't matter" collapse in the merge.
  uint64_t one = FingerprintRun(RunWorkload(SmallShardedSpec(1)));
  uint64_t four = FingerprintRun(RunWorkload(SmallShardedSpec(4)));
  EXPECT_NE(one, four);
}

TEST(ShardedRunTest, MergedShardedOutputCarriesNoCaptures) {
  RunSpec spec = SmallShardedSpec(/*shards=*/2);
  spec.stack.obs.metrics = true;
  spec.stack.obs.tracing = true;
  RunOutput out = RunWorkload(spec);
  EXPECT_EQ(out.metrics, nullptr);
  EXPECT_EQ(out.traces, nullptr);
  EXPECT_GT(out.traffic.proxies.requests, 0u);
}

}  // namespace
}  // namespace speedkit::bench
