// E6 — Invalidation pipeline scalability: real-time query matching
// throughput vs. subscription count, partitioning and indexing, plus purge
// propagation latency.
//
// Reproduces the InvaliDB-style scalability story the paper's pipeline
// depends on: matching must stay fast as the number of watched query
// results grows, which is what partitioned, equality-indexed matching
// buys; the full-scan ablation shows the cliff it avoids.
#include <chrono>
#include <string>

#include "bench/bench_util.h"
#include "coherence/delta_atomic.h"
#include "common/histogram.h"
#include "common/random.h"
#include "invalidation/pipeline.h"
#include "invalidation/query_matcher.h"
#include "obs/json.h"
#include "tools/flags.h"

namespace speedkit {
namespace {

using Clock = std::chrono::steady_clock;

storage::Record MakeProduct(size_t id, int64_t category, double price) {
  storage::Record r;
  r.id = "p" + std::to_string(id);
  r.version = 1;
  r.fields["category"] = category;
  r.fields["price"] = price;
  return r;
}

// Registers `n` subscriptions: 90% category equalities (indexable), 10%
// narrow price bands (range predicates land on the scan list — no
// equality to index on). Bands are selective, like real watched queries
// ("deals between 40 and 45 euros"), so output size stays small and the
// measurement reflects probing cost.
void Populate(invalidation::QueryMatcher* matcher, size_t n,
              int64_t categories) {
  for (size_t i = 0; i < n; ++i) {
    invalidation::Query q;
    q.id = "q" + std::to_string(i);
    if (i % 10 != 0) {
      q.conditions.push_back({"category", invalidation::Op::kEq,
                              static_cast<int64_t>(i % categories)});
    } else {
      double lo = static_cast<double>(i % 195);
      q.conditions.push_back({"price", invalidation::Op::kGe, lo});
      q.conditions.push_back({"price", invalidation::Op::kLt, lo + 5.0});
    }
    matcher->Subscribe(std::move(q));
  }
}

double MeasureWritesPerSec(invalidation::QueryMatcher* matcher, int writes,
                           int64_t categories) {
  Pcg32 rng(7);
  auto start = Clock::now();
  size_t hits = 0;
  for (int i = 0; i < writes; ++i) {
    storage::Record before = MakeProduct(
        i, static_cast<int64_t>(rng.NextBounded(
               static_cast<uint32_t>(categories))),
        rng.Uniform(1, 200));
    storage::Record after = before;
    after.fields["price"] = rng.Uniform(1, 200);
    after.version = 2;
    hits += matcher->MatchWrite(&before, after).size();
  }
  double secs = std::chrono::duration<double>(Clock::now() - start).count();
  return writes / secs;
}

void ThroughputSweep(obs::JsonValue* rows) {
  bench::PrintSection(
      "matching throughput (writes/s) vs subscriptions; 200 categories");
  bench::Row("%14s %14s %14s %14s", "subscriptions", "indexed_p4",
             "indexed_p1", "fullscan_p4");
  constexpr int64_t kCategories = 200;
  for (size_t subs : {1000u, 10000u, 100000u, 300000u}) {
    int writes = subs >= 100000 ? 2000 : 20000;
    invalidation::QueryMatcher indexed4(4, true);
    Populate(&indexed4, subs, kCategories);
    invalidation::QueryMatcher indexed1(1, true);
    Populate(&indexed1, subs, kCategories);
    invalidation::QueryMatcher scan4(4, false);
    Populate(&scan4, subs, kCategories);
    int scan_writes = subs >= 100000 ? 50 : 500;
    double indexed_p4 = MeasureWritesPerSec(&indexed4, writes, kCategories);
    double indexed_p1 = MeasureWritesPerSec(&indexed1, writes, kCategories);
    double fullscan_p4 = MeasureWritesPerSec(&scan4, scan_writes, kCategories);
    bench::Row("%14zu %14.0f %14.0f %14.0f", subs, indexed_p4, indexed_p1,
               fullscan_p4);
    rows->Push(obs::JsonRow({{"section", "matching_throughput"},
                             {"subscriptions", static_cast<uint64_t>(subs)},
                             {"indexed_p4_writes_per_s", indexed_p4},
                             {"indexed_p1_writes_per_s", indexed_p1},
                             {"fullscan_p4_writes_per_s", fullscan_p4}}));
  }
  bench::Note("the index prunes equality subscriptions to ~n/200 probes; "
              "the residual cost is the un-indexable range subscriptions "
              "(10% here) — the load InvaliDB spreads across cluster "
              "partitions");
}

void PurgePropagation(obs::JsonValue* rows) {
  bench::PrintSection("purge propagation latency (write -> last edge clean)");
  bench::Row("%8s %14s %14s %14s", "edges", "p50_ms", "p99_ms", "max_ms");
  for (int edges : {2, 4, 8, 16, 32}) {
    sim::SimClock clock;
    sim::EventQueue events(&clock);
    cache::Cdn cdn(edges, 0);
    coherence::CoherenceConfig cc;
    cc.sketch_capacity = 10000;
    cc.sketch_fpr = 0.05;
    coherence::DeltaAtomicProtocol protocol(cc);
    invalidation::PipelineConfig config;  // 80ms median, lognormal 0.4
    invalidation::InvalidationPipeline pipeline(config, &clock, &events, &cdn,
                                                &protocol, Pcg32(3));
    for (int i = 0; i < 2000; ++i) {
      storage::Record r = MakeProduct(static_cast<size_t>(i), 1, 10);
      pipeline.OnWrite(nullptr, r);
      events.RunUntil(clock.Now() + Duration::Seconds(1));
    }
    const Histogram& h = pipeline.propagation_latency_us();
    bench::Row("%8d %14.1f %14.1f %14.1f", edges, h.P50() / 1e3, h.P99() / 1e3,
               h.max() / 1e3);
    rows->Push(obs::JsonRow({{"section", "purge_propagation"},
                             {"edges", edges},
                             {"p50_ms", h.P50() / 1e3},
                             {"p99_ms", h.P99() / 1e3},
                             {"max_ms", h.max() / 1e3}}));
  }
  bench::Note("latency is max over edges: grows ~logarithmically with edge "
              "count under lognormal per-edge jitter");
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::tools::Flags flags(argc, argv);
  std::string json_path = speedkit::bench::JsonPathFromFlag(
      flags.GetString("json", ""), "invalidation_scale");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E6", "Invalidation pipeline scalability",
      "InvaliDB-style real-time query matching + CDN purge fan-out that "
      "the coherence protocol rides on");
  speedkit::obs::JsonValue rows = speedkit::obs::JsonValue::Array();
  speedkit::ThroughputSweep(&rows);
  speedkit::PurgePropagation(&rows);
  if (!json_path.empty()) {
    speedkit::obs::JsonValue root = speedkit::obs::JsonValue::Object();
    root.Set("bench", "invalidation_scale");
    root.Set("rows", std::move(rows));
    speedkit::obs::WriteJsonFile(json_path, root);
  }
  return 0;
}
