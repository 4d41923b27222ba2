// E12 — Ablations of the design choices DESIGN.md calls out:
//   A1  per-key TTL estimator vs one global fixed TTL (interaction with
//       sketch load and revalidation traffic)
//   A2  counting Bloom filter at the server vs rebuilding the snapshot
//       filter from the exact key set on every snapshot
//   A3  segment-scoped caching of personalized blocks vs treating every
//       personalized block as user-scoped
//   A4  stale-while-revalidate on vs off (latency of expired-entry hits)
//   A5  asset optimization on vs off (page weight & load time, mobile)
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/trace_support.h"
#include "bench/workload_runner.h"
#include "core/stack.h"
#include "obs/json.h"
#include "sketch/counting_bloom.h"
#include "tools/flags.h"

namespace speedkit {
namespace {

// --shards/--threads: in-run sharded execution for every RunWorkload this
// harness performs (results are invariant to the thread count; the shard
// count is a model parameter and must divide cdn_edges).
int g_shards = 1;
int g_run_threads = 1;
// --coherence: which protocol the stack runs (delta_atomic default).
coherence::CoherenceMode g_coherence = coherence::CoherenceMode::kDeltaAtomic;

bench::RunSpec BaseSpec() {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.shards = g_shards;
  spec.run_threads = g_run_threads;
  spec.stack.coherence.mode = g_coherence;
  return spec;
}


using Clock = std::chrono::steady_clock;

void AblationTtlEstimator(obs::JsonValue* rows) {
  bench::PrintSection(
      "A1: estimator vs global fixed TTL (heterogeneous write rates)");
  bench::Row("%14s %10s %12s %14s %12s %12s", "ttl_policy", "hit_rate",
             "stale_rate", "sketch_entries", "reval_304", "p50_ms");
  for (const std::string& policy : {"estimator", "fixed-120s"}) {
    bench::RunSpec spec = BaseSpec();
    // Strong write skew: hot objects churn fast, tail barely changes —
    // exactly where one global TTL must be wrong for someone.
    spec.traffic.write_skew = 1.2;
    spec.traffic.writes_per_sec = 4.0;
    if (policy == "estimator") {
      spec.stack.ttl_mode = core::TtlMode::kEstimator;
      spec.stack.estimator.max_ttl = Duration::Seconds(3600);
    } else {
      spec.stack.ttl_mode = core::TtlMode::kFixed;
      spec.stack.fixed_ttl = Duration::Seconds(120);
    }
    bench::RunOutput out = bench::RunWorkload(spec);
    double hit_rate =
        out.traffic.BrowserHitRatio() + out.traffic.EdgeHitRatio();
    bench::Row("%14s %9.1f%% %11.4f%% %14zu %12llu %12.1f", policy.c_str(),
               hit_rate * 100, out.staleness.StaleFraction() * 100,
               out.sketch_entries,
               static_cast<unsigned long long>(
                   out.traffic.proxies.revalidations_304),
               out.traffic.api_latency_us.P50() / 1e3);
    rows->Push(obs::JsonRow(
        {{"section", "a1_ttl_estimator"},
         {"policy", policy},
         {"hit_rate", hit_rate},
         {"stale_rate", out.staleness.StaleFraction()},
         {"sketch_entries", static_cast<uint64_t>(out.sketch_entries)},
         {"revalidations_304", out.traffic.proxies.revalidations_304},
         {"p50_ms", out.traffic.api_latency_us.P50() / 1e3}}));
  }
  bench::Note("the estimator gives slow-changing tail objects long TTLs "
              "(more hits) while keeping hot objects short (fewer sketch "
              "entries per write)");
}

void AblationCountingFilter(obs::JsonValue* rows) {
  bench::PrintSection(
      "A2: snapshot cost — counting filter materialize vs rebuild from key "
      "set (20k tracked keys, 1% fpr sizing)");
  constexpr size_t kKeys = 20000;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("https://shop.example.com/api/records/p" +
                   std::to_string(i));
  }
  size_t bits = sketch::BloomFilter::OptimalBits(kKeys, 0.01);
  int k = sketch::BloomFilter::OptimalHashes(bits, kKeys);

  sketch::CountingBloomFilter cbf(bits, k);
  for (const auto& key : keys) cbf.Add(key);

  constexpr int kRounds = 200;
  auto t0 = Clock::now();
  size_t bits_set = 0;
  for (int r = 0; r < kRounds; ++r) {
    bits_set += cbf.Materialize().PopCount();
  }
  double materialize_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
      kRounds;

  auto t1 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    sketch::BloomFilter rebuilt(bits, k);
    for (const auto& key : keys) rebuilt.Add(key);
    bits_set += rebuilt.PopCount();
  }
  double rebuild_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t1).count() /
      kRounds;

  bench::Row("%24s %14s", "strategy", "us/snapshot");
  bench::Row("%24s %14.0f", "cbf materialize", materialize_us);
  bench::Row("%24s %14.0f", "rebuild from keys", rebuild_us);
  bench::Row("%24s %13.1fx", "speedup", rebuild_us / materialize_us);
  (void)bits_set;
  rows->Push(obs::JsonRow({{"section", "a2_counting_filter"},
                           {"materialize_us", materialize_us},
                           {"rebuild_us", rebuild_us},
                           {"speedup", rebuild_us / materialize_us}}));
  bench::Note("the CBF also supports incremental expiry; rebuilding would "
              "additionally require keeping all keys hot in memory");
}

void AblationSegmentCaching(obs::JsonValue* rows) {
  bench::PrintSection(
      "A3: segment-scoped caching on vs off (6 personalized blocks/page, "
      "32 cohorts, 300 users)");
  // Off = every personalized block is treated as user-scoped (but still
  // GDPR: template join on-device).
  for (bool segment_caching : {true, false}) {
    core::StackConfig config;
    core::SpeedKitStack stack(config);
    personalization::PageTemplate tpl;
    tpl.url = "https://shop.example.com/pages/home";
    for (int i = 0; i < 6; ++i) {
      tpl.blocks.push_back({"blk" + std::to_string(i),
                            segment_caching
                                ? personalization::BlockScope::kSegment
                                : personalization::BlockScope::kUser,
                            2048});
    }
    personalization::Segmenter segmenter(32);
    uint64_t hits = 0;
    uint64_t fetches = 0;
    int64_t latency_us = 0;
    for (int u = 0; u < 300; ++u) {
      personalization::PiiVault vault(9000 + static_cast<uint64_t>(u));
      auto client = stack.MakeClient(9000 + static_cast<uint64_t>(u));
      client->AttachVault(&vault);
      for (const auto& block : tpl.blocks) {
        proxy::BlockResult r = client->FetchBlock(tpl, block, segmenter);
        fetches++;
        latency_us += r.latency.micros();
        if (r.source == proxy::ServedFrom::kBrowserCache ||
            r.source == proxy::ServedFrom::kEdgeCache) {
          hits++;
        }
      }
    }
    double hit_share =
        static_cast<double>(hits) / static_cast<double>(fetches);
    double mean_latency_ms =
        static_cast<double>(latency_us) / static_cast<double>(fetches) / 1e3;
    bench::Row("segment_caching=%-5s  hit_share=%5.1f%%  mean_latency=%.2fms",
               segment_caching ? "on" : "off", hit_share * 100,
               mean_latency_ms);
    rows->Push(obs::JsonRow({{"section", "a3_segment_caching"},
                             {"segment_caching", segment_caching},
                             {"hit_share", hit_share},
                             {"mean_latency_ms", mean_latency_ms}}));
  }
  bench::Note("'off' (template join for everything) can even beat segment "
              "caching on pure delivery cost, because one template is "
              "shared by all cohorts — but it only works for content the "
              "device can assemble from its vault; segment scope exists "
              "for server-computed cohort content (recommendations, "
              "rankings) that has no client-side join");
}

void AblationSwr(obs::JsonValue* rows) {
  bench::PrintSection(
      "A4: stale-while-revalidate on vs off (fixed 60s TTLs, mostly-read)");
  bench::Row("%8s %10s %10s %12s %12s %12s", "swr", "mean_ms", "p99_ms",
             "swr_serves", "stale_rate", "max_stale_s");
  for (bool swr_on : {true, false}) {
    bench::RunSpec spec = BaseSpec();
    spec.stack.ttl_mode = core::TtlMode::kFixed;
    spec.stack.fixed_ttl = Duration::Seconds(60);
    spec.traffic.writes_per_sec = 1.0;
    proxy::ProxyConfig pc;  // speed-kit defaults
    pc.stale_while_revalidate = swr_on;
    spec.traffic.proxy_config = &pc;
    bench::RunOutput out = bench::RunWorkload(spec);
    bench::Row("%8s %10.1f %10.1f %12llu %11.4f%% %12.2f",
               swr_on ? "on" : "off",
               out.traffic.api_latency_us.Mean() / 1e3,
               out.traffic.api_latency_us.P99() / 1e3,
               static_cast<unsigned long long>(out.traffic.proxies.swr_serves),
               out.staleness.StaleFraction() * 100,
               out.staleness.max_staleness.seconds());
    rows->Push(obs::JsonRow(
        {{"section", "a4_swr"},
         {"swr", swr_on},
         {"mean_ms", out.traffic.api_latency_us.Mean() / 1e3},
         {"p99_ms", out.traffic.api_latency_us.P99() / 1e3},
         {"swr_serves", out.traffic.proxies.swr_serves},
         {"stale_rate", out.staleness.StaleFraction()},
         {"max_stale_s", out.staleness.max_staleness.seconds()}}));
  }
  bench::Note("every swr_serve is an expired-entry revalidation moved off "
              "the critical path (mean drops, tail unchanged) — and the "
              "staleness columns must not move: flagged keys never take "
              "the SWR path, and the ExpiryBook horizon covers the window");
}

void AblationAssetOptimization(obs::JsonValue* rows) {
  bench::PrintSection(
      "A5: asset optimization on vs off — cold image-heavy page, mobile "
      "downlink (~1.5 Mbit/s)");
  bench::Row("%10s %14s %16s %14s", "optimize", "page_bytes", "transfer_ms",
             "bytes_saved");
  uint64_t baseline_bytes = 0;
  for (bool optimize : {false, true}) {
    core::StackConfig config;
    config.network.client_edge =
        sim::LinkSpec{Duration::Millis(60), 0.0, 2.0e5};
    config.network.edge_origin =
        sim::LinkSpec{Duration::Millis(80), 0.0, 12.0e6};
    core::SpeedKitStack stack(config);
    proxy::ProxyConfig pc = stack.DefaultProxyConfig();
    pc.optimize_assets = optimize;
    auto client = stack.MakeClient(pc, 1);
    uint64_t bytes = 0;
    int64_t total_us = 0;
    // A product page's 24 images, fetched cold.
    for (int i = 0; i < 24; ++i) {
      proxy::FetchResult r = client->Fetch(
          "https://shop.example.com/assets/img-" + std::to_string(i));
      bytes += r.response.body.size();
      total_us += r.latency.micros();
    }
    if (!optimize) baseline_bytes = bytes;
    bench::Row("%10s %14llu %16.0f %14lld", optimize ? "on" : "off",
               static_cast<unsigned long long>(bytes), total_us / 1e3,
               static_cast<long long>(baseline_bytes - bytes));
    rows->Push(obs::JsonRow(
        {{"section", "a5_asset_optimization"},
         {"optimize", optimize},
         {"page_bytes", bytes},
         {"transfer_ms", total_us / 1e3},
         {"bytes_saved", static_cast<int64_t>(baseline_bytes - bytes)}}));
  }
  bench::Note("the optimization service's transcoded variants (~45% fewer "
              "bytes) cut both page weight and transfer time on the "
              "bandwidth-bound mobile link — E5's mobile rows show the "
              "end-to-end effect");
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::tools::Flags flags(argc, argv);
  speedkit::g_shards = static_cast<int>(flags.GetInt("shards", 1));
  speedkit::g_coherence = speedkit::bench::CoherenceModeFromFlag(
      flags.GetString("coherence", ""));
  speedkit::g_run_threads = static_cast<int>(flags.GetInt("threads", 1));
  std::string json_path = speedkit::bench::JsonPathFromFlag(
      flags.GetString("json", ""), "ablations");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "ablations");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E12",
      "Ablations: TTL estimator, counting filter, segment caching, SWR, "
      "asset optimization",
      "the design choices DESIGN.md calls out");
  speedkit::obs::JsonValue rows = speedkit::obs::JsonValue::Array();
  speedkit::AblationTtlEstimator(&rows);
  speedkit::AblationCountingFilter(&rows);
  speedkit::AblationSegmentCaching(&rows);
  speedkit::AblationSwr(&rows);
  speedkit::AblationAssetOptimization(&rows);
  if (!json_path.empty()) {
    speedkit::obs::JsonValue root = speedkit::obs::JsonValue::Object();
    root.Set("bench", "ablations");
    root.Set("rows", std::move(rows));
    speedkit::obs::WriteJsonFile(json_path, root);
  }
  // A1's estimator arm: the full speed_kit feature set under write skew.
  speedkit::bench::RunSpec trace_spec = speedkit::bench::DefaultRunSpec();
  trace_spec.traffic.write_skew = 1.2;
  trace_spec.traffic.writes_per_sec = 4.0;
  trace_spec.stack.estimator.max_ttl = speedkit::Duration::Seconds(3600);
  speedkit::bench::MaybeTraceRun(trace_spec, "ablations", trace_path);
  return 0;
}
