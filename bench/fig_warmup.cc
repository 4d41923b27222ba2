// E13 — Warm-up dynamics: cache hit ratio and latency per minute after a
// cold start, Speed Kit vs. the fixed-TTL CDN.
//
// Reproduces the deployment-experience view: Speed Kit's aggressive
// (sketch-protected) TTLs let the hierarchy warm up and then *stay* warm
// under writes, while the conservative baseline keeps re-fetching.
#include <string>

#include "bench/bench_util.h"
#include "bench/trace_support.h"
#include "bench/workload_runner.h"
#include "obs/json.h"
#include "tools/flags.h"

namespace speedkit {
namespace {

// --shards/--threads: in-run sharded execution (results are invariant to
// the thread count; shards is a model parameter).
int g_shards = 1;
int g_run_threads = 1;
// --coherence: which protocol the stack runs (delta_atomic default).
coherence::CoherenceMode g_coherence = coherence::CoherenceMode::kDeltaAtomic;

bench::RunSpec TimelineSpec(core::SystemVariant variant) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.shards = g_shards;
  spec.run_threads = g_run_threads;
  spec.stack.coherence.mode = g_coherence;
  spec.stack.variant = variant;
  spec.stack.fixed_ttl = Duration::Seconds(60);  // conservative baseline
  spec.traffic.duration = Duration::Minutes(30);
  spec.traffic.num_clients = 30;
  spec.traffic.writes_per_sec = 2.0;
  return spec;
}

core::TrafficResult RunTimeline(core::SystemVariant variant) {
  return bench::RunWorkload(TimelineSpec(variant)).traffic;
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
      flags.GetString("json", ""), "warmup");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "warmup");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E13", "Cache warm-up timeline (per-minute hit ratio & latency)",
      "deployment dynamics: how fast the hierarchy warms and whether it "
      "stays warm under writes");
  speedkit::core::TrafficResult sk =
      speedkit::RunTimeline(speedkit::core::SystemVariant::kSpeedKit);
  speedkit::core::TrafficResult cdn =
      speedkit::RunTimeline(speedkit::core::SystemVariant::kFixedTtlCdn);

  speedkit::bench::PrintSection(
      "per-minute: hit ratio / stale-read rate / mean latency — speed_kit "
      "vs fixed_ttl_cdn(60s)");
  speedkit::bench::Row("%8s %10s %10s %10s %10s %12s %12s", "minute",
                       "sk_hit", "cdn_hit", "sk_stale", "cdn_stale",
                       "sk_lat_ms", "cdn_lat_ms");
  speedkit::obs::JsonValue rows = speedkit::obs::JsonValue::Array();
  size_t minutes =
      std::max(sk.hit_ratio_timeline.num_buckets(),
               cdn.hit_ratio_timeline.num_buckets());
  for (size_t m = 0; m < minutes; ++m) {
    if (sk.hit_ratio_timeline.CountAt(m) == 0 &&
        cdn.hit_ratio_timeline.CountAt(m) == 0) {
      continue;
    }
    speedkit::bench::Row("%8zu %9.1f%% %9.1f%% %9.1f%% %9.1f%% %12.1f %12.1f",
                         m, sk.hit_ratio_timeline.MeanAt(m) * 100,
                         cdn.hit_ratio_timeline.MeanAt(m) * 100,
                         sk.stale_timeline.MeanAt(m) * 100,
                         cdn.stale_timeline.MeanAt(m) * 100,
                         sk.latency_ms_timeline.MeanAt(m),
                         cdn.latency_ms_timeline.MeanAt(m));
    rows.Push(speedkit::obs::JsonRow(
        {{"minute", static_cast<uint64_t>(m)},
         {"sk_hit_ratio", sk.hit_ratio_timeline.MeanAt(m)},
         {"cdn_hit_ratio", cdn.hit_ratio_timeline.MeanAt(m)},
         {"sk_stale_rate", sk.stale_timeline.MeanAt(m)},
         {"cdn_stale_rate", cdn.stale_timeline.MeanAt(m)},
         {"sk_latency_ms", sk.latency_ms_timeline.MeanAt(m)},
         {"cdn_latency_ms", cdn.latency_ms_timeline.MeanAt(m)}}));
  }
  if (!json_path.empty()) {
    speedkit::obs::JsonValue root = speedkit::obs::JsonValue::Object();
    root.Set("bench", "warmup");
    root.Set("rows", std::move(rows));
    speedkit::obs::WriteJsonFile(json_path, root);
  }
  speedkit::bench::Note(
      "the baseline's nominally-higher hit ratio is bought with stale "
      "serves (cdn_stale); every speed_kit hit is coherence-checked — "
      "its stale column stays ~0 at comparable latency");
  speedkit::bench::MaybeTraceRun(
      speedkit::TimelineSpec(speedkit::core::SystemVariant::kSpeedKit),
      "warmup", trace_path);
  return 0;
}
