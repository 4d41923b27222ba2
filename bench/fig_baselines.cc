// E9 — System comparison: Speed Kit vs. the designs it replaces.
//
// Reproduces the paper's "radically different approach" claim as a
// four-way comparison under identical traffic:
//   speed_kit          sketch coherence + estimated TTLs + CDN + browser
//   fixed_ttl_cdn      traditional CDN (the paper's strawman)
//   no_caching         correctness by construction, latency by punishment
//   pure_invalidation  purge-only coherence without browser caching
// The shape: only speed_kit gets low latency AND bounded staleness AND
// low origin load simultaneously.
//
// Monte-Carlo mode: every (write rate, system) cell runs --seeds
// independent trials fanned out over --threads workers; the table shows
// the seed-pooled percentiles with across-seed mean±stddev for the hit
// rate, and --json dumps the full distribution per cell.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/parallel_runner.h"
#include "bench/trace_support.h"
#include "obs/json.h"
#include "tools/flags.h"

namespace speedkit {
namespace {

// --coherence: which protocol the stack runs (delta_atomic default).
coherence::CoherenceMode g_coherence = coherence::CoherenceMode::kDeltaAtomic;

constexpr core::SystemVariant kVariants[] = {
    core::SystemVariant::kSpeedKit, core::SystemVariant::kFixedTtlCdn,
    core::SystemVariant::kNoCaching, core::SystemVariant::kPureInvalidation};
constexpr double kWriteRates[] = {0.5, 2.0, 8.0};

double HitRate(const bench::RunOutput& out) {
  return out.traffic.BrowserHitRatio() + out.traffic.EdgeHitRatio();
}

void Run(int num_seeds, int threads, int shards, const std::string& json_path,
         const std::string& trace_path) {
  std::vector<bench::RunSpec> configs;
  for (double writes_per_sec : kWriteRates) {
    for (core::SystemVariant variant : kVariants) {
      bench::RunSpec spec = bench::DefaultRunSpec();
      spec.stack.variant = variant;
      spec.stack.fixed_ttl = Duration::Seconds(120);
      spec.traffic.writes_per_sec = writes_per_sec;
      configs.push_back(spec);
    }
  }
  bench::ApplyCoherenceFlag(&configs, g_coherence);
  int sweep_threads =
      bench::ApplyShardAndThreadFlags(&configs, shards, threads, num_seeds);

  bench::SweepResult sweep = bench::RunSweep(configs, num_seeds, sweep_threads);

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("bench", "baselines");
  root.Set("seeds", num_seeds);
  root.Set("threads", threads);
  root.Set("shards", shards);
  obs::JsonValue rows = obs::JsonValue::Array();

  size_t config_index = 0;
  for (double writes_per_sec : kWriteRates) {
    char section[64];
    std::snprintf(section, sizeof(section), "%.1f writes/s, %d seeds",
                  writes_per_sec, num_seeds);
    bench::PrintSection(section);
    bench::Row("%18s %10s %10s %17s %12s %14s %12s", "system", "p50_ms",
               "p99_ms", "hit_rate", "stale_rate", "max_stale_s",
               "origin_reqs");
    for (core::SystemVariant variant : kVariants) {
      const std::vector<bench::RunOutput>& runs = sweep.outputs[config_index];
      bench::RunOutput merged = bench::MergeRuns(runs);
      bench::SeedStats hit = bench::SeedStatsOf(runs, HitRate);
      bench::SeedStats p50 = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.api_latency_us.P50() / 1e3;
      });
      bench::SeedStats p99 = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.api_latency_us.P99() / 1e3;
      });
      bench::SeedStats stale = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.staleness.StaleFraction();
      });
      std::string name(core::SystemVariantName(variant));
      bench::Row("%18s %10.1f %10.1f %10.1f%%±%4.1f %11.4f%% %14.2f %12llu",
                 name.c_str(), merged.traffic.api_latency_us.P50() / 1e3,
                 merged.traffic.api_latency_us.P99() / 1e3, hit.mean * 100,
                 hit.stddev * 100, merged.staleness.StaleFraction() * 100,
                 merged.staleness.max_staleness.seconds(),
                 static_cast<unsigned long long>(merged.origin_requests));

      obs::JsonValue row = obs::JsonRow(
          {{"writes_per_sec", writes_per_sec},
           {"system", name},
           {"p50_ms", merged.traffic.api_latency_us.P50() / 1e3},
           {"p99_ms", merged.traffic.api_latency_us.P99() / 1e3},
           {"stale_rate", merged.staleness.StaleFraction()},
           {"max_stale_s", merged.staleness.max_staleness.seconds()},
           {"origin_requests", merged.origin_requests},
           {"requests", merged.traffic.proxies.requests}});
      row.Set("hit_rate", bench::JsonSeedStats(hit));
      row.Set("p50_ms_per_seed", bench::JsonSeedStats(p50));
      row.Set("p99_ms_per_seed", bench::JsonSeedStats(p99));
      row.Set("stale_rate_per_seed", bench::JsonSeedStats(stale));
      rows.Push(std::move(row));
      config_index++;
    }
  }

  bench::Note(bench::WallClockNote(sweep, num_seeds, threads));
  root.Set("rows", std::move(rows));
  root.Set("wall_seconds", sweep.wall_seconds);
  root.Set("cpu_seconds", sweep.cpu_seconds);
  root.Set("speedup", sweep.Speedup());
  if (!json_path.empty()) obs::WriteJsonFile(json_path, root);

  // speed_kit at the lowest write rate: the canonical happy-path trace.
  bench::MaybeTraceRun(configs[0], "baselines", trace_path);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::tools::Flags flags(argc, argv);
  int seeds = static_cast<int>(flags.GetInt("seeds", 8));
  speedkit::g_coherence = speedkit::bench::CoherenceModeFromFlag(
      flags.GetString("coherence", ""));
  int threads = static_cast<int>(flags.GetInt("threads", 1));
  int shards = static_cast<int>(flags.GetInt("shards", 1));
  std::string json_path = speedkit::bench::JsonPathFromFlag(
      flags.GetString("json", ""), "baselines");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "baselines");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E9", "Baseline comparison: latency, staleness, origin load",
      "the paper's positioning against traditional CDNs, no caching, and "
      "pure invalidation");
  speedkit::Run(seeds, threads, shards, json_path, trace_path);
  speedkit::bench::Note(
      "expected shape: speed_kit ~matches fixed_ttl_cdn latency with "
      "near-zero staleness; no_caching has zero staleness at ~10x latency; "
      "pure_invalidation bounds staleness but forfeits browser hits");
  return 0;
}
