// E3 — TTL policy: latency, hit ratio and coherence cost vs. how cache
// lifetimes are chosen.
//
// Reproduces the TTL-estimator evaluation shape (companion Monte-Carlo
// study): longer/estimated TTLs buy hits; without coherence they also buy
// staleness, and with the sketch the cost shows up as sketch entries and
// revalidations instead of stale reads.
//
// Monte-Carlo mode: every (workload, policy) cell runs --seeds independent
// trials fanned out over --threads workers; the merged table pools all
// seeds, and --json dumps per-cell across-seed distributions.
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

struct PolicyPoint {
  std::string name;
  core::TtlMode mode = core::TtlMode::kFixed;
  Duration fixed_ttl = Duration::Seconds(60);
  bool no_cache = false;
};

struct WorkloadPoint {
  std::string name;
  double read_skew;
  double writes_per_sec;
};

const std::vector<PolicyPoint>& Policies() {
  static const std::vector<PolicyPoint> kPolicies = {
      {"no-cache", core::TtlMode::kFixed, Duration::Zero(), true},
      {"fixed-30s", core::TtlMode::kFixed, Duration::Seconds(30), false},
      {"fixed-300s", core::TtlMode::kFixed, Duration::Seconds(300), false},
      {"fixed-3600s", core::TtlMode::kFixed, Duration::Seconds(3600), false},
      {"estimator", core::TtlMode::kEstimator, Duration::Zero(), false},
  };
  return kPolicies;
}

bench::RunSpec SpecFor(const WorkloadPoint& workload,
                       const PolicyPoint& policy) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.traffic.session.product_skew = workload.read_skew;
  spec.traffic.writes_per_sec = workload.writes_per_sec;
  if (policy.no_cache) {
    spec.stack.variant = core::SystemVariant::kNoCaching;
  } else {
    spec.stack.ttl_mode = policy.mode;
    spec.stack.fixed_ttl = policy.fixed_ttl;
    spec.stack.estimator.max_ttl = Duration::Seconds(3600);
  }
  return spec;
}

void Run(int num_seeds, int threads, int shards, const std::string& json_path,
         const std::string& trace_path) {
  const std::vector<WorkloadPoint> workloads = {
      {"moderate skew (0.8), 2 writes/s", 0.8, 2.0},
      {"high skew (0.99), 2 writes/s", 0.99, 2.0},
      {"moderate skew (0.8), write-heavy 8 writes/s", 0.8, 8.0},
  };

  // One flat sweep over every (workload, policy) cell keeps all --threads
  // workers busy across section boundaries.
  std::vector<bench::RunSpec> configs;
  for (const WorkloadPoint& workload : workloads) {
    for (const PolicyPoint& policy : Policies()) {
      configs.push_back(SpecFor(workload, policy));
    }
  }
  bench::ApplyCoherenceFlag(&configs, g_coherence);
  int sweep_threads =
      bench::ApplyShardAndThreadFlags(&configs, shards, threads, num_seeds);

  bench::SweepResult sweep = bench::RunSweep(configs, num_seeds, sweep_threads);

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("bench", "ttl_policy");
  root.Set("seeds", num_seeds);
  root.Set("threads", threads);
  root.Set("shards", shards);
  obs::JsonValue rows = obs::JsonValue::Array();

  size_t config_index = 0;
  for (const WorkloadPoint& workload : workloads) {
    bench::PrintSection(workload.name);
    bench::Row("%14s %10s %10s %17s %12s %12s %12s %12s", "policy", "p50_ms",
               "p99_ms", "hit_rate", "origin_reqs", "stale_rate", "reval_304",
               "sketch_sz");
    for (const PolicyPoint& policy : Policies()) {
      const std::vector<bench::RunOutput>& runs = sweep.outputs[config_index];
      bench::RunOutput out = bench::MergeRuns(runs);
      bench::SeedStats hit = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.BrowserHitRatio() + o.traffic.EdgeHitRatio();
      });
      bench::SeedStats p99 = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.api_latency_us.P99() / 1e3;
      });
      bench::Row("%14s %10.1f %10.1f %10.1f%%±%4.1f %12llu %11.4f%% %12llu "
                 "%12zu",
                 policy.name.c_str(), out.traffic.api_latency_us.P50() / 1e3,
                 out.traffic.api_latency_us.P99() / 1e3, hit.mean * 100,
                 hit.stddev * 100,
                 static_cast<unsigned long long>(out.origin_requests),
                 out.staleness.StaleFraction() * 100,
                 static_cast<unsigned long long>(
                     out.traffic.proxies.revalidations_304),
                 out.sketch_entries);

      obs::JsonValue row = obs::JsonRow(
          {{"workload", workload.name},
           {"read_skew", workload.read_skew},
           {"writes_per_sec", workload.writes_per_sec},
           {"policy", policy.name},
           {"p50_ms", out.traffic.api_latency_us.P50() / 1e3},
           {"p99_ms", out.traffic.api_latency_us.P99() / 1e3},
           {"origin_requests", out.origin_requests},
           {"stale_rate", out.staleness.StaleFraction()},
           {"revalidations_304", out.traffic.proxies.revalidations_304},
           {"sketch_entries", static_cast<uint64_t>(out.sketch_entries)}});
      row.Set("hit_rate", bench::JsonSeedStats(hit));
      row.Set("p99_ms_per_seed", bench::JsonSeedStats(p99));
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

  bench::MaybeTraceRun(configs[0], "ttl_policy", trace_path);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::tools::Flags flags(argc, argv);
  int seeds = static_cast<int>(flags.GetInt("seeds", 4));
  speedkit::g_coherence = speedkit::bench::CoherenceModeFromFlag(
      flags.GetString("coherence", ""));
  int threads = static_cast<int>(flags.GetInt("threads", 1));
  int shards = static_cast<int>(flags.GetInt("shards", 1));
  std::string json_path = speedkit::bench::JsonPathFromFlag(
      flags.GetString("json", ""), "ttl_policy");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "ttl_policy");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E3", "TTL policy: latency & hit ratio vs cache-lifetime strategy",
      "the TTL estimator's role in the polyglot architecture (hits vs "
      "coherence load)");
  speedkit::Run(seeds, threads, shards, json_path, trace_path);
  speedkit::bench::Note(
      "expected shape: estimator ~matches the best fixed TTL on hits with "
      "fewer sketch entries/revalidations; no-cache pays full origin RTTs");
  return 0;
}
