// E2 — Δ-atomicity: observed staleness vs. the sketch refresh interval Δ.
//
// Reproduces the paper's coherence claim ("custom cache coherence protocol
// to avoid data staleness and achieve Δ-atomicity"): with the sketch on,
// the maximum observed staleness must stay below Δ (+ purge propagation)
// for every Δ, while the stale-read *rate* stays near zero; with the
// sketch off the same stack degrades to TTL-bounded staleness.
//
// Monte-Carlo mode: the Δ-atomicity bound must hold for EVERY seed, not on
// average — so the table reports the max staleness over all --seeds trials
// (MergeRuns takes the across-seed max), fanned out over --threads workers.
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

constexpr int kDeltas[] = {5, 10, 30, 60, 120};
constexpr int kBaselineTtls[] = {30, 120, 600};
constexpr double kWriteRates[] = {0.5, 2.0, 8.0};

bench::RunSpec DeltaSpec(int delta_s) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.ttl_mode = core::TtlMode::kFixed;
  spec.stack.fixed_ttl = Duration::Seconds(120);
  spec.stack.coherence.delta = Duration::Seconds(delta_s);
  spec.traffic.writes_per_sec = 3.0;
  return spec;
}

bench::RunSpec BaselineSpec(int ttl_s) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.variant = core::SystemVariant::kFixedTtlCdn;
  spec.stack.fixed_ttl = Duration::Seconds(ttl_s);
  spec.traffic.writes_per_sec = 3.0;
  return spec;
}

bench::RunSpec WriteRateSpec(double rate) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.ttl_mode = core::TtlMode::kFixed;
  spec.stack.fixed_ttl = Duration::Seconds(120);
  spec.stack.coherence.delta = Duration::Seconds(30);
  spec.traffic.writes_per_sec = rate;
  return spec;
}

void Run(int num_seeds, int threads, int shards, const std::string& json_path,
         const std::string& trace_path) {
  // One flat sweep over all three sections so --threads workers stay busy
  // across section boundaries; sections index into the grid by offset.
  std::vector<bench::RunSpec> configs;
  for (int delta_s : kDeltas) configs.push_back(DeltaSpec(delta_s));
  const size_t baseline_off = configs.size();
  for (int ttl_s : kBaselineTtls) configs.push_back(BaselineSpec(ttl_s));
  const size_t rate_off = configs.size();
  for (double rate : kWriteRates) configs.push_back(WriteRateSpec(rate));

  bench::ApplyCoherenceFlag(&configs, g_coherence);
  int sweep_threads =
      bench::ApplyShardAndThreadFlags(&configs, shards, threads, num_seeds);

  bench::SweepResult sweep = bench::RunSweep(configs, num_seeds, sweep_threads);

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("bench", "staleness_delta");
  root.Set("seeds", num_seeds);
  root.Set("threads", threads);
  root.Set("shards", shards);
  obs::JsonValue rows = obs::JsonValue::Array();

  bench::PrintSection(
      "staleness vs delta (fixed 120s TTLs, 3 writes/s, 25 clients, 20min)");
  bench::Row("%8s %10s %12s %14s %14s %14s %12s", "delta_s", "reads",
             "stale_rate", "max_stale_s", "p99_stale_s", "bound_delta_s",
             "bypasses");
  for (size_t i = 0; i < std::size(kDeltas); ++i) {
    int delta_s = kDeltas[i];
    const std::vector<bench::RunOutput>& runs = sweep.outputs[i];
    bench::RunOutput out = bench::MergeRuns(runs);
    bench::SeedStats max_stale = bench::SeedStatsOf(runs, [](const auto& o) {
      return o.staleness.max_staleness.seconds();
    });
    bench::Row("%8d %10llu %11.4f%% %14.2f %14.2f %14d %12llu", delta_s,
               static_cast<unsigned long long>(out.staleness.reads),
               out.staleness.StaleFraction() * 100,
               out.staleness.max_staleness.seconds(),
               out.staleness_us.P99() / 1e6, delta_s,
               static_cast<unsigned long long>(
                   out.traffic.proxies.sketch_bypasses));
    obs::JsonValue row = obs::JsonRow(
        {{"section", "delta_sweep"},
         {"delta_s", delta_s},
         {"reads", out.staleness.reads},
         {"stale_rate", out.staleness.StaleFraction()},
         {"max_stale_s", out.staleness.max_staleness.seconds()},
         {"p99_stale_s", out.staleness_us.P99() / 1e6},
         {"sketch_bypasses", out.traffic.proxies.sketch_bypasses}});
    row.Set("max_stale_s_per_seed", bench::JsonSeedStats(max_stale));
    rows.Push(std::move(row));
  }
  bench::Note(
      "max_stale_s is the worst case over all seeds and must stay <= bound "
      "(delta + purge propagation)");

  bench::PrintSection("baseline: same stack, sketch disabled (fixed TTL only)");
  bench::Row("%10s %10s %12s %14s", "ttl_s", "reads", "stale_rate",
             "max_stale_s");
  for (size_t i = 0; i < std::size(kBaselineTtls); ++i) {
    int ttl_s = kBaselineTtls[i];
    bench::RunOutput out = bench::MergeRuns(sweep.outputs[baseline_off + i]);
    bench::Row("%10d %10llu %11.4f%% %14.2f", ttl_s,
               static_cast<unsigned long long>(out.staleness.reads),
               out.staleness.StaleFraction() * 100,
               out.staleness.max_staleness.seconds());
    rows.Push(obs::JsonRow(
        {{"section", "no_sketch_baseline"},
         {"ttl_s", ttl_s},
         {"reads", out.staleness.reads},
         {"stale_rate", out.staleness.StaleFraction()},
         {"max_stale_s", out.staleness.max_staleness.seconds()}}));
  }
  bench::Note("staleness grows with TTL when nothing invalidates caches");

  bench::PrintSection("delta=30s: robustness across write rates");
  bench::Row("%12s %10s %12s %14s %14s", "writes_per_s", "reads", "stale_rate",
             "max_stale_s", "sketch_entries");
  for (size_t i = 0; i < std::size(kWriteRates); ++i) {
    double rate = kWriteRates[i];
    bench::RunOutput out = bench::MergeRuns(sweep.outputs[rate_off + i]);
    bench::Row("%12.1f %10llu %11.4f%% %14.2f %14zu", rate,
               static_cast<unsigned long long>(out.staleness.reads),
               out.staleness.StaleFraction() * 100,
               out.staleness.max_staleness.seconds(), out.sketch_entries);
    rows.Push(obs::JsonRow(
        {{"section", "write_rate_sensitivity"},
         {"writes_per_sec", rate},
         {"reads", out.staleness.reads},
         {"stale_rate", out.staleness.StaleFraction()},
         {"max_stale_s", out.staleness.max_staleness.seconds()},
         {"sketch_entries", static_cast<uint64_t>(out.sketch_entries)}}));
  }

  bench::Note(bench::WallClockNote(sweep, num_seeds, threads));
  root.Set("rows", std::move(rows));
  root.Set("wall_seconds", sweep.wall_seconds);
  root.Set("cpu_seconds", sweep.cpu_seconds);
  root.Set("speedup", sweep.Speedup());
  if (!json_path.empty()) obs::WriteJsonFile(json_path, root);

  bench::MaybeTraceRun(configs[0], "staleness_delta", trace_path);
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
      flags.GetString("json", ""), "staleness_delta");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "staleness_delta");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E2", "Delta-atomicity: staleness bound vs sketch refresh interval",
      "the paper's central coherence claim (bounded staleness under "
      "expiration-based caching)");
  speedkit::Run(seeds, threads, shards, json_path, trace_path);
  return 0;
}
