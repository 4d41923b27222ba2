// E14 — Fault injection & degraded mode: what breaks when the
// infrastructure does.
//
// Three stress axes, all driven by the deterministic fault schedule
// (sim/fault_schedule.h):
//
//   1. Purge-delivery loss. Dropped purges leave stale copies on edges —
//      but the sketch horizon comes from the ExpiryBook (every handed-out
//      TTL), not from purge acknowledgements, so Speed Kit's Δ-bound must
//      hold at ANY loss rate; degradation shows up as a rising stale-read
//      rate, never as a bound violation. The fixed-TTL baseline violates
//      the same bound with or without faults. CI gates on zero violations
//      at 0% loss.
//   2. Origin outage mid-run. Speed Kit keeps serving from browser/edge
//      copies (offline mode, stale-if-error); the fixed-TTL CDN only
//      survives as long as its edge TTLs do. An edge outage reroutes
//      pinned clients pass-through to the origin (fallback serves).
//   3. Flaky client-edge link. Timeouts burn the request budget, bounded
//      retries with exponential backoff absorb transient loss, and
//      persistent failure falls back to the origin path — availability
//      holds while p99 latency degrades measurably.
//
// Monte-Carlo mode: --seeds trials per config on --threads workers; the
// merged JSON is bit-identical for any thread count.
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

constexpr double kPurgeLoss[] = {0.0, 0.1, 0.3, 0.6};
constexpr double kLinkLoss[] = {0.0, 0.05, 0.2};
// Δ-bound slack for purge propagation (the pipeline's lognormal delivery
// delay tail), matching E2's "delta + purge propagation" wording.
constexpr double kBoundMarginS = 2.0;

// Traffic starts 5s into simulated time (RunWorkload settles population
// writes first); outage windows are placed relative to that.
sim::FaultWindow Window(Duration from, Duration to) {
  sim::FaultWindow w;
  w.start = SimTime::Origin() + Duration::Seconds(5) + from;
  w.end = SimTime::Origin() + Duration::Seconds(5) + to;
  return w;
}

bench::RunSpec BaseSpec(core::SystemVariant variant) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.variant = variant;
  spec.stack.ttl_mode = core::TtlMode::kFixed;
  spec.stack.fixed_ttl = Duration::Seconds(120);
  spec.stack.coherence.delta = Duration::Seconds(30);
  spec.traffic.writes_per_sec = 3.0;
  spec.delta_bound_margin = Duration::Seconds(kBoundMarginS);
  return spec;
}

bench::RunSpec PurgeLossSpec(core::SystemVariant variant, double loss) {
  bench::RunSpec spec = BaseSpec(variant);
  spec.stack.faults.purge_loss_probability = loss;
  return spec;
}

bench::RunSpec OutageSpec(core::SystemVariant variant, bool edge_outage) {
  bench::RunSpec spec = BaseSpec(variant);
  sim::FaultWindow w = Window(Duration::Minutes(8), Duration::Minutes(12));
  if (edge_outage) {
    spec.stack.faults.edges = {{w}};  // edge 0 down for 4 of 20 minutes
  } else {
    spec.stack.faults.origin = {w};
  }
  return spec;
}

bench::RunSpec FlakyLinkSpec(double loss) {
  bench::RunSpec spec = BaseSpec(core::SystemVariant::kSpeedKit);
  spec.stack.faults.client_edge.loss_probability = loss;
  return spec;
}

double Availability(const bench::RunOutput& out) {
  const proxy::ProxyStats& p = out.traffic.proxies;
  if (p.requests == 0) return 0.0;
  return 1.0 - static_cast<double>(p.errors) / static_cast<double>(p.requests);
}

void Run(int num_seeds, int threads, int shards, const std::string& json_path,
         const std::string& trace_path) {
  // One flat sweep so workers stay busy across section boundaries.
  std::vector<bench::RunSpec> configs;
  std::vector<std::string> variants;  // parallel to the purge section
  for (double loss : kPurgeLoss) {
    configs.push_back(PurgeLossSpec(core::SystemVariant::kSpeedKit, loss));
  }
  const size_t baseline_off = configs.size();
  configs.push_back(PurgeLossSpec(core::SystemVariant::kFixedTtlCdn, 0.0));

  const size_t outage_off = configs.size();
  configs.push_back(OutageSpec(core::SystemVariant::kSpeedKit, false));
  configs.push_back(OutageSpec(core::SystemVariant::kFixedTtlCdn, false));
  configs.push_back(OutageSpec(core::SystemVariant::kSpeedKit, true));

  const size_t flaky_off = configs.size();
  for (double loss : kLinkLoss) configs.push_back(FlakyLinkSpec(loss));

  bench::ApplyCoherenceFlag(&configs, g_coherence);
  int sweep_threads =
      bench::ApplyShardAndThreadFlags(&configs, shards, threads, num_seeds);

  bench::SweepResult sweep = bench::RunSweep(configs, num_seeds, sweep_threads);

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("bench", "faults");
  root.Set("seeds", num_seeds);
  root.Set("threads", threads);
  root.Set("shards", shards);
  root.Set("bound_margin_s", kBoundMarginS);
  obs::JsonValue rows = obs::JsonValue::Array();

  bench::PrintSection(
      "purge-delivery loss: Delta-bound holds, stale-read rate degrades");
  bench::Row("%12s %10s %10s %12s %12s %12s %14s %12s", "variant",
             "purge_loss", "reads", "stale_rate", "max_stale_s", "violations",
             "purges_drop", "purges_sched");
  auto purge_row = [&](const std::string& variant, double loss,
                       const std::vector<bench::RunOutput>& runs) {
    bench::RunOutput out = bench::MergeRuns(runs);
    bench::SeedStats violations = bench::SeedStatsOf(runs, [](const auto& o) {
      return static_cast<double>(o.staleness.delta_violations);
    });
    bench::Row("%12s %10.2f %10llu %11.4f%% %12.2f %12llu %14llu %12llu",
               variant.c_str(), loss,
               static_cast<unsigned long long>(out.staleness.reads),
               out.staleness.StaleFraction() * 100,
               out.staleness.max_staleness.seconds(),
               static_cast<unsigned long long>(out.staleness.delta_violations),
               static_cast<unsigned long long>(out.pipeline.purges_dropped),
               static_cast<unsigned long long>(out.pipeline.purges_scheduled));
    obs::JsonValue row = obs::JsonRow(
        {{"section", "purge_loss"},
         {"variant", variant},
         {"purge_loss", loss},
         {"reads", out.staleness.reads},
         {"stale_rate", out.staleness.StaleFraction()},
         {"max_stale_s", out.staleness.max_staleness.seconds()},
         {"delta_violations", out.staleness.delta_violations},
         {"violation_rate", out.staleness.ViolationFraction()},
         {"excused_stale_reads", out.staleness.excused_stale_reads},
         {"purges_scheduled", out.pipeline.purges_scheduled},
         {"purges_dropped", out.pipeline.purges_dropped},
         {"purges_delayed", out.pipeline.purges_delayed}});
    row.Set("violations_per_seed", bench::JsonSeedStats(violations));
    rows.Push(std::move(row));
  };
  for (size_t i = 0; i < std::size(kPurgeLoss); ++i) {
    purge_row("speed_kit", kPurgeLoss[i], sweep.outputs[i]);
  }
  purge_row("fixed_ttl_cdn", 0.0, sweep.outputs[baseline_off]);
  bench::Note(
      "sketch horizons come from handed-out TTLs, not purge acks, so "
      "speed_kit violations stay 0 at every loss rate; the fixed-TTL "
      "baseline breaks the same bound with zero faults injected");

  bench::PrintSection("4-minute outage inside a 20-minute run");
  bench::Row("%14s %10s %10s %14s %10s %12s %12s %10s", "outage", "variant",
             "requests", "availability", "errors", "offline", "fallbacks",
             "timeouts");
  const char* outage_names[] = {"origin", "origin", "edge0"};
  const char* outage_variants[] = {"speed_kit", "fixed_ttl_cdn", "speed_kit"};
  for (size_t i = 0; i < 3; ++i) {
    const std::vector<bench::RunOutput>& runs = sweep.outputs[outage_off + i];
    bench::RunOutput out = bench::MergeRuns(runs);
    bench::SeedStats avail = bench::SeedStatsOf(runs, Availability);
    const proxy::ProxyStats& p = out.traffic.proxies;
    bench::Row("%14s %10s %10llu %13.2f%% %10llu %12llu %12llu %10llu",
               outage_names[i], outage_variants[i],
               static_cast<unsigned long long>(p.requests),
               Availability(out) * 100,
               static_cast<unsigned long long>(p.errors),
               static_cast<unsigned long long>(p.offline_serves),
               static_cast<unsigned long long>(p.fallback_serves),
               static_cast<unsigned long long>(p.timeouts));
    obs::JsonValue row = obs::JsonRow(
        {{"section", "outage"},
         {"outage", std::string(outage_names[i])},
         {"variant", std::string(outage_variants[i])},
         {"requests", p.requests},
         {"availability", Availability(out)},
         {"errors", p.errors},
         {"offline_serves", p.offline_serves},
         {"fallback_serves", p.fallback_serves},
         {"timeouts", p.timeouts},
         {"edge_down_rejects", out.edge_faults.down_rejects},
         {"excused_stale_reads", out.staleness.excused_stale_reads}});
    row.Set("availability_per_seed", bench::JsonSeedStats(avail));
    rows.Push(std::move(row));
  }
  bench::Note(
      "speed_kit rides out the origin outage on device/edge copies "
      "(offline serves are excused from the Delta bound: availability "
      "over freshness); an edge outage is absorbed by pass-through "
      "rerouting");

  bench::PrintSection("flaky client-edge link: retries, fallbacks, latency");
  bench::Row("%10s %10s %10s %10s %12s %14s %12s", "link_loss", "requests",
             "timeouts", "retries", "fallbacks", "availability", "p99_api_ms");
  for (size_t i = 0; i < std::size(kLinkLoss); ++i) {
    const std::vector<bench::RunOutput>& runs = sweep.outputs[flaky_off + i];
    bench::RunOutput out = bench::MergeRuns(runs);
    const proxy::ProxyStats& p = out.traffic.proxies;
    bench::Row("%10.2f %10llu %10llu %10llu %12llu %13.2f%% %12.1f",
               kLinkLoss[i], static_cast<unsigned long long>(p.requests),
               static_cast<unsigned long long>(p.timeouts),
               static_cast<unsigned long long>(p.retries),
               static_cast<unsigned long long>(p.fallback_serves),
               Availability(out) * 100, out.traffic.api_latency_us.P99() / 1e3);
    rows.Push(obs::JsonRow(
        {{"section", "flaky_link"},
         {"link_loss", kLinkLoss[i]},
         {"requests", p.requests},
         {"timeouts", p.timeouts},
         {"retries", p.retries},
         {"fallback_serves", p.fallback_serves},
         {"availability", Availability(out)},
         {"p99_api_ms", out.traffic.api_latency_us.P99() / 1e3},
         {"delta_violations", out.staleness.delta_violations}}));
  }
  bench::Note(
      "loss degrades tail latency (timeout + backoff burn) before it "
      "degrades availability (reroute to origin still serves)");

  bench::Note(bench::WallClockNote(sweep, num_seeds, threads));
  root.Set("rows", std::move(rows));
  root.Set("wall_seconds", sweep.wall_seconds);
  root.Set("cpu_seconds", sweep.cpu_seconds);
  root.Set("speedup", sweep.Speedup());
  if (!json_path.empty()) obs::WriteJsonFile(json_path, root);

  // Flaky-link config: its traces carry the richest degraded-path spans
  // (timeout waits, retry backoffs, reroutes) next to the happy paths.
  bench::MaybeTraceRun(FlakyLinkSpec(0.2), "faults", trace_path);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::tools::Flags flags(argc, argv);
  int seeds = static_cast<int>(flags.GetInt("seeds", 3));
  speedkit::g_coherence = speedkit::bench::CoherenceModeFromFlag(
      flags.GetString("coherence", ""));
  int threads = static_cast<int>(flags.GetInt("threads", 1));
  int shards = static_cast<int>(flags.GetInt("shards", 1));
  std::string json_path = speedkit::bench::JsonPathFromFlag(
      flags.GetString("json", ""), "faults");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "faults");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E14", "Fault injection: purge loss, outages, flaky links",
      "degraded-mode behavior — the Delta bound survives purge loss, "
      "availability survives outages, retries absorb transient link loss");
  speedkit::Run(seeds, threads, shards, json_path, trace_path);
  return 0;
}
