// E8 — Protocol overhead: Cache Sketch maintenance traffic vs. Δ and
// write rate.
//
// Reproduces the protocol-overhead table: what keeping clients coherent
// costs in snapshot bytes per client per minute, how the snapshot's
// false-positive rate moves with write pressure, and how many extra
// revalidations false positives cause. The trade: small Δ = tight bound =
// more refresh traffic.
#include <string>

#include "bench/bench_util.h"
#include "bench/trace_support.h"
#include "bench/workload_runner.h"
#include "obs/json.h"
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


void DeltaTrafficSweep(obs::JsonValue* rows) {
  bench::PrintSection(
      "per-client sketch traffic vs delta (fixed 120s TTL, 2 writes/s)");
  bench::Row("%8s %12s %14s %16s %14s %12s", "delta_s", "refreshes",
             "snapshot_B", "bytes/client/min", "bypasses", "max_stale_s");
  for (int delta_s : {5, 10, 30, 60, 120}) {
    bench::RunSpec spec = BaseSpec();
    spec.stack.ttl_mode = core::TtlMode::kFixed;
    spec.stack.fixed_ttl = Duration::Seconds(120);
    spec.stack.coherence.delta = Duration::Seconds(delta_s);
    bench::RunOutput out = bench::RunWorkload(spec);
    double client_minutes = static_cast<double>(spec.traffic.num_clients) *
                            spec.traffic.duration.seconds() / 60.0;
    double bytes_per_client_min =
        static_cast<double>(out.traffic.proxies.sketch_bytes) / client_minutes;
    bench::Row("%8d %12llu %14llu %16.0f %14llu %14.2f", delta_s,
               static_cast<unsigned long long>(
                   out.traffic.proxies.sketch_refreshes),
               static_cast<unsigned long long>(out.sketch_snapshot_bytes),
               bytes_per_client_min,
               static_cast<unsigned long long>(
                   out.traffic.proxies.sketch_bypasses),
               out.staleness.max_staleness.seconds());
    rows->Push(obs::JsonRow(
        {{"section", "delta_traffic"},
         {"delta_s", delta_s},
         {"sketch_refreshes", out.traffic.proxies.sketch_refreshes},
         {"snapshot_bytes", static_cast<uint64_t>(out.sketch_snapshot_bytes)},
         {"bytes_per_client_min", bytes_per_client_min},
         {"sketch_bypasses", out.traffic.proxies.sketch_bypasses},
         {"max_stale_s", out.staleness.max_staleness.seconds()}}));
  }
}

void WriteRateSweep(obs::JsonValue* rows) {
  bench::PrintSection(
      "sketch load vs write rate (delta 30s, fixed 120s TTL)");
  bench::Row("%12s %14s %14s %14s %14s", "writes_per_s", "sketch_entries",
             "snapshot_B", "bypasses", "reval_304");
  for (double rate : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    bench::RunSpec spec = BaseSpec();
    spec.stack.ttl_mode = core::TtlMode::kFixed;
    spec.stack.fixed_ttl = Duration::Seconds(120);
    spec.stack.coherence.delta = Duration::Seconds(30);
    spec.traffic.writes_per_sec = rate;
    bench::RunOutput out = bench::RunWorkload(spec);
    bench::Row("%12.1f %14zu %14llu %14llu %14llu", rate, out.sketch_entries,
               static_cast<unsigned long long>(out.sketch_snapshot_bytes),
               static_cast<unsigned long long>(
                   out.traffic.proxies.sketch_bypasses),
               static_cast<unsigned long long>(
                   out.traffic.proxies.revalidations_304));
    rows->Push(obs::JsonRow(
        {{"section", "write_rate"},
         {"writes_per_sec", rate},
         {"sketch_entries", static_cast<uint64_t>(out.sketch_entries)},
         {"snapshot_bytes", static_cast<uint64_t>(out.sketch_snapshot_bytes)},
         {"sketch_bypasses", out.traffic.proxies.sketch_bypasses},
         {"revalidations_304", out.traffic.proxies.revalidations_304}}));
  }
  bench::Note("sketch population ~ write rate x TTL; snapshot stays compact "
              "(bits, not keys) — the protocol's scalability argument");
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
      flags.GetString("json", ""), "sketch_traffic");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "sketch_traffic");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E8", "Cache Sketch maintenance traffic",
      "protocol overhead table: coherence bytes per client vs delta and "
      "write pressure");
  speedkit::obs::JsonValue rows = speedkit::obs::JsonValue::Array();
  speedkit::DeltaTrafficSweep(&rows);
  speedkit::WriteRateSweep(&rows);
  if (!json_path.empty()) {
    speedkit::obs::JsonValue root = speedkit::obs::JsonValue::Object();
    root.Set("bench", "sketch_traffic");
    root.Set("rows", std::move(rows));
    speedkit::obs::WriteJsonFile(json_path, root);
  }
  // The delta=30s / fixed-120s-TTL cell both sweeps share.
  speedkit::bench::RunSpec trace_spec = speedkit::bench::DefaultRunSpec();
  trace_spec.stack.ttl_mode = speedkit::core::TtlMode::kFixed;
  trace_spec.stack.fixed_ttl = speedkit::Duration::Seconds(120);
  trace_spec.stack.coherence.delta = speedkit::Duration::Seconds(30);
  speedkit::bench::MaybeTraceRun(trace_spec, "sketch_traffic", trace_path);
  return 0;
}
