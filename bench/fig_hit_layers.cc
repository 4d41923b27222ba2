// E4 — Requests served per layer (browser / CDN edge / origin) vs.
// popularity skew and CDN fan-out: the polyglot architecture's payoff.
//
// Reproduces the layered-hit-ratio view of the architecture: as skew
// grows, traffic collapses onto the hot head and the cache layers absorb
// it; more edges dilute per-edge hit rates (same traffic split more ways).
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


void SkewSweep(obs::JsonValue* rows) {
  bench::PrintSection("share of requests per layer vs Zipf skew (4 edges)");
  bench::Row("%6s %10s %10s %10s %10s %12s", "skew", "browser", "edge",
             "origin", "reval304", "p50_ms");
  for (double skew : {0.5, 0.7, 0.9, 1.1, 1.3}) {
    bench::RunSpec spec = BaseSpec();
    spec.traffic.session.product_skew = skew;
    bench::RunOutput out = bench::RunWorkload(spec);
    const auto& p = out.traffic.proxies;
    double n = static_cast<double>(p.requests);
    bench::Row("%6.1f %9.1f%% %9.1f%% %9.1f%% %9.1f%% %12.1f", skew,
               100.0 * p.browser_hits / n, 100.0 * p.edge_hits / n,
               100.0 * p.origin_fetches / n,
               100.0 * p.revalidations_304 / n,
               out.traffic.all_latency_us.P50() / 1e3);
    rows->Push(obs::JsonRow(
        {{"section", "skew_sweep"},
         {"skew", skew},
         {"browser_share", p.browser_hits / n},
         {"edge_share", p.edge_hits / n},
         {"origin_share", p.origin_fetches / n},
         {"reval_304_share", p.revalidations_304 / n},
         {"p50_ms", out.traffic.all_latency_us.P50() / 1e3}}));
  }
}

void EdgeCountSweep(obs::JsonValue* rows) {
  bench::PrintSection("edge fan-out: per-layer shares vs number of edges");
  bench::Row("%6s %10s %10s %10s %12s", "edges", "browser", "edge", "origin",
             "p50_ms");
  for (int edges : {1, 2, 4, 8, 16}) {
    bench::RunSpec spec = BaseSpec();
    spec.stack.cdn_edges = edges;
    // Sweep points the requested shard count cannot partition (shards must
    // divide cdn_edges — Validate rejects, it does not clamp) run
    // unsharded rather than abort the whole sweep.
    if (edges % spec.stack.shards != 0) {
      spec.stack.shards = 1;
      spec.run_threads = 1;
    }
    spec.traffic.session.product_skew = 0.9;
    bench::RunOutput out = bench::RunWorkload(spec);
    const auto& p = out.traffic.proxies;
    double n = static_cast<double>(p.requests);
    bench::Row("%6d %9.1f%% %9.1f%% %9.1f%% %12.1f", edges,
               100.0 * p.browser_hits / n, 100.0 * p.edge_hits / n,
               100.0 * p.origin_fetches / n,
               out.traffic.all_latency_us.P50() / 1e3);
    rows->Push(obs::JsonRow(
        {{"section", "edge_count_sweep"},
         {"edges", edges},
         {"browser_share", p.browser_hits / n},
         {"edge_share", p.edge_hits / n},
         {"origin_share", p.origin_fetches / n},
         {"p50_ms", out.traffic.all_latency_us.P50() / 1e3}}));
  }
  bench::Note("more edges split the shared working set: edge share drops, "
              "origin share grows (classic CDN cache dilution)");
}

void CatalogSizeSweep(obs::JsonValue* rows) {
  bench::PrintSection("working-set pressure: shares vs catalog size");
  bench::Row("%10s %10s %10s %10s", "products", "browser", "edge", "origin");
  for (size_t products : {500u, 2000u, 10000u, 50000u}) {
    bench::RunSpec spec = BaseSpec();
    spec.catalog.num_products = products;
    spec.traffic.session.product_skew = 0.9;
    bench::RunOutput out = bench::RunWorkload(spec);
    const auto& p = out.traffic.proxies;
    double n = static_cast<double>(p.requests);
    bench::Row("%10zu %9.1f%% %9.1f%% %9.1f%%", products,
               100.0 * p.browser_hits / n, 100.0 * p.edge_hits / n,
               100.0 * p.origin_fetches / n);
    rows->Push(obs::JsonRow(
        {{"section", "catalog_size_sweep"},
         {"products", static_cast<uint64_t>(products)},
         {"browser_share", p.browser_hits / n},
         {"edge_share", p.edge_hits / n},
         {"origin_share", p.origin_fetches / n}}));
  }
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
      flags.GetString("json", ""), "hit_layers");
  std::string trace_path = speedkit::bench::TracePathFromFlag(
      flags.GetString("trace", ""), "hit_layers");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E4", "Requests served per cache layer",
      "the polyglot architecture's layered hit ratios (browser -> CDN -> "
      "origin)");
  speedkit::obs::JsonValue rows = speedkit::obs::JsonValue::Array();
  speedkit::SkewSweep(&rows);
  speedkit::EdgeCountSweep(&rows);
  speedkit::CatalogSizeSweep(&rows);
  if (!json_path.empty()) {
    speedkit::obs::JsonValue root = speedkit::obs::JsonValue::Object();
    root.Set("bench", "hit_layers");
    root.Set("rows", std::move(rows));
    speedkit::obs::WriteJsonFile(json_path, root);
  }
  speedkit::bench::RunSpec trace_spec = speedkit::bench::DefaultRunSpec();
  trace_spec.traffic.session.product_skew = 0.9;
  speedkit::bench::MaybeTraceRun(trace_spec, "hit_layers", trace_path);
  return 0;
}
