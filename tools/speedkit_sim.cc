// speedkit_sim: run a configurable end-to-end simulation from the command
// line and print the operations dashboard.
//
//   speedkit_sim --variant=speed_kit --clients=40 --minutes=30 \
//                --writes-per-sec=3 --skew=0.9 --delta=30 --seed=42
//
// Variants: speed_kit | fixed_ttl_cdn | no_caching | pure_invalidation.
#include <cstdio>
#include <string>

#include "core/stack.h"
#include "core/traffic.h"
#include "obs/export.h"
#include "tools/flags.h"

using namespace speedkit;

namespace {

core::SystemVariant ParseVariant(const std::string& name) {
  if (name == "fixed_ttl_cdn") return core::SystemVariant::kFixedTtlCdn;
  if (name == "no_caching") return core::SystemVariant::kNoCaching;
  if (name == "pure_invalidation") {
    return core::SystemVariant::kPureInvalidation;
  }
  return core::SystemVariant::kSpeedKit;
}

int Usage() {
  std::printf(
      "usage: speedkit_sim [--variant=speed_kit|fixed_ttl_cdn|no_caching|"
      "pure_invalidation]\n"
      "                    [--clients=N] [--minutes=M] [--writes-per-sec=W]\n"
      "                    [--skew=S] [--delta=SECONDS] [--products=P]\n"
      "                    [--coherence=delta_atomic|serializable|"
      "fixed_ttl]\n"
      "                    [--categories=C] [--edges=E] [--fixed-ttl=SECONDS]\n"
      "                    [--seed=N]\n"
      "                    [--metrics[=METRICS.json]] write the metrics\n"
      "                    registry snapshot (docs/METRICS.md names)\n"
      "                    [--trace[=TRACE.csv]] record request traces,\n"
      "                    print the per-tier latency breakdown, and write\n"
      "                    the CSV tools/trace_report renders\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.Has("help")) return Usage();

  core::StackConfig config;
  config.variant = ParseVariant(flags.GetString("variant", "speed_kit"));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.cdn_edges = static_cast<int>(flags.GetInt("edges", 4));
  config.coherence.delta = Duration::Seconds(flags.GetDouble("delta", 30));
  if (Status s = coherence::ParseCoherenceMode(
          flags.GetString("coherence", "delta_atomic"),
          &config.coherence.mode);
      !s.ok()) {
    std::fprintf(stderr, "--coherence: %s\n", s.ToString().c_str());
    return 2;
  }
  config.fixed_ttl = Duration::Seconds(flags.GetDouble("fixed-ttl", 120));
  if (flags.GetString("ttl-mode", "estimator") == "fixed") {
    config.ttl_mode = core::TtlMode::kFixed;
  }
  // Observability is inert by contract: with or without these flags the
  // dashboard numbers below are bit-for-bit identical.
  config.obs.metrics = flags.Has("metrics");
  config.obs.tracing = flags.Has("trace");
  std::string trace_path = flags.GetString("trace", "true");
  if (trace_path == "true") trace_path = "TRACE_sim.csv";
  std::string metrics_path = flags.GetString("metrics", "true");
  if (metrics_path == "true") metrics_path = "METRICS_sim.json";

  workload::CatalogConfig catalog_config;
  catalog_config.num_products =
      static_cast<size_t>(flags.GetInt("products", 5000));
  catalog_config.num_categories =
      static_cast<int>(flags.GetInt("categories", 40));

  core::TrafficConfig traffic;
  traffic.num_clients = static_cast<size_t>(flags.GetInt("clients", 40));
  traffic.duration = Duration::Minutes(flags.GetDouble("minutes", 30));
  traffic.writes_per_sec = flags.GetDouble("writes-per-sec", 3.0);
  traffic.session.product_skew = flags.GetDouble("skew", 0.9);
  flags.RejectUnknown();

  core::SpeedKitStack stack(config);
  workload::Catalog catalog(catalog_config, Pcg32(config.seed + 1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    (void)stack.origin().RegisterQuery(catalog.CategoryQuery(c));
    if (stack.pipeline() != nullptr) {
      (void)stack.pipeline()->WatchQuery(catalog.CategoryQuery(c),
                                         catalog.CategoryUrl(c));
    }
  }
  stack.Advance(Duration::Seconds(5));

  std::printf("speedkit_sim: variant=%s clients=%zu minutes=%.0f "
              "writes/s=%.1f skew=%.2f delta=%.0fs seed=%llu\n\n",
              std::string(core::SystemVariantName(config.variant)).c_str(),
              traffic.num_clients, traffic.duration.seconds() / 60,
              traffic.writes_per_sec, traffic.session.product_skew,
              config.coherence.delta.seconds(),
              static_cast<unsigned long long>(config.seed));

  core::TrafficSimulation sim(&stack, &catalog, traffic);
  core::TrafficResult result = sim.Run();

  const proxy::ProxyStats& p = result.proxies;
  double n = static_cast<double>(std::max<uint64_t>(1, p.requests));
  std::printf("requests %llu  (browser %.1f%%, swr %.1f%%, edge %.1f%%, "
              "304 %.1f%%, origin %.1f%%, offline %.1f%%)\n",
              static_cast<unsigned long long>(p.requests),
              100 * p.browser_hits / n, 100 * p.swr_serves / n,
              100 * p.edge_hits / n, 100 * p.revalidations_304 / n,
              100 * p.origin_fetches / n, 100 * p.offline_serves / n);
  std::printf("api latency  p50=%.1fms p90=%.1fms p99=%.1fms\n",
              result.api_latency_us.P50() / 1e3,
              result.api_latency_us.P90() / 1e3,
              result.api_latency_us.P99() / 1e3);

  const coherence::StalenessReport& s = stack.staleness().report();
  std::printf("coherence    writes=%llu stale_reads=%llu (%.3f%%) "
              "max_staleness=%.2fs\n",
              static_cast<unsigned long long>(result.writes_applied),
              static_cast<unsigned long long>(s.stale_reads),
              100 * s.StaleFraction(), s.max_staleness.seconds());
  if (stack.sketch() != nullptr) {
    std::printf("sketch       entries=%zu snapshot=%zuB refreshes=%llu "
                "bypasses=%llu\n",
                stack.sketch()->entries(),
                stack.sketch()->SerializedSnapshot(stack.clock().Now()).size(),
                static_cast<unsigned long long>(p.sketch_refreshes),
                static_cast<unsigned long long>(p.sketch_bypasses));
  }
  const origin::OriginStats& os = stack.origin().stats();
  std::printf("origin       requests=%llu render_cache_hits=%llu "
              "render_saved=%.1fs\n",
              static_cast<unsigned long long>(os.requests),
              static_cast<unsigned long long>(os.render_cache_hits),
              os.render_time_saved_us / 1e6);

  if (config.obs.tracing) {
    std::printf("\nper-tier latency (ms):  "
                "tier       requests     p50     p90     p99\n");
    auto tier_row = [](const char* tier, const Histogram& h) {
      if (h.count() == 0) return;
      std::printf("                        %-10s %8llu %7.1f %7.1f %7.1f\n",
                  tier, static_cast<unsigned long long>(h.count()),
                  h.P50() / 1e3, h.P90() / 1e3, h.P99() / 1e3);
    };
    tier_row("browser", p.latency_browser_us);
    tier_row("edge", p.latency_edge_us);
    tier_row("origin", p.latency_origin_us);
    tier_row("offline", p.latency_offline_us);
    tier_row("error", p.latency_error_us);
    tier_row("degraded", p.latency_degraded_us);

    obs::MetaList meta = {
        {"bench", "speedkit_sim"},
        {"seed", std::to_string(config.seed)},
        {"requests", std::to_string(p.requests)},
        {"served_total", std::to_string(p.ServedTotal())},
        {"trace_emitted", std::to_string(stack.trace_sink()->emitted())},
        {"trace_dropped", std::to_string(stack.trace_sink()->dropped())},
    };
    if (obs::WriteTraceCsv(trace_path, stack.trace_sink()->traces(), meta)) {
      std::printf("traces       wrote %zu to %s (render with "
                  "tools/trace_report)\n",
                  stack.trace_sink()->traces().size(), trace_path.c_str());
    }
  }
  if (config.obs.metrics) {
    stack.CollectMetrics(&result.proxies);
    obs::MetaList meta = {
        {"bench", "speedkit_sim"},
        {"variant", std::string(core::SystemVariantName(config.variant))},
        {"seed", std::to_string(config.seed)},
    };
    if (obs::WriteMetricsJson(metrics_path, *stack.metrics(), meta)) {
      std::printf("metrics      wrote %zu series to %s (reference: "
                  "docs/METRICS.md)\n",
                  stack.metrics()->metrics().size(), metrics_path.c_str());
    }
  }
  return 0;
}
