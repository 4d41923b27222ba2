// speedkit_loadgen: closed-loop load generator for a speedkit_edged tier.
//
//   speedkit-loadgen --targets=edge-a=127.0.0.1:8080,edge-b=127.0.0.1:8081 \
//       --workers=8 --requests=5000 --zipf=0.95
//
// Routes keys through the same consistent-hash ring the edge tier uses
// (client-side routing), keeps one keep-alive connection per worker per
// target, and prints the serve-tier split plus wall/predicted latency
// percentiles. See docs/OPERATIONS.md.
#include <cstdio>
#include <string>

#include "common/strings.h"
#include "net/loadgen.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  using speedkit::tools::Flags;
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf(
        "speedkit-loadgen -- closed-loop client fleet for speedkit-edged\n"
        "  --targets=name=host:port[,...]  the edge ring (names must match)\n"
        "  --ring-replicas=200             vnodes per member (match edged)\n"
        "  --workers=4                     closed-loop clients (threads)\n"
        "  --requests=1000                 requests per worker\n"
        "  --seed=42                       workload RNG seed\n"
        "  --zipf=0.95                     popularity skew exponent\n"
        "  --hot-products=500              Zipf ranks drawn from first N\n"
        "  --products=2000                 catalog size (match edged)\n");
    return 0;
  }

  speedkit::net::LoadGenConfig config;
  std::string targets = flags.GetString("targets", "edge-0=127.0.0.1:8080");
  for (std::string_view spec : speedkit::SplitView(targets, ',')) {
    size_t eq = spec.find('=');
    size_t colon = spec.rfind(':');
    if (eq == std::string_view::npos || colon == std::string_view::npos ||
        colon < eq) {
      std::fprintf(stderr, "bad --targets entry (want name=host:port): %.*s\n",
                   static_cast<int>(spec.size()), spec.data());
      return 1;
    }
    speedkit::net::LoadGenTarget target;
    target.node_name = std::string(spec.substr(0, eq));
    target.host = std::string(spec.substr(eq + 1, colon - eq - 1));
    auto port = speedkit::ParseInt64(spec.substr(colon + 1));
    if (!port.has_value() || *port <= 0 || *port > 65535) {
      std::fprintf(stderr, "bad port in --targets entry: %.*s\n",
                   static_cast<int>(spec.size()), spec.data());
      return 1;
    }
    target.port = static_cast<uint16_t>(*port);
    config.targets.push_back(std::move(target));
  }
  config.ring_replicas = static_cast<int>(flags.GetInt("ring-replicas", 200));
  config.workers = static_cast<int>(flags.GetInt("workers", 4));
  config.requests_per_worker =
      static_cast<uint64_t>(flags.GetInt("requests", 1000));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.zipf_s = flags.GetDouble("zipf", 0.95);
  config.hot_products =
      static_cast<size_t>(flags.GetInt("hot-products", 500));
  config.catalog.num_products =
      static_cast<size_t>(flags.GetInt("products", 2000));
  flags.RejectUnknown();

  speedkit::net::LoadGenReport report = speedkit::net::RunLoadGen(config);

  std::printf("requests            %llu\n",
              static_cast<unsigned long long>(report.requests));
  std::printf("responses           %llu\n",
              static_cast<unsigned long long>(report.responses));
  std::printf("transport errors    %llu\n",
              static_cast<unsigned long long>(report.transport_errors));
  std::printf("4xx / 5xx           %llu / %llu\n",
              static_cast<unsigned long long>(report.errors_4xx),
              static_cast<unsigned long long>(report.errors_5xx));
  for (const auto& [source, n] : report.sources) {
    std::printf("served from %-8s %llu\n", source.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf("cache hit rate      %.4f\n", report.HitRate());
  std::printf("throughput          %.0f req/s\n",
              report.wall_seconds > 0
                  ? static_cast<double>(report.responses) / report.wall_seconds
                  : 0.0);
  std::printf("wall latency (us)   p50=%lld p90=%lld p99=%lld\n",
              static_cast<long long>(report.wall_latency_us.P50()),
              static_cast<long long>(report.wall_latency_us.P90()),
              static_cast<long long>(report.wall_latency_us.P99()));
  std::printf("sim-predicted (us)  p50=%lld p90=%lld p99=%lld\n",
              static_cast<long long>(report.predicted_us.P50()),
              static_cast<long long>(report.predicted_us.P90()),
              static_cast<long long>(report.predicted_us.P99()));
  return report.transport_errors == 0 && report.errors_5xx == 0 ? 0 : 1;
}
