// E17 -- socketed edge vs. simulator prediction.
//
// Boots a real speedkit_edged instance on an ephemeral localhost port,
// drives it over genuine TCP with the closed-loop load generator, then
// replays the IDENTICAL per-worker request streams through a pure
// simulation of the same stack. The two runs share every knob: seed,
// catalog, Zipf popularity, per-worker Pcg32 forks, flight mode. The
// point of the figure is the paper's implicit claim that the simulator
// PREDICTS the socketed system: cache hit rate must agree within a few
// points, and the latency gap is exactly the modeled network (the sim
// charges rtt/xfer; localhost charges microseconds).
//
// Gates (env-overridable):
//   SPEEDKIT_E17_MAX_HIT_GAP   |socket - sim| hit-rate gap, default 0.05
//   zero transport errors / zero 5xx from the socket run
//   single-flight visibly collapsing (joins > 0 under kCoalesce)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/stack.h"
#include "http/url.h"
#include "net/edged_server.h"
#include "net/loadgen.h"
#include "obs/json.h"
#include "proxy/client_pool.h"
#include "proxy/client_proxy.h"
#include "tools/flags.h"
#include "workload/catalog.h"
#include "workload/zipf.h"

namespace {

using speedkit::Duration;
using speedkit::Histogram;
using speedkit::Pcg32;

double EnvBudget(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::atof(raw);
}

struct SimReplay {
  uint64_t requests = 0;
  uint64_t origin_serves = 0;
  uint64_t flight_joins = 0;
  uint64_t origin_requests = 0;
  Histogram latency_us;

  double HitRate() const {
    if (requests == 0) return 0.0;
    return 1.0 -
           static_cast<double>(origin_serves) / static_cast<double>(requests);
  }
};

// Replays the loadgen's exact request streams inside the simulator: same
// catalog, same shared Zipf popularity, same per-worker Pcg32 forks, one
// sim client per worker. Workers interleave round-robin with a fixed
// inter-arrival so concurrent hot keys overlap origin flight windows the
// way the socket run's real concurrency does.
SimReplay ReplayInSim(const speedkit::core::StackConfig& stack_config,
                      const speedkit::net::LoadGenConfig& lg,
                      Duration warmup, Duration inter_arrival) {
  namespace workload = speedkit::workload;
  speedkit::core::SpeedKitStack stack(stack_config);
  workload::Catalog catalog(lg.catalog, stack.ForkRng(0xca7a10a));
  catalog.Populate(&stack.store(), stack.clock().Now());
  if (warmup > Duration::Zero()) stack.Advance(warmup);
  auto pool = stack.MakeClientPool(speedkit::proxy::ClientPoolConfig{});

  size_t hot = lg.hot_products;
  if (hot == 0 || hot > catalog.num_products()) hot = catalog.num_products();
  std::vector<speedkit::http::Url> urls;
  urls.reserve(hot);
  for (size_t rank = 0; rank < hot; ++rank) {
    urls.push_back(*speedkit::http::Url::Parse(catalog.ProductUrl(rank)));
  }
  workload::ZipfGenerator popularity(hot, lg.zipf_s);

  size_t workers = static_cast<size_t>(lg.workers);
  std::vector<Pcg32> rngs;
  std::vector<speedkit::proxy::ClientProxy*> clients;
  rngs.reserve(workers);
  clients.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    rngs.push_back(Pcg32(lg.seed).Fork(0x10ad0000 + w));
    clients.push_back(pool->MakeClient(stack.DefaultProxyConfig(), w));
  }

  SimReplay replay;
  for (uint64_t i = 0; i < lg.requests_per_worker; ++i) {
    for (size_t w = 0; w < workers; ++w) {
      stack.Advance(inter_arrival);
      const speedkit::http::Url& url = urls[popularity.Sample(rngs[w])];
      speedkit::proxy::FetchResult result = clients[w]->Fetch(url);
      replay.requests++;
      if (result.source == speedkit::proxy::ServedFrom::kOrigin) {
        replay.origin_serves++;
      }
      replay.latency_us.Add(result.latency.micros());
    }
  }
  replay.flight_joins = stack.cdn().flight_joins();
  replay.origin_requests = stack.origin().stats().requests;
  return replay;
}

}  // namespace

int main(int argc, char** argv) {
  namespace bench = speedkit::bench;
  namespace net = speedkit::net;
  namespace obs = speedkit::obs;
  speedkit::tools::Flags flags(argc, argv);

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  const uint64_t requests =
      static_cast<uint64_t>(flags.GetInt("requests", 2000));
  const size_t products =
      static_cast<size_t>(flags.GetInt("products", 2000));
  const size_t hot_products =
      static_cast<size_t>(flags.GetInt("hot-products", 500));
  const double zipf_s = flags.GetDouble("zipf", 0.95);
  const std::string json_path =
      bench::JsonPathFromFlag(flags.GetString("json", ""), "socketed");
  flags.RejectUnknown();

  bench::PrintHeader(
      "E17", "socketed edge vs. simulator prediction",
      "the simulator as a predictor: the same stack served over real TCP "
      "sockets shows the same cache hit rate, and the latency gap is the "
      "modeled network");

  // --- socket run: real edged on an ephemeral port, real TCP clients ----
  net::EdgedConfig edged;
  edged.host = "127.0.0.1";
  edged.port = 0;
  edged.stack.seed = seed;
  edged.stack.origin_flight = speedkit::cache::OriginFlightMode::kCoalesce;
  edged.catalog.num_products = products;

  net::EdgedServer server(edged);
  if (!server.Start()) {
    std::fprintf(stderr, "FATAL: could not bind an ephemeral localhost port\n");
    return 1;
  }
  std::thread server_thread([&server] { server.Run(); });

  net::LoadGenConfig lg;
  lg.targets.push_back({edged.node_name, edged.host, server.port()});
  lg.workers = workers;
  lg.requests_per_worker = requests;
  lg.seed = seed;
  lg.zipf_s = zipf_s;
  lg.hot_products = hot_products;
  lg.catalog.num_products = products;

  net::LoadGenReport socket_report = net::RunLoadGen(lg);
  server.Stop();
  server_thread.join();

  const double socket_hit = socket_report.HitRate();
  const double throughput =
      socket_report.wall_seconds > 0
          ? static_cast<double>(socket_report.responses) /
                socket_report.wall_seconds
          : 0.0;
  uint64_t socket_joins = 0;
  uint64_t socket_origin_requests = server.stack().origin().stats().requests;
  socket_joins = server.stack().cdn().flight_joins();

  bench::PrintSection("socket run (localhost TCP)");
  bench::Row("  %-26s %llu", "requests",
             static_cast<unsigned long long>(socket_report.requests));
  bench::Row("  %-26s %llu", "responses",
             static_cast<unsigned long long>(socket_report.responses));
  bench::Row("  %-26s %llu", "transport errors",
             static_cast<unsigned long long>(socket_report.transport_errors));
  bench::Row("  %-26s %llu / %llu", "4xx / 5xx",
             static_cast<unsigned long long>(socket_report.errors_4xx),
             static_cast<unsigned long long>(socket_report.errors_5xx));
  for (const auto& [source, n] : socket_report.sources) {
    bench::Row("  served from %-14s %llu", source.c_str(),
               static_cast<unsigned long long>(n));
  }
  bench::Row("  %-26s %.4f", "hit rate", socket_hit);
  bench::Row("  %-26s %.0f req/s", "throughput", throughput);
  bench::Row("  %-26s %llu", "single-flight joins",
             static_cast<unsigned long long>(socket_joins));
  bench::Row("  %-26s %llu", "origin requests",
             static_cast<unsigned long long>(socket_origin_requests));
  bench::Row("  wall latency us            p50=%lld p90=%lld p99=%lld",
             static_cast<long long>(socket_report.wall_latency_us.P50()),
             static_cast<long long>(socket_report.wall_latency_us.P90()),
             static_cast<long long>(socket_report.wall_latency_us.P99()));
  bench::Row("  modeled latency us         p50=%lld p90=%lld p99=%lld",
             static_cast<long long>(socket_report.predicted_us.P50()),
             static_cast<long long>(socket_report.predicted_us.P90()),
             static_cast<long long>(socket_report.predicted_us.P99()));

  // --- sim replay: identical streams, pure simulation ------------------
  // Inter-arrival matches the socket run's measured per-worker pacing, so
  // flight windows overlap comparably. Floor at 1us.
  int64_t inter_us = 1;
  if (socket_report.responses > 0 && socket_report.wall_seconds > 0) {
    inter_us = static_cast<int64_t>(
        socket_report.wall_seconds * 1e6 * workers /
        static_cast<double>(socket_report.responses));
    if (inter_us < 1) inter_us = 1;
  }
  speedkit::core::StackConfig sim_config = edged.stack;
  SimReplay sim =
      ReplayInSim(sim_config, lg, edged.warmup, Duration::Micros(inter_us));
  const double sim_hit = sim.HitRate();

  bench::PrintSection("sim replay (same streams, pure simulation)");
  bench::Row("  %-26s %llu", "requests",
             static_cast<unsigned long long>(sim.requests));
  bench::Row("  %-26s %.4f", "hit rate", sim_hit);
  bench::Row("  %-26s %llu", "single-flight joins",
             static_cast<unsigned long long>(sim.flight_joins));
  bench::Row("  %-26s %llu", "origin requests",
             static_cast<unsigned long long>(sim.origin_requests));
  bench::Row("  sim latency us             p50=%lld p90=%lld p99=%lld",
             static_cast<long long>(sim.latency_us.P50()),
             static_cast<long long>(sim.latency_us.P90()),
             static_cast<long long>(sim.latency_us.P99()));

  // --- comparison + gates ----------------------------------------------
  const double hit_gap = std::fabs(socket_hit - sim_hit);
  const double max_gap = EnvBudget("SPEEDKIT_E17_MAX_HIT_GAP", 0.05);

  bench::PrintSection("socket vs. sim");
  bench::Row("  %-26s %.4f vs %.4f  (gap %.4f, budget %.4f)", "hit rate",
             socket_hit, sim_hit, hit_gap, max_gap);
  bench::Row("  %-26s %lld vs %lld us", "p50 latency",
             static_cast<long long>(socket_report.wall_latency_us.P50()),
             static_cast<long long>(sim.latency_us.P50()));

  bool ok = true;
  if (socket_report.transport_errors != 0 || socket_report.errors_5xx != 0) {
    std::fprintf(stderr,
                 "FATAL: socket run unhealthy: %llu transport errors, "
                 "%llu 5xx\n",
                 static_cast<unsigned long long>(
                     socket_report.transport_errors),
                 static_cast<unsigned long long>(socket_report.errors_5xx));
    ok = false;
  }
  if (hit_gap > max_gap) {
    std::fprintf(stderr,
                 "FATAL: socket/sim hit-rate gap %.4f exceeds budget %.4f "
                 "(socket %.4f, sim %.4f)\n",
                 hit_gap, max_gap, socket_hit, sim_hit);
    ok = false;
  }
  if (socket_joins == 0) {
    std::fprintf(stderr,
                 "FATAL: no single-flight joins observed under kCoalesce -- "
                 "concurrent origin fetches are not coalescing\n");
    ok = false;
  }

  if (!json_path.empty()) {
    obs::JsonValue root = obs::JsonValue::Object();
    root.Set("bench", "socketed");
    root.Set("seed", static_cast<int64_t>(seed));
    root.Set("workers", static_cast<int64_t>(workers));
    root.Set("requests_per_worker", static_cast<int64_t>(requests));
    root.Set("products", static_cast<int64_t>(products));
    root.Set("hot_products", static_cast<int64_t>(hot_products));
    root.Set("zipf_s", zipf_s);
    obs::JsonValue socket_row = obs::JsonValue::Object();
    socket_row.Set("responses",
                   static_cast<int64_t>(socket_report.responses));
    socket_row.Set("transport_errors",
                   static_cast<int64_t>(socket_report.transport_errors));
    socket_row.Set("errors_5xx",
                   static_cast<int64_t>(socket_report.errors_5xx));
    socket_row.Set("hit_rate", socket_hit);
    socket_row.Set("throughput_rps", throughput);
    socket_row.Set("flight_joins", static_cast<int64_t>(socket_joins));
    socket_row.Set("origin_requests",
                   static_cast<int64_t>(socket_origin_requests));
    socket_row.Set("wall_p50_us",
                   static_cast<int64_t>(socket_report.wall_latency_us.P50()));
    socket_row.Set("wall_p99_us",
                   static_cast<int64_t>(socket_report.wall_latency_us.P99()));
    socket_row.Set("predicted_p50_us",
                   static_cast<int64_t>(socket_report.predicted_us.P50()));
    root.Set("socket", std::move(socket_row));
    obs::JsonValue sim_row = obs::JsonValue::Object();
    sim_row.Set("requests", static_cast<int64_t>(sim.requests));
    sim_row.Set("hit_rate", sim_hit);
    sim_row.Set("flight_joins", static_cast<int64_t>(sim.flight_joins));
    sim_row.Set("origin_requests",
                static_cast<int64_t>(sim.origin_requests));
    sim_row.Set("p50_us", static_cast<int64_t>(sim.latency_us.P50()));
    sim_row.Set("p99_us", static_cast<int64_t>(sim.latency_us.P99()));
    root.Set("sim", std::move(sim_row));
    root.Set("hit_gap", hit_gap);
    root.Set("max_hit_gap", max_gap);
    root.Set("gate", ok ? std::string("ok") : std::string("FAIL"));
    obs::WriteJsonFile(json_path, root);
  }

  bench::Note(
      "expected shape: hit rates agree to within a few points (same code, "
      "same streams, only the substrate differs); wall p50 sits orders of "
      "magnitude under the modeled p50 because localhost replaces the "
      "simulated WAN; joins > 0 shows real concurrency riding the "
      "single-flight window");
  return ok ? 0 : 1;
}
