// E18 — Coherence modes head-to-head on the multi-key cart workload:
// Δ-atomic (Cache Sketch), serializable (version-validated read-only
// transactions) and fixed-TTL, all behind the same SpeedKit stack via
// --coherence / StackConfig::coherence.
//
// Each mode runs identical checkout traffic (K distinct product reads per
// transaction at one instant, Poisson writes underneath) and every
// committed transaction is audited against the version authority: did the
// reads observe a consistent snapshot? The table reports anomaly, abort
// and retry rates plus per-tier latency — the price each protocol pays
// for its guarantee.
//
// Self-gating (CI): exits 1 unless Δ-atomic and serializable commit with
// ZERO anomalies while fixed-TTL shows a nonzero anomaly baseline (if the
// baseline were zero the workload wouldn't be probing coherence at all).
#include <cstdint>
#include <string>

#include "bench/bench_util.h"
#include "core/cart_traffic.h"
#include "obs/json.h"
#include "tools/flags.h"
#include "workload/catalog.h"

namespace speedkit {
namespace {

struct E18Params {
  size_t clients = 20;
  Duration duration = Duration::Minutes(10);
  size_t keys_per_txn = 4;
  double writes_per_sec = 4.0;
};

struct ModeOutcome {
  core::CartTrafficResult cart;
  coherence::StalenessReport staleness;
};

ModeOutcome RunMode(coherence::CoherenceMode mode, const E18Params& params) {
  core::StackConfig config;
  config.variant = core::SystemVariant::kSpeedKit;
  config.coherence.mode = mode;
  config.coherence.delta = Duration::Seconds(10);
  core::SpeedKitStack stack(config);

  workload::CatalogConfig catalog_config;
  catalog_config.num_products = 2000;
  catalog_config.num_categories = 20;
  workload::Catalog catalog(catalog_config, Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  // Settle population writes out of the sketch before checkouts start.
  stack.Advance(Duration::Seconds(5));

  core::CartTrafficConfig traffic;
  traffic.num_clients = params.clients;
  traffic.duration = params.duration;
  traffic.keys_per_txn = params.keys_per_txn;
  traffic.writes_per_sec = params.writes_per_sec;

  ModeOutcome out;
  core::CartTrafficSimulation sim(&stack, &catalog, traffic);
  out.cart = sim.Run();
  out.staleness = stack.staleness().report();
  return out;
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  tools::Flags flags(argc, argv);
  E18Params params;
  params.clients = static_cast<size_t>(flags.GetInt("clients", 20));
  params.duration = Duration::Minutes(flags.GetInt("duration", 10));
  params.keys_per_txn = static_cast<size_t>(flags.GetInt("keys", 4));
  params.writes_per_sec = flags.GetDouble("writes-per-sec", 4.0);
  std::string json_path =
      bench::JsonPathFromFlag(flags.GetString("json", ""), "coherence");
  flags.RejectUnknown();

  bench::PrintHeader(
      "E18", "Pluggable coherence modes on the cart workload",
      "anomaly/abort/latency trade-off of delta_atomic vs serializable vs "
      "fixed_ttl behind one CoherenceProtocol interface");

  const coherence::CoherenceMode modes[] = {
      coherence::CoherenceMode::kDeltaAtomic,
      coherence::CoherenceMode::kSerializable,
      coherence::CoherenceMode::kFixedTtl,
  };

  bench::PrintSection("per-mode transaction outcomes");
  bench::Row("%14s %8s %8s %8s %9s %9s %10s %10s", "mode", "txns", "commit",
             "abort", "retries", "anomaly", "stale_rd", "p50_txn_ms");
  obs::JsonValue rows = obs::JsonValue::Array();
  ModeOutcome outcomes[3];
  for (int m = 0; m < 3; ++m) {
    outcomes[m] = RunMode(modes[m], params);
    const core::CartTrafficResult& c = outcomes[m].cart;
    const coherence::StalenessReport& s = outcomes[m].staleness;
    double retries_per_txn =
        c.txns_attempted == 0
            ? 0.0
            : static_cast<double>(c.txn_retries) /
                  static_cast<double>(c.txns_attempted);
    bench::Row("%14s %8llu %8llu %7.1f%% %9.3f %8.2f%% %9.2f%% %10.1f",
               std::string(CoherenceModeName(modes[m])).c_str(),
               static_cast<unsigned long long>(c.txns_attempted),
               static_cast<unsigned long long>(c.txns_committed),
               100.0 * c.AbortRate(), retries_per_txn,
               100.0 * c.AnomalyRate(), 100.0 * s.StaleFraction(),
               c.txn_latency_us.P50() / 1e3);
    const proxy::ProxyStats& p = c.proxies;
    rows.Push(obs::JsonRow(
        {{"section", "modes"},
         {"mode", std::string(CoherenceModeName(modes[m]))},
         {"txns_attempted", c.txns_attempted},
         {"txns_committed", c.txns_committed},
         {"txns_aborted", c.txns_aborted},
         {"txn_retries", c.txn_retries},
         {"anomalies", c.anomalies},
         {"anomaly_rate", c.AnomalyRate()},
         {"abort_rate", c.AbortRate()},
         {"stale_read_fraction", s.StaleFraction()},
         {"txn_validations", p.txn_validations},
         {"txn_validation_bytes", p.txn_validation_bytes},
         {"sketch_refreshes", p.sketch_refreshes},
         {"sketch_bytes", p.sketch_bytes},
         {"p50_txn_ms", c.txn_latency_us.P50() / 1e3},
         {"p99_txn_ms", c.txn_latency_us.P99() / 1e3},
         {"p50_browser_ms", p.latency_browser_us.P50() / 1e3},
         {"p50_edge_ms", p.latency_edge_us.P50() / 1e3},
         {"p50_origin_ms", p.latency_origin_us.P50() / 1e3},
         {"writes_applied", c.writes_applied}}));
  }
  bench::Note(
      "delta_atomic buys zero anomalies with sketch refresh bytes; "
      "serializable buys them with a validation RTT and occasional "
      "retries/aborts; fixed_ttl pays nothing and reads anomalies");

  if (!json_path.empty()) {
    obs::JsonValue root = obs::JsonValue::Object();
    root.Set("bench", "coherence");
    root.Set("rows", std::move(rows));
    obs::WriteJsonFile(json_path, root);
  }

  // The gate: both coherent modes must commit anomaly-free, and the
  // fixed-TTL baseline must actually exhibit anomalies (otherwise the
  // workload is too gentle to certify anything).
  const core::CartTrafficResult& delta = outcomes[0].cart;
  const core::CartTrafficResult& serializable = outcomes[1].cart;
  const core::CartTrafficResult& fixed = outcomes[2].cart;
  bool ok = true;
  if (delta.anomalies != 0) {
    std::fprintf(stderr, "E18 gate: delta_atomic committed %llu anomalies\n",
                 static_cast<unsigned long long>(delta.anomalies));
    ok = false;
  }
  if (serializable.anomalies != 0) {
    std::fprintf(stderr, "E18 gate: serializable committed %llu anomalies\n",
                 static_cast<unsigned long long>(serializable.anomalies));
    ok = false;
  }
  if (fixed.anomalies == 0) {
    std::fprintf(stderr,
                 "E18 gate: fixed_ttl showed no anomalies — workload no "
                 "longer probes coherence\n");
    ok = false;
  }
  if (delta.txns_committed == 0 || serializable.txns_committed == 0) {
    std::fprintf(stderr, "E18 gate: a coherent mode committed nothing\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("\nE18 gate OK: 0 anomalies (delta_atomic, serializable), "
              "%llu anomalies (fixed_ttl baseline)\n",
              static_cast<unsigned long long>(fixed.anomalies));
  return 0;
}
