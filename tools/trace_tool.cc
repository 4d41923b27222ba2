// trace_tool: generate, inspect and replay workload traces.
//
//   trace_tool generate --out=day.trace --clients=20 --minutes=30 \
//                       --writes-per-sec=2 --products=5000 --seed=7
//   trace_tool info day.trace
//   trace_tool replay day.trace --variant=speed_kit
//
// Replaying one trace against several variants compares them on an
// identical request/write sequence.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <set>
#include <string>

#include "core/replay.h"
#include "tools/flags.h"

using namespace speedkit;

namespace {

int Usage() {
  std::printf(
      "usage:\n"
      "  trace_tool generate --out=FILE [--clients=N] [--minutes=M]\n"
      "                      [--writes-per-sec=W] [--products=P] [--seed=S]\n"
      "  trace_tool info FILE\n"
      "  trace_tool replay FILE [--variant=V] [--products=P] [--seed=S]\n");
  return 2;
}

Result<workload::Trace> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open trace file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return workload::Trace::Deserialize(buffer.str());
}

workload::Catalog MakeCatalog(size_t products, uint64_t seed) {
  workload::CatalogConfig config;
  config.num_products = products;
  return workload::Catalog(config, Pcg32(seed + 1));
}

size_t ProductsFlag(const tools::Flags& flags) {
  return static_cast<size_t>(flags.GetInt("products", 5000));
}

uint64_t SeedFlag(const tools::Flags& flags) {
  return static_cast<uint64_t>(flags.GetInt("seed", 7));
}

int Generate(const tools::Flags& flags) {
  std::string out = flags.GetString("out", "");
  const size_t products = ProductsFlag(flags);
  const uint64_t seed = SeedFlag(flags);
  const size_t clients = static_cast<size_t>(flags.GetInt("clients", 20));
  const Duration duration = Duration::Minutes(flags.GetDouble("minutes", 30));
  const double writes_per_sec = flags.GetDouble("writes-per-sec", 2.0);
  flags.RejectUnknown();
  if (out.empty()) return Usage();
  workload::Catalog catalog = MakeCatalog(products, seed);
  workload::Trace trace = core::SynthesizeTrace(catalog, clients, duration,
                                                writes_per_sec, seed);
  std::ofstream file(out);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  file << trace.Serialize();
  std::printf("wrote %zu events to %s\n", trace.size(), out.c_str());
  return 0;
}

int Info(const tools::Flags& flags) {
  flags.RejectUnknown();
  if (flags.positional().size() < 2) return Usage();
  auto trace = LoadTrace(flags.positional()[1]);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  size_t fetches = 0;
  size_t writes = 0;
  std::set<uint64_t> clients;
  std::set<std::string> urls;
  SimTime first = SimTime::Max();
  SimTime last;
  for (const auto& ev : trace->events()) {
    if (ev.at < first) first = ev.at;
    if (ev.at > last) last = ev.at;
    if (ev.kind == workload::TraceEvent::Kind::kFetch) {
      ++fetches;
      clients.insert(ev.client_id);
      urls.insert(ev.url);
    } else {
      ++writes;
    }
  }
  std::printf("events:   %zu (%zu fetches, %zu writes)\n", trace->size(),
              fetches, writes);
  std::printf("clients:  %zu\n", clients.size());
  std::printf("urls:     %zu distinct\n", urls.size());
  std::printf("span:     %.1fs .. %.1fs (%.1f min)\n", first.seconds(),
              last.seconds(), (last - first).seconds() / 60);
  return 0;
}

int Replay(const tools::Flags& flags) {
  std::string variant = flags.GetString("variant", "speed_kit");
  const size_t products = ProductsFlag(flags);
  const uint64_t seed = SeedFlag(flags);
  flags.RejectUnknown();
  if (flags.positional().size() < 2) return Usage();
  auto trace = LoadTrace(flags.positional()[1]);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  core::StackConfig config;
  if (variant == "fixed_ttl_cdn") {
    config.variant = core::SystemVariant::kFixedTtlCdn;
  } else if (variant == "no_caching") {
    config.variant = core::SystemVariant::kNoCaching;
  } else if (variant == "pure_invalidation") {
    config.variant = core::SystemVariant::kPureInvalidation;
  }
  config.seed = seed;
  core::SpeedKitStack stack(config);
  workload::Catalog catalog = MakeCatalog(products, seed);
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    (void)stack.origin().RegisterQuery(catalog.CategoryQuery(c));
    if (stack.pipeline() != nullptr) {
      (void)stack.pipeline()->WatchQuery(catalog.CategoryQuery(c),
                                         catalog.CategoryUrl(c));
    }
  }
  stack.Advance(Duration::Seconds(5));

  core::TraceReplayer replayer(&stack);
  core::ReplayResult result = replayer.Replay(*trace);
  double n = static_cast<double>(std::max<uint64_t>(1, result.fetches));
  std::printf("variant:        %s\n",
              std::string(core::SystemVariantName(config.variant)).c_str());
  std::printf("fetches/writes: %llu / %llu (%llu errors)\n",
              static_cast<unsigned long long>(result.fetches),
              static_cast<unsigned long long>(result.writes),
              static_cast<unsigned long long>(result.errors));
  std::printf("latency:        p50=%.1fms p90=%.1fms p99=%.1fms\n",
              result.latency_us.P50() / 1e3, result.latency_us.P90() / 1e3,
              result.latency_us.P99() / 1e3);
  std::printf("served by:      browser %.1f%%, edge %.1f%%, origin %.1f%%\n",
              100 * result.proxies.browser_hits / n,
              100 * result.proxies.edge_hits / n,
              100 * result.proxies.origin_fetches / n);
  std::printf("staleness:      %llu stale reads, max %.2fs\n",
              static_cast<unsigned long long>(
                  stack.staleness().report().stale_reads),
              stack.staleness().report().max_staleness.seconds());
  std::printf("fingerprint:    %016llx\n",
              static_cast<unsigned long long>(result.Fingerprint()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  if (command == "generate") return Generate(flags);
  if (command == "info") return Info(flags);
  if (command == "replay") return Replay(flags);
  return Usage();
}
