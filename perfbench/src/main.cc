// perfbench: runs one named workload and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The line before it,
// "perfbench-detail {...}", carries the run's exact modelled results and
// counts for the benchmark's self-tests.
//
//   perfbench --workload sim_browse --seed 1 --seconds 10 --trace 0
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"

namespace perfbench {
namespace {

// Every workload reports every metric of each list (BENCHMARK.json names
// the same ones); a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"req_per_s", "req/s"},      {"req_p50_us", "us"},
    {"req_p99_us", "us"},      {"bytes_per_client", "B"},   {"model_api_p50_ms", "ms"},
    {"origin_per_kreq", "1/kreq"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"proxy.fetch_ns.browser", "ns"},
    {"proxy.fetch_ns.edge", "ns"},
    {"proxy.fetch_ns.origin", "ns"},
    {"proxy.fetch_ns.revalidated", "ns"},
    {"proxy.fetches.browser", "count"},
    {"proxy.fetches.edge", "count"},
    {"proxy.fetches.origin", "count"},
    {"proxy.fetches.revalidated", "count"},
    {"proxy.sketch_bypasses", "count"},
    {"proxy.sketch_refreshes", "count"},
    {"origin.requests", "count"},
    {"origin.not_modified", "count"},
    {"origin.query_requests", "count"},
    {"origin.render_cache_hits", "count"},
    {"cache.edge_hits", "count"},
    {"cache.edge_misses", "count"},
    {"cache.edge_purges", "count"},
    {"proxy.spill_freezes", "count"},
    {"proxy.spill_thaws", "count"},
    {"proxy.frozen_bytes", "B"},
    {"storage.update_ns", "ns"},
    {"invalidation.keys_invalidated", "count"},
    {"invalidation.purges_scheduled", "count"},
    {"sketch.entries", "count"},
    {"sketch.snapshot_bytes", "B"},
    {"sim.event_self_ns", "ns"},
    {"sim.events_fired", "count"},
    {"core.shard_traffic_s_max", "s"},
    {"core.shard_traffic_s_min", "s"},
    {"setup.populate_s", "s"},
    {"setup.queries_s", "s"},
    {"setup.fleet_s", "s"},
    {"net.handle_us_p50", "us"},
    {"net.handle_us_p99", "us"},
    {"net.outside_handle_us_p50", "us"},
    {"net.parse_request_ns", "ns"},
    {"net.serialize_response_ns", "ns"},
    {"net.bytes_out_per_response", "B"},
    {"net.origin_requests", "count"},
    {"net.flight_joins", "count"},
    {"client.lateness_us_p99", "us"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sim_browse|sim_write_storm|socket_edge\n"
               "         --seed N --seconds S --trace 0|1\n"
               "         [--threads T] [--scale F] [--coherence MODE]\n"
               "         [--drop-listing-member] [--max-rounds N]\n"
               "         [--edged PATH] [--out DIR]\n",
               why);
  return 2;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ProcessStart();
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--drop-listing-member") {
      options.drop_listing_member = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--threads") {
      options.threads = std::atoi(value.c_str());
    } else if (flag == "--scale") {
      options.scale = std::strtod(value.c_str(), nullptr);
      if (!(options.scale > 0 && options.scale <= 1)) return Usage("--scale must be in (0, 1]");
    } else if (flag == "--coherence") {
      options.coherence = value;
    } else if (flag == "--max-rounds") {
      options.max_rounds = std::atoi(value.c_str());
    } else if (flag == "--edged") {
      options.edged_path = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  RunReport report;
  if (options.workload == "sim_browse" || options.workload == "sim_write_storm") {
    report = RunSimWorkload(options);
  } else if (options.workload == "socket_edge") {
    if (options.edged_path.empty()) return Usage("socket_edge needs --edged");
    report = RunSocketWorkload(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (report.attempted == 0) {
    for (const std::string& p : report.problems) {
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    }
    std::fprintf(stderr, "perfbench: %s attempted nothing\n", options.workload.c_str());
    return 1;
  }

  const auto& reported = options.trace ? report.per_layer : report.end_to_end;
  const auto& wanted = options.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    double value = 0;
    bool found = false;
    for (const Metric& m : reported) {
      if (m.name == name) {
        value = m.value;
        found = true;
      }
    }
    if (!found && !options.trace) report.Fail("end-to-end metric " + name + " missing");
    if (!std::isfinite(value)) {
      report.Fail("metric " + name + " is not finite");
      value = 0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(name).append("\": {\"value\": ").append(Number(value));
    metrics.append(", \"unit\": \"").append(unit).append("\"}");
  }

  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::string detail;
  for (const auto& [name, value] : report.detail) {
    if (!detail.empty()) detail += ", ";
    detail.append("\"").append(name).append("\": ").append(Number(value));
  }
  std::printf("perfbench-detail {%s}\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
