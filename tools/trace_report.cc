// trace_report: render the trace CSV written by the --trace harness flag
// (obs::WriteTraceCsv) as a human-readable report:
//
//   - per-tier time breakdown: where request time is actually spent, summed
//     over every span of every request trace;
//   - request latency by serving tier (exact percentiles over the traces);
//   - ASCII waterfall of the top-N slowest requests, one bar per span;
//   - purge-propagation summary for purge-kind traces.
//
// It also re-checks the accounting invariant the producer stamped into the
// metadata: one request-kind trace per served request, i.e. the number of
// request traces equals served_total (ProxyStats::ServedTotal()). A
// mismatch exits nonzero so CI can gate on it. When the producer capped the
// sink (trace_dropped > 0) the check is skipped — the file is explicitly
// incomplete — and the report says so.
//
//   trace_report TRACE_faults.csv [--top=5] [--width=56]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "tools/flags.h"

namespace {

struct SpanRow {
  int index = 0;
  int parent = -1;
  std::string name;
  std::string tier;
  int64_t start_us = 0;
  int64_t duration_us = 0;
};

struct TraceRow {
  uint64_t id = 0;
  std::string kind;
  std::string url;
  std::string tier;
  int status = 0;
  bool degraded = false;
  int64_t start_us = 0;
  int64_t latency_us = 0;
  std::vector<SpanRow> spans;
};

// Splits one CSV line, honoring RFC-4180 double-quote escaping.
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

int64_t ToInt(const std::string& s) {
  return s.empty() ? 0 : std::strtoll(s.c_str(), nullptr, 10);
}

// Exact nearest-rank percentile over raw values (traces are few enough to
// keep raw; the histograms are for the in-simulator path).
int64_t Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  rank = std::min(rank, values.size() - 1);
  return values[rank];
}

struct TierAgg {
  uint64_t spans = 0;
  int64_t total_us = 0;
};

void PrintBar(int64_t start, int64_t duration, int64_t scale, int width) {
  int lead = scale > 0 ? static_cast<int>(start * width / scale) : 0;
  int len = scale > 0 ? static_cast<int>(duration * width / scale) : 0;
  if (duration > 0 && len == 0) len = 1;
  lead = std::min(lead, width);
  len = std::min(len, width - lead);
  std::printf("%*s%.*s", lead, "", len,
              "########################################################"
              "########################################################");
}

}  // namespace

int main(int argc, char** argv) {
  speedkit::tools::Flags flags(argc, argv);
  if (flags.positional().empty() || flags.Has("help")) {
    std::fprintf(stderr,
                 "usage: trace_report <trace.csv> [--top=N] [--width=COLS]\n"
                 "renders the CSV written by a bench binary's --trace flag\n");
    return 2;
  }
  const std::string path = flags.positional()[0];
  const int top_n = static_cast<int>(flags.GetInt("top", 5));
  const int width = std::clamp<int>(
      static_cast<int>(flags.GetInt("width", 56)), 16, 112);
  flags.RejectUnknown();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot read %s\n", path.c_str());
    return 2;
  }

  std::map<std::string, std::string> meta;
  std::vector<TraceRow> traces;
  std::map<uint64_t, size_t> trace_index;
  std::string line;
  bool seen_header = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::string body = line.substr(line.find_first_not_of("# "));
      size_t eq = body.find('=');
      if (eq != std::string::npos) {
        meta[body.substr(0, eq)] = body.substr(eq + 1);
      }
      continue;
    }
    if (!seen_header) {  // the column-name row
      seen_header = true;
      continue;
    }
    std::vector<std::string> f = SplitCsv(line);
    if (f.size() < 12) continue;
    if (f[0] == "trace") {
      TraceRow t;
      t.id = static_cast<uint64_t>(ToInt(f[1]));
      t.kind = f[2];
      t.tier = f[6];
      t.start_us = ToInt(f[7]);
      t.latency_us = ToInt(f[8]);
      t.url = f[9];
      t.status = static_cast<int>(ToInt(f[10]));
      t.degraded = ToInt(f[11]) != 0;
      trace_index[t.id] = traces.size();
      traces.push_back(std::move(t));
    } else if (f[0] == "span") {
      auto it = trace_index.find(static_cast<uint64_t>(ToInt(f[1])));
      if (it == trace_index.end()) continue;
      SpanRow s;
      s.index = static_cast<int>(ToInt(f[3]));
      s.parent = static_cast<int>(ToInt(f[4]));
      s.name = f[5];
      s.tier = f[6];
      s.start_us = ToInt(f[7]);
      s.duration_us = ToInt(f[8]);
      traces[it->second].spans.push_back(std::move(s));
    }
  }

  std::vector<const TraceRow*> requests;
  std::vector<const TraceRow*> purges;
  for (const TraceRow& t : traces) {
    (t.kind == "purge" ? purges : requests).push_back(&t);
  }

  std::printf("trace report: %s\n", path.c_str());
  for (const auto& [k, v] : meta) {
    std::printf("  %s = %s\n", k.c_str(), v.c_str());
  }
  std::printf("  traces: %zu request, %zu purge\n\n", requests.size(),
              purges.size());

  // Where request time goes, attributed span by span.
  std::map<std::string, TierAgg> by_tier;
  int64_t total_span_us = 0;
  for (const TraceRow* t : requests) {
    for (const SpanRow& s : t->spans) {
      TierAgg& agg = by_tier[s.tier];
      agg.spans++;
      agg.total_us += s.duration_us;
      total_span_us += s.duration_us;
    }
  }
  std::printf("per-tier time breakdown (request traces):\n");
  std::printf("  %-10s %10s %14s %8s\n", "tier", "spans", "total_ms",
              "share");
  for (const auto& [tier, agg] : by_tier) {
    std::printf("  %-10s %10llu %14.1f %7.1f%%\n", tier.c_str(),
                static_cast<unsigned long long>(agg.spans),
                agg.total_us / 1e3,
                total_span_us > 0 ? 100.0 * agg.total_us / total_span_us : 0);
  }

  // End-to-end latency by serving tier.
  std::map<std::string, std::vector<int64_t>> latency_by_tier;
  for (const TraceRow* t : requests) {
    latency_by_tier[t->tier].push_back(t->latency_us);
  }
  std::printf("\nrequest latency by serving tier (ms):\n");
  std::printf("  %-10s %10s %10s %10s %10s\n", "tier", "requests", "p50",
              "p95", "max");
  for (const auto& [tier, values] : latency_by_tier) {
    std::printf("  %-10s %10zu %10.1f %10.1f %10.1f\n", tier.c_str(),
                values.size(), Percentile(values, 0.50) / 1e3,
                Percentile(values, 0.95) / 1e3,
                *std::max_element(values.begin(), values.end()) / 1e3);
  }

  // Waterfall of the slowest requests.
  std::vector<const TraceRow*> slowest = requests;
  std::stable_sort(slowest.begin(), slowest.end(),
                   [](const TraceRow* a, const TraceRow* b) {
                     return a->latency_us > b->latency_us;
                   });
  if (static_cast<int>(slowest.size()) > top_n) slowest.resize(top_n);
  std::printf("\ntop %zu slowest requests:\n", slowest.size());
  for (const TraceRow* t : slowest) {
    std::printf("\n  #%llu %s -> %s (status %d%s) %.1fms\n",
                static_cast<unsigned long long>(t->id), t->url.c_str(),
                t->tier.c_str(), t->status, t->degraded ? ", degraded" : "",
                t->latency_us / 1e3);
    for (const SpanRow& s : t->spans) {
      std::printf("    %-22s %-8s %8.1fms |", s.name.c_str(), s.tier.c_str(),
                  s.duration_us / 1e3);
      PrintBar(s.start_us, s.duration_us, t->latency_us, width);
      std::printf("\n");
    }
  }

  if (!purges.empty()) {
    std::vector<int64_t> prop;
    uint64_t degraded = 0;
    for (const TraceRow* t : purges) {
      prop.push_back(t->latency_us);
      if (t->degraded) degraded++;
    }
    std::printf("\npurge propagation: %zu purges, %llu faulted, "
                "p50=%.1fms p95=%.1fms max=%.1fms\n",
                purges.size(), static_cast<unsigned long long>(degraded),
                Percentile(prop, 0.50) / 1e3, Percentile(prop, 0.95) / 1e3,
                *std::max_element(prop.begin(), prop.end()) / 1e3);
  }

  // The accounting invariant: one request trace per served request.
  auto served_it = meta.find("served_total");
  uint64_t dropped = 0;
  if (auto it = meta.find("trace_dropped"); it != meta.end()) {
    dropped = static_cast<uint64_t>(ToInt(it->second));
  }
  if (served_it != meta.end()) {
    uint64_t served = static_cast<uint64_t>(ToInt(served_it->second));
    if (dropped > 0) {
      std::printf("\ncheck skipped: sink dropped %llu traces (capped "
                  "capture), span accounting is knowingly partial\n",
                  static_cast<unsigned long long>(dropped));
    } else if (requests.size() == served) {
      std::printf("\ncheck ok: %zu request traces == served_total %llu\n",
                  requests.size(), static_cast<unsigned long long>(served));
    } else {
      std::fprintf(stderr,
                   "\ncheck FAILED: %zu request traces != served_total %llu "
                   "— a request path is missing its trace\n",
                   requests.size(), static_cast<unsigned long long>(served));
      return 1;
    }
  }
  return 0;
}
