// Exporters: MetricsRegistry and trace collections -> the same ordered
// JSON used by every bench binary (obs/json.h), plus a flat CSV
// trace format that tools/trace_report consumes.
//
// Trace CSV layout (one file per run):
//   - `# key=value` metadata header lines (run name, seed, served_total —
//     whatever the producer wants downstream checks to see);
//   - one `kind` row per trace carrying url/tier/status/degraded and the
//     end-to-end latency, followed by one `span` row per span with offsets
//     relative to the trace start. Fields with commas/quotes/newlines are
//     RFC-4180 quoted.
#ifndef SPEEDKIT_OBS_EXPORT_H_
#define SPEEDKIT_OBS_EXPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace speedkit::obs {

using MetaList = std::vector<std::pair<std::string, std::string>>;

// One JSON object per metric, in registration order. Counters/gauges carry
// `value`; histograms carry {count, min, max, mean, p50, p95, p99}.
JsonValue MetricsToJson(const MetricsRegistry& registry);

// Full trace tree as JSON (id/kind/url/tier/status/degraded/latency/spans).
JsonValue TracesToJson(const std::vector<RequestTrace>& traces);

// Writes `{meta..., metrics: [...]}` to `path`. Returns false on IO error.
bool WriteMetricsJson(const std::string& path, const MetricsRegistry& registry,
                      const MetaList& meta = {});

// name,labels,kind,count,value,mean,p50,p95,p99,max — one row per metric.
bool WriteMetricsCsv(const std::string& path, const MetricsRegistry& registry);

// The trace CSV described above.
bool WriteTraceCsv(const std::string& path,
                   const std::vector<RequestTrace>& traces,
                   const MetaList& meta = {});

}  // namespace speedkit::obs

#endif  // SPEEDKIT_OBS_EXPORT_H_
