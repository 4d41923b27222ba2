// SpeedKitStack::CollectMetrics — snapshots every component's stats struct
// into the observability registry under the canonical names from
// obs/metric_names.h. Lives in its own file because it is the one place
// that must know every stats struct in the system; stack.cc stays wiring.
//
// Snapshot semantics: counters and gauges are assigned (idempotent),
// histograms are merged — call once, at the end of a run. The network RTT
// histograms are the exception: they are live (wired in the constructor)
// and never touched here.
#include "core/stack.h"

#include "obs/metric_names.h"

namespace speedkit::core {

namespace {

void SnapshotProxy(obs::MetricsRegistry* reg, const proxy::ProxyStats& s) {
  auto set = [reg](std::string_view name, std::string_view labels,
                   uint64_t value) { *reg->Counter(name, labels) = value; };
  set(obs::kProxyRequests, "", s.requests);
  set(obs::kProxyServes, "tier=browser", s.browser_hits);
  set(obs::kProxyServes, "tier=swr", s.swr_serves);
  set(obs::kProxyServes, "tier=edge", s.edge_hits);
  set(obs::kProxyServes, "tier=origin", s.origin_fetches);
  set(obs::kProxyServes, "tier=offline", s.offline_serves);
  set(obs::kProxyServes, "tier=error", s.errors);
  set(obs::kProxyRevalidations, "result=304", s.revalidations_304);
  set(obs::kProxyRevalidations, "result=200", s.revalidations_200);
  set(obs::kProxySketchBypasses, "", s.sketch_bypasses);
  set(obs::kProxySketchRefreshes, "", s.sketch_refreshes);
  set(obs::kProxySketchBytes, "", s.sketch_bytes);
  set(obs::kProxyBytes, "source=browser_cache", s.bytes_from_browser_cache);
  set(obs::kProxyBytes, "source=network", s.bytes_over_network);
  set(obs::kProxyTimeouts, "", s.timeouts);
  set(obs::kProxyRetries, "", s.retries);
  set(obs::kProxyFallbackServes, "", s.fallback_serves);
  set(obs::kProxyBackgroundRevalidations, "", s.background_revalidations);
  set(obs::kProxyBackgroundResponses, "result=304", s.background_304s);
  set(obs::kProxyBackgroundResponses, "result=200", s.background_200s);
  set(obs::kProxyBackgroundResponses, "result=error", s.background_errors);
  set(obs::kProxyBackgroundBytes, "", s.background_bytes);

  // Client-observed latency: one series per serving tier (SWR serves land
  // under tier=browser, matching ProxyStats::LatencyFor) and one per fault
  // state. Each request is in exactly one tier series and one fault series.
  auto merge = [reg](std::string_view labels, const Histogram& h) {
    reg->Histo(obs::kRequestLatencyUs, labels)->Merge(h);
  };
  merge("tier=browser", s.latency_browser_us);
  merge("tier=edge", s.latency_edge_us);
  merge("tier=origin", s.latency_origin_us);
  merge("tier=offline", s.latency_offline_us);
  merge("tier=error", s.latency_error_us);
  merge("fault=ok", s.latency_ok_us);
  merge("fault=degraded", s.latency_degraded_us);
}

void SnapshotCache(obs::MetricsRegistry* reg, std::string_view cache_label,
                   const cache::HttpCacheStats& s) {
  std::string prefix(cache_label);
  auto set = [reg, &prefix](std::string_view name, std::string_view suffix,
                            uint64_t value) {
    std::string labels = suffix.empty() ? prefix : prefix + "," +
                                                       std::string(suffix);
    *reg->Counter(name, labels) = value;
  };
  set(obs::kCacheLookups, "result=fresh_hit", s.fresh_hits);
  set(obs::kCacheLookups, "result=stale_hit", s.stale_hits);
  set(obs::kCacheLookups, "result=miss", s.misses);
  set(obs::kCacheStores, "", s.stores);
  set(obs::kCacheStoreRejects, "", s.store_rejects);
  set(obs::kCacheRefreshes, "", s.refreshes);
  set(obs::kCachePurges, "", s.purges);
}

}  // namespace

void SpeedKitStack::CollectMetrics(const proxy::ProxyStats* merged_proxies) {
  if (metrics_ == nullptr) return;
  obs::MetricsRegistry* reg = metrics_.get();

  if (merged_proxies != nullptr) SnapshotProxy(reg, *merged_proxies);

  // CDN edges, aggregated across all edges of this stack. (Browser caches
  // live inside the clients the stack does not own; their effect shows up
  // in proxy.serves{tier=browser} and proxy.bytes{source=browser_cache}.)
  SnapshotCache(reg, "cache=edge", cdn_->TotalStats());
  const cache::EdgeFaultStats edge_faults = cdn_->TotalFaultStats();
  *reg->Counter(obs::kEdgeDownRejects) = edge_faults.down_rejects;
  *reg->Counter(obs::kEdgePurgesDropped) = edge_faults.purges_dropped;
  *reg->Counter(obs::kEdgePurgesDelayed) = edge_faults.purges_delayed;
  reg->Histo(obs::kEdgePurgeDelayUs)->Merge(edge_faults.purge_delay_us);

  if (pipeline_ != nullptr) {
    const invalidation::PipelineStats& p = pipeline_->stats();
    *reg->Counter(obs::kPipelineWritesSeen) = p.writes_seen;
    *reg->Counter(obs::kPipelineKeysInvalidated) = p.keys_invalidated;
    *reg->Counter(obs::kPipelinePurges, "result=scheduled") =
        p.purges_scheduled;
    *reg->Counter(obs::kPipelinePurges, "result=effective") =
        p.purges_effective;
    *reg->Counter(obs::kPipelinePurges, "result=dropped") = p.purges_dropped;
    *reg->Counter(obs::kPipelinePurges, "result=delayed") = p.purges_delayed;
    reg->Histo(obs::kPipelinePropagationLatencyUs)
        ->Merge(pipeline_->propagation_latency_us());
  }

  const origin::OriginStats& o = origin_->stats();
  *reg->Counter(obs::kOriginRequests) = o.requests;
  *reg->Counter(obs::kOriginRequests, "route=record") = o.record_requests;
  *reg->Counter(obs::kOriginRequests, "route=query") = o.query_requests;
  *reg->Counter(obs::kOriginRequests, "route=fragment") = o.fragment_requests;
  *reg->Counter(obs::kOriginRequests, "route=asset") = o.asset_requests;
  *reg->Counter(obs::kOriginRequests, "route=sketch") = o.sketch_requests;
  *reg->Counter(obs::kOriginNotModified) = o.not_modified;
  *reg->Counter(obs::kOriginRejectedUnavailable) = o.rejected_unavailable;
  *reg->Counter(obs::kOriginRenderCache, "result=hit") = o.render_cache_hits;
  *reg->Counter(obs::kOriginRenderCache, "result=miss") =
      o.render_cache_misses;
  *reg->Counter(obs::kOriginRenderTimeUs) =
      static_cast<uint64_t>(o.render_time_us);
  *reg->Counter(obs::kOriginRenderTimeSavedUs) =
      static_cast<uint64_t>(o.render_time_saved_us);

  const coherence::StalenessReport& sr = protocol_->staleness().report();
  *reg->Counter(obs::kStalenessReads) = sr.reads;
  *reg->Counter(obs::kStalenessStaleReads) = sr.stale_reads;
  *reg->Counter(obs::kStalenessClamped) = sr.clamped;
  *reg->Counter(obs::kStalenessDeltaViolations) = sr.delta_violations;
  *reg->Counter(obs::kStalenessExcusedStaleReads) = sr.excused_stale_reads;
  *reg->Gauge(obs::kStalenessMaxUs) = sr.max_staleness.micros();
  reg->Histo(obs::kStalenessUs)->Merge(protocol_->staleness().staleness_us());

  if (sketch::CacheSketch* sk = protocol_->sketch(); sk != nullptr) {
    *reg->Gauge(obs::kSketchEntries) = static_cast<int64_t>(sk->entries());
    *reg->Gauge(obs::kSketchSnapshotBytes) =
        static_cast<int64_t>(sk->SerializedSnapshot(clock_.Now()).size());
  }

  if (trace_sink_ != nullptr) {
    *reg->Counter(obs::kTraceEmitted) = trace_sink_->emitted();
    *reg->Counter(obs::kTraceDropped) = trace_sink_->dropped();
  }
}

}  // namespace speedkit::core
