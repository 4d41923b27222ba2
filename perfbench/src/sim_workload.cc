// The simulated workloads, sim_browse and sim_write_storm.
//
// Both generate their request and write streams from --seed before any
// timing starts, build a ShardedFleet, and replay the streams on each
// shard's event queue: ClientProxy::Fetch for reads, ObjectStore::Update
// for writes. A run repeats whole rounds (fresh fleet, same streams) until
// --seconds have passed; host-time metrics take each request's and each
// step's fastest round, and the modelled metrics and counts are identical
// in every round.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fleet.h"
#include "core/stack.h"
#include "invalidation/pipeline.h"
#include "oracles.h"

namespace perfbench {

namespace sk = speedkit;

namespace {

// What a workload is made of. Every field is fixed per workload; --scale
// shrinks clients and simulated time for the self-tests.
struct SimSpec {
  size_t products = 10000;
  int categories = 50;
  size_t clients = 0;
  int shards = 1;
  int threads = 1;
  double sim_seconds = 600;
  double writes_per_sec = 2;
  double product_skew = 0.9;  // Zipf exponent of product views
  double write_skew = 0.8;    // Zipf exponent of written products
  double share_product = 0.6; // of page views; listings next, home the rest
  double share_listing = 0.3;
  double think_mean_s = 10;
  double pages_mean = 5;
  double session_gap_mean_s = 120;
  double step_seconds = 1;  // simulated time per timed AdvanceTo step
  // > 0: every client makes exactly this many page views at uniform random
  // times instead of browsing in sessions, so that every seed sends the
  // same number of requests.
  int views_per_client = 0;
  bool top_k_listings = false;
  sk::proxy::SpillMode spill = sk::proxy::SpillMode::kAuto;
};

SimSpec BrowseSpec() {
  SimSpec s;
  s.products = 5000;
  s.categories = 100;
  s.clients = 4608;  // > 4096: pooled fleets with idle-cache spill
  s.shards = 4;
  s.threads = 4;
  s.sim_seconds = 300;
  s.writes_per_sec = 2;
  s.spill = sk::proxy::SpillMode::kOn;  // per-shard pools stay under 4096
  return s;
}

SimSpec WriteStormSpec() {
  SimSpec s;
  s.clients = 400;
  s.views_per_client = 2;
  s.categories = 100;
  s.shards = 1;
  s.threads = 1;
  s.sim_seconds = 30;
  s.step_seconds = 0.25;
  s.writes_per_sec = 100;
  // Record reads stay the majority so that the median read sits inside
  // one mode of the host-time distribution, not between records and
  // listings.
  s.share_product = 0.6;
  s.share_listing = 0.35;
  s.top_k_listings = true;
  return s;
}

struct Request {
  int64_t t_us = 0;
  uint32_t target = 0;  // product index, then listings, then the home shell
};

struct Write {
  int64_t t_us = 0;
  uint32_t product = 0;
  std::map<std::string, sk::storage::FieldValue> fields;
  double price = 0;
  int64_t stock = 0;
  bool on_sale = false;
};

struct Inputs {
  std::vector<Shadow> products;  // initial fields
  std::vector<std::string> ids;
  std::vector<ListingSpec> listings;
  std::vector<sk::http::Url> urls;  // per target
  std::vector<Request> requests;    // grouped by client, time-ordered
  std::vector<uint32_t> client_begin;
  std::vector<Write> writes;
  size_t api_targets = 0;  // targets below this are record or listing reads
};

sk::invalidation::Query ProgramQuery(const ListingSpec& spec) {
  sk::invalidation::Query q;
  q.id = spec.id;
  if (spec.category >= 0) {
    q.conditions.push_back(sk::invalidation::Condition{
        "category", sk::invalidation::Op::kEq, spec.category});
  }
  if (spec.only_on_sale) {
    q.conditions.push_back(sk::invalidation::Condition{
        "on_sale", sk::invalidation::Op::kEq, true});
  }
  if (spec.by_price) {
    q.order_by = "price";
    q.descending = spec.descending;
  }
  q.limit = spec.limit;
  return q;
}

Inputs Generate(const SimSpec& spec, uint64_t seed) {
  Inputs in;
  Rng prng = Stream(seed, 1);
  std::vector<double> base_price(spec.products);
  for (size_t i = 0; i < spec.products; ++i) {
    Shadow p;
    p.category = static_cast<int64_t>(prng.Below(static_cast<uint64_t>(spec.categories)));
    p.price = prng.Uniform(5.0, 500.0);
    p.stock = 100;
    base_price[i] = p.price;
    in.products.push_back(p);
    in.ids.push_back("p" + std::to_string(i));
  }
  for (int c = 0; c < spec.categories; ++c) {
    ListingSpec all;
    all.id = "cat-" + std::to_string(c);
    all.category = c;
    in.listings.push_back(all);
    if (!spec.top_k_listings) continue;
    ListingSpec cheap = all;
    cheap.id = "cheap-" + std::to_string(c);
    cheap.by_price = true;
    cheap.limit = 10;
    in.listings.push_back(cheap);
    ListingSpec sale = all;
    sale.id = "sale-" + std::to_string(c);
    sale.only_on_sale = true;
    sale.by_price = true;
    sale.descending = true;
    sale.limit = 5;
    in.listings.push_back(sale);
  }
  if (spec.top_k_listings) {
    ListingSpec deals;
    deals.id = "deals";
    deals.only_on_sale = true;
    deals.by_price = true;
    deals.limit = 20;
    in.listings.push_back(deals);
    ListingSpec premium;
    premium.id = "premium";
    premium.by_price = true;
    premium.descending = true;
    premium.limit = 20;
    in.listings.push_back(premium);
  }
  for (const std::string& id : in.ids) {
    in.urls.push_back(*sk::http::Url::Parse(sk::invalidation::RecordCacheKey(id)));
  }
  for (const ListingSpec& l : in.listings) {
    in.urls.push_back(*sk::http::Url::Parse(sk::invalidation::QueryCacheKey(l.id)));
  }
  in.api_targets = in.urls.size();
  in.urls.push_back(*sk::http::Url::Parse("https://shop.example.com/pages/home"));

  const int64_t horizon_us = static_cast<int64_t>(spec.sim_seconds * 1e6);
  Zipf views(spec.products, spec.product_skew);
  auto view = [&](Rng& r, double t) {
    double u = r.Unit();
    uint32_t target = static_cast<uint32_t>(in.api_targets);  // the home shell
    if (u < spec.share_product) {
      target = static_cast<uint32_t>(views.Sample(r));
    } else if (u < spec.share_product + spec.share_listing) {
      target = static_cast<uint32_t>(spec.products + r.Below(in.listings.size()));
    }
    in.requests.push_back(Request{static_cast<int64_t>(t * 1e6), target});
  };
  for (size_t c = 0; c < spec.clients; ++c) {
    in.client_begin.push_back(static_cast<uint32_t>(in.requests.size()));
    Rng r = Stream(seed, 1000 + c);
    if (spec.views_per_client > 0) {
      std::vector<double> times;
      for (int v = 0; v < spec.views_per_client; ++v) times.push_back(r.Uniform(0, spec.sim_seconds));
      std::sort(times.begin(), times.end());
      for (double t : times) view(r, t);
      continue;
    }
    double t = r.Uniform(0, 60);
    while (true) {
      int pages = 1 + static_cast<int>(r.Exp(spec.pages_mean - 1));
      for (int p = 0; p < pages; ++p) {
        if (p > 0) t += r.Exp(spec.think_mean_s);
        if (t * 1e6 >= static_cast<double>(horizon_us)) break;
        view(r, t);
      }
      t += r.Exp(spec.session_gap_mean_s);
      if (t * 1e6 >= static_cast<double>(horizon_us)) break;
    }
  }
  in.client_begin.push_back(static_cast<uint32_t>(in.requests.size()));

  // A fixed number of writes at uniform random times: every seed does the
  // same amount of write work.
  Zipf written(spec.products, spec.write_skew);
  Rng w = Stream(seed, 2);
  std::vector<double> write_times(static_cast<size_t>(spec.writes_per_sec * spec.sim_seconds));
  for (double& t : write_times) t = w.Uniform(0, spec.sim_seconds);
  std::sort(write_times.begin(), write_times.end());
  for (double t : write_times) {
    Write wr;
    wr.t_us = static_cast<int64_t>(t * 1e6);
    wr.product = static_cast<uint32_t>(written.Sample(w));
    double base = base_price[wr.product];
    wr.price = base * w.Uniform(0.8, 1.2);
    wr.on_sale = wr.price < base;
    wr.stock = static_cast<int64_t>(w.Below(200));
    wr.fields = {{"price", wr.price}, {"on_sale", wr.on_sale}, {"stock", wr.stock}};
    in.writes.push_back(std::move(wr));
  }
  return in;
}

// Serve buckets of the benchmark's own tally: revalidated fetches first, the
// rest by the tier that served them.
enum Bucket { kBrowser, kEdge, kOrigin, kRevalidated, kOffline, kError, kBuckets };
const char* const kBucketNames[kBuckets] = {"browser", "edge", "origin",
                                            "revalidated", "offline", "error"};

Bucket BucketOf(const sk::proxy::FetchResult& r) {
  if (r.revalidated) return kRevalidated;
  switch (r.source) {
    case sk::proxy::ServedFrom::kBrowserCache: return kBrowser;
    case sk::proxy::ServedFrom::kEdgeCache: return kEdge;
    case sk::proxy::ServedFrom::kOrigin: return kOrigin;
    case sk::proxy::ServedFrom::kOfflineCache: return kOffline;
    case sk::proxy::ServedFrom::kError: return kError;
  }
  return kError;
}

struct Read {
  uint32_t product;
  uint64_t version;
  int64_t t_us;
};

// Everything one shard's replay touches, owned by the thread running it.
struct alignas(64) ShardRun {
  sk::core::SpeedKitStack* stack = nullptr;
  const Inputs* in = nullptr;
  std::unique_ptr<sk::proxy::ClientPool> pool;
  std::vector<uint32_t> owned;  // global client index per local client
  std::vector<sk::proxy::ClientProxy*> clients;
  std::vector<uint32_t> cursor;
  sk::SimTime start;
  sk::SimTime end;
  sk::Duration sweep_interval;
  size_t next_write = 0;

  uint64_t fetches = 0;
  uint64_t failed = 0;
  std::array<uint64_t, kBuckets> tally{};
  std::vector<int64_t> api_latency_us;
  int64_t* request_ns = nullptr;  // host ns per global request index
  std::vector<int64_t> step_ns;   // host ns per AdvanceTo step
  std::vector<Read> reads;
  std::vector<uint64_t> initial_version;
  std::vector<std::vector<int64_t>> write_times_us;

  bool trace = false;
  SpanLog spans;
  int32_t advance_span = -1;
  std::array<uint32_t, kBuckets> bucket_span{};
  uint32_t update_span = 0;
  uint32_t step_span = 0;
  uint64_t events_fired = 0;
};

void ScheduleRequest(ShardRun* run, uint32_t c);
void ScheduleWrite(ShardRun* run);

void DoRequest(ShardRun* run, uint32_t c) {
  const uint32_t index = run->in->client_begin[run->owned[c]] + run->cursor[c]++;
  const uint32_t target = run->in->requests[index].target;
  int64_t t0 = NowNs();
  sk::proxy::FetchResult r = run->clients[c]->Fetch(run->in->urls[target]);
  int64_t t1 = NowNs();
  run->request_ns[index] = t1 - t0;
  Bucket b = BucketOf(r);
  if (run->trace) run->spans.Add(run->bucket_span[b], run->advance_span, index + 1, t0, t1);
  run->fetches++;
  run->tally[b]++;
  if (r.response.status_code != 200 || b == kError || b == kOffline) run->failed++;
  if (target < run->in->api_targets) run->api_latency_us.push_back(r.latency.micros());
  if (target < run->in->products.size()) {
    run->reads.push_back(Read{target, r.response.object_version,
                              (run->stack->clock().Now() - run->start).micros()});
  }
  ScheduleRequest(run, c);
}

void ScheduleRequest(ShardRun* run, uint32_t c) {
  const uint32_t client = run->owned[c];
  const uint32_t index = run->in->client_begin[client] + run->cursor[c];
  if (index >= run->in->client_begin[client + 1]) return;
  run->stack->events().At(
      run->start + sk::Duration::Micros(run->in->requests[index].t_us),
      [run, c] { DoRequest(run, c); });
}

void DoWrite(ShardRun* run) {
  const Write& w = run->in->writes[run->next_write++];
  int64_t t0 = NowNs();
  run->stack->store().Update(run->in->ids[w.product], w.fields,
                             run->stack->clock().Now());
  int64_t t1 = NowNs();
  if (run->trace) run->spans.Add(run->update_span, run->advance_span, 0, t0, t1);
  run->write_times_us[w.product].push_back(
      (run->stack->clock().Now() - run->start).micros());
  ScheduleWrite(run);
}

void ScheduleWrite(ShardRun* run) {
  if (run->next_write >= run->in->writes.size()) return;
  run->stack->events().At(
      run->start + sk::Duration::Micros(run->in->writes[run->next_write].t_us),
      [run] { DoWrite(run); });
}

void ScheduleSweep(ShardRun* run, sk::SimTime at) {
  if (at >= run->end) return;
  run->stack->events().At(at, [run, at] {
    run->pool->SpillIdle(run->stack->clock().Now());
    ScheduleSweep(run, at + run->sweep_interval);
  });
}

uint64_t HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<uint64_t>(mi.uordblks) + static_cast<uint64_t>(mi.hblkhd);
}

// One round's numbers. Host times vary from round to round; `counts` (the
// modelled results and component counters) must not.
struct Round {
  double setup_done_s = 0;  // since process start
  double populate_s = 0;
  double queries_s = 0;
  double fleet_s = 0;
  double traffic_s = 0;
  double heap_per_client = 0;
  uint64_t fetches = 0;
  uint64_t failed = 0;
  std::vector<int64_t> request_ns;           // per global request index
  std::vector<std::vector<int64_t>> step_ns;  // per shard, per step
  std::array<double, kBuckets> bucket_ns{};
  double update_ns = 0;
  double event_self_ns = 0;
  std::map<std::string, double> counts;
};

double MeanNs(int64_t total, uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
}

Round RunRound(const SimSpec& spec, const Inputs& in, const Options& options,
               sk::coherence::CoherenceMode mode, RunReport* report,
               bool write_spans) {
  Round round;
  const int threads = options.threads > 0 ? options.threads : spec.threads;
  const uint64_t heap0 = HeapInUse();

  // Set-up runs on one thread, shard after shard. setup_s is a single cold
  // measurement per run; spread over the shard threads it would wait for
  // the slowest of several CPUs, and so move with every change in the
  // host's load on any one of them.
  constexpr int kSetupThreads = 1;
  auto phase = Clock::now();
  sk::core::StackConfig config;
  config.seed = options.seed;
  config.cdn_edges = 4;
  config.shards = spec.shards;
  config.coherence.mode = mode;
  auto fleet = std::make_unique<sk::core::ShardedFleet>(config);
  std::vector<ShardRun> runs(static_cast<size_t>(fleet->shards()));
  round.fleet_s = SecondsSince(phase);

  phase = Clock::now();
  sk::core::ForEachShard(fleet->shards(), kSetupThreads, [&](int s) {
    ShardRun& run = runs[static_cast<size_t>(s)];
    run.stack = &fleet->shard(s);
    run.in = &in;
    run.trace = options.trace;
    for (size_t i = 0; i < in.products.size(); ++i) {
      const Shadow& p = in.products[i];
      run.initial_version.push_back(run.stack->store().Put(
          in.ids[i],
          {{"category", p.category}, {"price", p.price}, {"stock", p.stock},
           {"on_sale", p.on_sale}, {"title", "Product " + std::to_string(i)}},
          run.stack->clock().Now()));
    }
    // Let the population's invalidations drain before traffic starts.
    run.stack->Advance(sk::Duration::Seconds(5));
  });
  round.populate_s = SecondsSince(phase);

  phase = Clock::now();
  sk::core::ForEachShard(fleet->shards(), kSetupThreads, [&](int s) {
    ShardRun& run = runs[static_cast<size_t>(s)];
    for (const ListingSpec& l : in.listings) {
      sk::Status registered = run.stack->origin().RegisterQuery(ProgramQuery(l));
      sk::Status watched = run.stack->pipeline()->WatchQuery(
          ProgramQuery(l), sk::invalidation::QueryCacheKey(l.id));
      if (!registered.ok() || !watched.ok()) run.failed++;
    }
  });
  round.queries_s = SecondsSince(phase);

  phase = Clock::now();
  sk::core::ForEachShard(fleet->shards(), kSetupThreads, [&](int s) {
    ShardRun& run = runs[static_cast<size_t>(s)];
    sk::proxy::ClientPoolConfig pool_config;
    pool_config.spill = spec.spill;
    run.sweep_interval = pool_config.spill_sweep_interval;
    run.pool = run.stack->MakeClientPool(pool_config);
    const sk::proxy::ProxyConfig proxy_config = run.stack->DefaultProxyConfig();
    for (uint32_t c = 0; c < spec.clients; ++c) {
      if (!run.stack->OwnsClient(c + 1)) continue;
      run.owned.push_back(c);
      run.clients.push_back(run.pool->MakeClient(proxy_config, c + 1));
    }
    run.cursor.assign(run.owned.size(), 0);
    run.write_times_us.assign(in.products.size(), {});
    run.start = run.stack->clock().Now();
    run.end = run.start + sk::Duration::Seconds(spec.sim_seconds);
    run.api_latency_us.reserve(in.requests.size() / fleet->shards());
    for (int b = 0; b < kBuckets; ++b) {
      run.bucket_span[b] = run.spans.Name(std::string("proxy.fetch.") + kBucketNames[b]);
    }
    run.update_span = run.spans.Name("storage.update");
    run.step_span = run.spans.Name("sim.advance_to");
  });
  round.fleet_s += SecondsSince(phase);
  round.setup_done_s = SecondsSince(ProcessStart());

  // Traffic phase: the only timed part of a round. The queue advances in
  // fixed simulated steps, each timed, so that every step of every round
  // does the same work and rounds can be compared step by step.
  round.request_ns.assign(in.requests.size(), 0);
  round.step_ns.resize(runs.size());
  const auto traffic_start = Clock::now();
  sk::core::ForEachShard(fleet->shards(), threads, [&](int s) {
    ShardRun& run = runs[static_cast<size_t>(s)];
    run.request_ns = round.request_ns.data();
    const uint64_t fired_before = run.stack->events().wheel_stats().fired;
    for (uint32_t c = 0; c < run.owned.size(); ++c) ScheduleRequest(&run, c);
    ScheduleWrite(&run);
    if (run.pool->spill_enabled()) ScheduleSweep(&run, run.start + run.sweep_interval);
    for (sk::SimTime t = run.start; t < run.end;) {
      t = std::min(run.end, t + sk::Duration::Seconds(spec.step_seconds));
      if (run.trace) run.advance_span = run.spans.Open(run.step_span, -1);
      const int64_t t0 = NowNs();
      run.stack->AdvanceTo(t);
      run.step_ns.push_back(NowNs() - t0);
      if (run.trace) run.spans.Close(run.advance_span);
    }
    run.events_fired = run.stack->events().wheel_stats().fired - fired_before;
    round.step_ns[static_cast<size_t>(s)] = run.step_ns;
  });
  round.traffic_s = SecondsSince(traffic_start);
  const uint64_t heap_after = HeapInUse();
  round.heap_per_client =
      static_cast<double>(heap_after > heap0 ? heap_after - heap0 : 0) /
      static_cast<double>(spec.clients);

  // Everything below is outside the timed phase: collect counters, then
  // run the checks (the listing check sends origin requests of its own).
  std::map<std::string, double>& k = round.counts;
  std::vector<int64_t> api_latency;
  std::array<int64_t, kBuckets> bucket_total{};
  std::array<uint64_t, kBuckets> bucket_n{};
  int64_t update_total = 0, self_total = 0;
  uint64_t updates = 0, events = 0;
  for (ShardRun& run : runs) {
    sk::core::SpeedKitStack& stack = *run.stack;
    round.fetches += run.fetches;
    round.failed += run.failed;
    api_latency.insert(api_latency.end(), run.api_latency_us.begin(), run.api_latency_us.end());
    for (int b = 0; b < kBuckets; ++b) k[std::string("proxy.fetches.") + kBucketNames[b]] += run.tally[b];
    const sk::proxy::ProxyStats& ps = run.pool->stats();
    k["proxy.requests"] += ps.requests;
    k["proxy.sketch_bypasses"] += ps.sketch_bypasses;
    k["proxy.sketch_refreshes"] += ps.sketch_refreshes;
    const sk::origin::OriginStats& os = stack.origin().stats();
    k["origin.requests"] += os.requests;
    k["origin.not_modified"] += os.not_modified;
    k["origin.query_requests"] += os.query_requests;
    k["origin.render_cache_hits"] += os.render_cache_hits;
    const sk::cache::HttpCacheStats edge = stack.cdn().TotalStats();
    k["cache.edge_hits"] += edge.fresh_hits;
    k["cache.edge_misses"] += edge.misses;
    k["cache.edge_purges"] += edge.purges;
    const sk::proxy::ClientPoolSpillStats spill = run.pool->SpillStats();
    k["proxy.spill_freezes"] += spill.freezes;
    k["proxy.spill_thaws"] += spill.thaws;
    k["proxy.frozen_bytes"] += spill.frozen_bytes;
    const sk::invalidation::PipelineStats& pipe = stack.pipeline()->stats();
    k["invalidation.keys_invalidated"] += pipe.keys_invalidated;
    k["invalidation.purges_scheduled"] += pipe.purges_scheduled;
    if (stack.sketch() != nullptr) {
      k["sketch.entries"] += stack.sketch()->entries();
      k["sketch.snapshot_bytes"] +=
          stack.sketch()->SerializedSnapshot(stack.clock().Now()).size();
    } else {
      k["sketch.entries"] += 0;
      k["sketch.snapshot_bytes"] += 0;
    }
    k["sim.events_fired"] += run.events_fired;
    events += run.events_fired;
    // Every Fetch and Update span is the child of an AdvanceTo step span,
    // so the steps' self time is their total minus their children's.
    for (const Span& span : run.spans.spans()) {
      const int64_t ns = span.end_ns - span.start_ns;
      if (span.name == run.step_span) {
        self_total += ns;
        continue;
      }
      self_total -= ns;
      if (span.name == run.update_span) {
        update_total += ns;
        updates++;
      }
      for (int b = 0; b < kBuckets; ++b) {
        if (span.name == run.bucket_span[b]) {
          bucket_total[b] += ns;
          bucket_n[b]++;
        }
      }
    }
  }
  for (int b = 0; b < kBuckets; ++b) round.bucket_ns[b] = MeanNs(bucket_total[b], bucket_n[b]);
  round.update_ns = MeanNs(update_total, updates);
  round.event_self_ns = MeanNs(self_total, events);
  k["writes"] = static_cast<double>(in.writes.size());
  k["fetches"] = static_cast<double>(round.fetches);
  k["api_p50_us"] = static_cast<double>(Quantile(api_latency, 0.5));
  k["origin_per_kreq"] =
      round.fetches == 0 ? 0 : 1000.0 * k["origin.requests"] / static_cast<double>(round.fetches);

  // Correctness checks, per shard.
  const int64_t bound_us =
      (config.coherence.delta + sk::Duration::Seconds(2)).micros();
  uint64_t violations = 0, future_reads = 0, listing_mismatches = 0, version_mismatches = 0;
  for (size_t s = 0; s < runs.size(); ++s) {
    ShardRun& run = runs[s];
    sk::core::SpeedKitStack& stack = *run.stack;
    const std::string where = "shard " + std::to_string(s) + ": ";
    uint64_t tally_sum = 0;
    for (uint64_t n : run.tally) tally_sum += n;
    if (run.fetches != run.pool->stats().requests || run.fetches != tally_sum) {
      report->Fail(where + "request conservation: benchmark " + std::to_string(run.fetches) +
                   ", ProxyStats " + std::to_string(run.pool->stats().requests) +
                   ", per-source sum " + std::to_string(tally_sum));
    }
    for (size_t p = 0; p < in.products.size(); ++p) {
      uint64_t expected = run.initial_version[p] + run.write_times_us[p].size();
      uint64_t head = stack.store().VersionOf(in.ids[p]);
      if (head != expected) {
        if (version_mismatches++ == 0) {
          report->Fail(where + "write conservation: " + in.ids[p] + " at v" +
                       std::to_string(head) + ", expected v" + std::to_string(expected));
        }
      }
    }
    DeltaOracle oracle{&run.initial_version, &run.write_times_us, bound_us};
    for (const Read& r : run.reads) {
      int verdict = oracle.Check(r.product, r.version, r.t_us);
      if (verdict == 1) violations++;
      if (verdict == 2) future_reads++;
    }
    // The shadow copy after every write this shard applied.
    std::vector<Shadow> shadow = in.products;
    for (size_t p = 0; p < shadow.size(); ++p) {
      shadow[p].version = run.initial_version[p] + run.write_times_us[p].size();
    }
    for (size_t i = 0; i < run.next_write; ++i) {
      const Write& w = in.writes[i];
      shadow[w.product].price = w.price;
      shadow[w.product].on_sale = w.on_sale;
      shadow[w.product].stock = w.stock;
    }
    for (size_t l = 0; l < in.listings.size(); ++l) {
      sk::http::HttpResponse resp = stack.origin().Handle(
          sk::http::HttpRequest::Get(in.urls[in.products.size() + l]));
      std::vector<ListingMember> served;
      std::string diff;
      if (resp.status_code != 200 || !ParseListing(resp.body, &served)) {
        diff = "unreadable listing (status " + std::to_string(resp.status_code) + ")";
      } else {
        if (options.drop_listing_member && !served.empty()) {
          served.erase(served.begin() + static_cast<long>(served.size() / 2));
        }
        diff = CompareListings(ExpectedListing(in.listings[l], shadow), served);
      }
      if (!diff.empty() && listing_mismatches++ == 0) {
        report->Fail(where + "listing " + in.listings[l].id + ": " + diff);
      }
    }
    if (write_spans && run.trace && !options.out_dir.empty()) {
      run.spans.WriteTsv(options.out_dir + "/spans-" + options.workload + ".tsv",
                         "shard" + std::to_string(s), /*append=*/s > 0);
    }
  }
  if (violations > 0 || future_reads > 0) {
    report->Fail("delta-atomicity: " + std::to_string(violations) +
                 " reads older than delta + 2 s, " + std::to_string(future_reads) +
                 " reads of unwritten versions");
  }
  k["check.delta_violations"] = static_cast<double>(violations);
  k["check.future_reads"] = static_cast<double>(future_reads);
  k["check.listing_mismatches"] = static_cast<double>(listing_mismatches);
  k["check.version_mismatches"] = static_cast<double>(version_mismatches);

  for (ShardRun& run : runs) run.pool.reset();  // clients before their stacks
  return round;
}

}  // namespace

RunReport RunSimWorkload(const Options& options) {
  RunReport report;
  SimSpec spec = options.workload == "sim_browse" ? BrowseSpec() : WriteStormSpec();
  spec.clients = std::max<size_t>(1, static_cast<size_t>(static_cast<double>(spec.clients) * options.scale));
  spec.sim_seconds *= options.scale;
  sk::coherence::CoherenceMode mode;
  if (!sk::coherence::ParseCoherenceMode(options.coherence, &mode).ok()) {
    report.Fail("unknown --coherence " + options.coherence);
    return report;
  }
  const Inputs in = Generate(spec, options.seed);

  // Single-threaded rounds after the first run on each allowed CPU in turn,
  // so that the per-step minima do not all come from one CPU that other
  // work on the host keeps busy. (Multi-threaded rounds spread over the
  // CPUs anyway.) The first round, whose set-up is setup_s, runs where the
  // scheduler puts it rather than on one fixed CPU.
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const bool rotate = (options.threads > 0 ? options.threads : spec.threads) == 1 && cpus.size() > 1;

  std::vector<Round> rounds;
  const auto measure_start = Clock::now();
  do {
    bool first = rounds.empty();
    const bool pin = rotate && !first;
    if (pin) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[rounds.size() % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    rounds.push_back(RunRound(spec, in, options, mode, &report, first));
    if (pin) sched_setaffinity(0, sizeof(allowed), &allowed);
    if (!first && rounds.back().counts != rounds.front().counts) {
      report.Fail("round " + std::to_string(rounds.size()) +
                  " produced different modelled results than round 1");
    }
  } while ((options.max_rounds == 0 || static_cast<int>(rounds.size()) < options.max_rounds) &&
           SecondsSince(measure_start) < options.seconds);

  // Every round replays the same requests and writes, so each request and
  // each AdvanceTo step does the same work in every round. Interference from
  // other work on the host only ever adds time, so the host-time metrics use
  // each request's and each step's fastest round. Host-time per-layer
  // metrics report their best round; the rest are identical in every round.
  const Round& first = rounds.front();
  auto values_of = [&](auto field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(field(r));
    return v;
  };
  auto median_of = [&](auto field) { return Median(values_of(field)); };
  auto best_of = [&](auto field) {
    std::vector<double> v = values_of(field);
    return *std::min_element(v.begin(), v.end());
  };
  std::vector<int64_t> request_ns = first.request_ns;
  std::vector<std::vector<int64_t>> step_ns = first.step_ns;
  for (const Round& r : rounds) {
    report.attempted += r.fetches + in.writes.size();
    report.failed += r.failed;
    for (size_t i = 0; i < request_ns.size(); ++i) {
      request_ns[i] = std::min(request_ns[i], r.request_ns[i]);
    }
    for (size_t sh = 0; sh < step_ns.size(); ++sh) {
      for (size_t k = 0; k < step_ns[sh].size(); ++k) {
        step_ns[sh][k] = std::min(step_ns[sh][k], r.step_ns[sh][k]);
      }
    }
  }
  std::vector<double> shard_s;
  for (const std::vector<int64_t>& steps : step_ns) {
    int64_t total = 0;
    for (int64_t ns : steps) total += ns;
    shard_s.push_back(static_cast<double>(total) / 1e9);
  }
  // Shards run concurrently: the slowest one sets the round's time.
  const double traffic_s = *std::max_element(shard_s.begin(), shard_s.end());
  const double host_p50_us = static_cast<double>(Quantile(request_ns, 0.5)) / 1e3;
  const double host_p99_us = static_cast<double>(Quantile(request_ns, 0.99)) / 1e3;
  report.end_to_end = {
      {"setup_s", first.setup_done_s, "s"},
      {"req_per_s", static_cast<double>(first.fetches) / traffic_s, "req/s"},
      {"req_p50_us", host_p50_us, "us"},
      {"req_p99_us", host_p99_us, "us"},
      {"bytes_per_client", median_of([](const Round& r) { return r.heap_per_client; }), "B"},
      {"model_api_p50_ms", first.counts.at("api_p50_us") / 1e3, "ms"},
      {"origin_per_kreq", first.counts.at("origin_per_kreq"), "1/kreq"},
  };

  const auto& k = first.counts;
  // Offline and error serves count as failed operations, not as a tier.
  for (int b = 0; b < kOffline; ++b) {
    report.per_layer.push_back({std::string("proxy.fetch_ns.") + kBucketNames[b],
                                best_of([b](const Round& r) { return r.bucket_ns[b]; }), "ns"});
  }
  for (int b = 0; b < kOffline; ++b) {
    std::string name = std::string("proxy.fetches.") + kBucketNames[b];
    report.per_layer.push_back({name, k.at(name), "count"});
  }
  for (const char* name : {"proxy.sketch_bypasses", "proxy.sketch_refreshes", "origin.requests",
                           "origin.not_modified", "origin.query_requests",
                           "origin.render_cache_hits", "cache.edge_hits", "cache.edge_misses",
                           "cache.edge_purges", "proxy.spill_freezes", "proxy.spill_thaws"}) {
    report.per_layer.push_back({name, k.at(name), "count"});
  }
  report.per_layer.push_back({"proxy.frozen_bytes", k.at("proxy.frozen_bytes"), "B"});
  report.per_layer.push_back({"storage.update_ns", best_of([](const Round& r) { return r.update_ns; }), "ns"});
  report.per_layer.push_back({"invalidation.keys_invalidated", k.at("invalidation.keys_invalidated"), "count"});
  report.per_layer.push_back({"invalidation.purges_scheduled", k.at("invalidation.purges_scheduled"), "count"});
  report.per_layer.push_back({"sketch.entries", k.at("sketch.entries"), "count"});
  report.per_layer.push_back({"sketch.snapshot_bytes", k.at("sketch.snapshot_bytes"), "B"});
  report.per_layer.push_back({"sim.event_self_ns", best_of([](const Round& r) { return r.event_self_ns; }), "ns"});
  report.per_layer.push_back({"sim.events_fired", k.at("sim.events_fired"), "count"});
  report.per_layer.push_back({"core.shard_traffic_s_max", traffic_s, "s"});
  report.per_layer.push_back({"core.shard_traffic_s_min", *std::min_element(shard_s.begin(), shard_s.end()), "s"});
  report.per_layer.push_back({"setup.populate_s", first.populate_s, "s"});
  report.per_layer.push_back({"setup.queries_s", first.queries_s, "s"});
  report.per_layer.push_back({"setup.fleet_s", first.fleet_s, "s"});

  report.detail = first.counts;
  report.detail["rounds"] = static_cast<double>(rounds.size());
  report.detail["host.median_round_req_per_s"] = median_of([](const Round& r) {
    return static_cast<double>(r.fetches) / r.traffic_s;
  });
  report.detail["host.median_round_p50_us"] = median_of([](const Round& r) {
    return static_cast<double>(Quantile(r.request_ns, 0.5)) / 1e3;
  });
  report.detail["host.median_round_p99_us"] = median_of([](const Round& r) {
    return static_cast<double>(Quantile(r.request_ns, 0.99)) / 1e3;
  });
  return report;
}

}  // namespace perfbench
