// Shared pieces of perfbench: its own random numbers and Zipf
// sampler (so that inputs never depend on the program's workload module),
// exact order statistics, the span recorder, and the run report.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Set once at the top of main(): the reference for every setup_s.
inline Clock::time_point& ProcessStart() {
  static Clock::time_point start = Clock::now();
  return start;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// SplitMix64 (Steele, Lea, Flood 2014): the benchmark's only generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Unit(); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Exp(double mean) { return -mean * std::log1p(-Unit()); }

 private:
  uint64_t state_;
};

// A generator for stream `salt` of `seed`: independent of every other salt.
inline Rng Stream(uint64_t seed, uint64_t salt) {
  Rng mix(seed * 0xd1b54a32d192ed03ULL + salt);
  return Rng(mix.Next() ^ (salt * 0x9e3779b97f4a7c15ULL));
}

// Zipf(s) over ranks [0, n): rank r has weight 1/(r+1)^s. A sample is the
// first rank whose cumulative weight reaches a uniform draw; a guide table
// of n buckets over [0, 1) starts the search at the bucket's first
// candidate, so a sample costs a step or two instead of a binary search.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n), guide_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    size_t r = 0;
    for (size_t j = 0; j < n; ++j) {
      const double lo = static_cast<double>(j) / static_cast<double>(n);
      while (r < n && cdf_[r] < lo) ++r;
      guide_[j] = r;
    }
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.Unit();
    const size_t n = cdf_.size();
    size_t r = guide_[std::min(n - 1, static_cast<size_t>(u * static_cast<double>(n)))];
    while (r > 0 && cdf_[r - 1] >= u) --r;  // u * n rounded up a bucket
    while (r < n && cdf_[r] < u) ++r;
    return std::min(r, n - 1);
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> guide_;  // guide_[j]: first rank with cdf >= j / n
};

// Nearest-rank quantile of an unsorted sample (copied, then partially
// sorted). Empty samples give 0.
template <typename T>
T Quantile(std::vector<T> values, double q) {
  if (values.empty()) return T{};
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  size_t k = rank == 0 ? 0 : rank - 1;
  k = std::min(k, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// FNV-1a, for body-identity checks.
inline uint64_t HashBytes(const char* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One traced interval. Spans live in memory for the whole run and are
// written out once at the end; a span's self time is its duration minus
// the time its children cover.
struct Span {
  uint32_t name = 0;    // index into SpanLog::names
  int32_t parent = -1;  // index into SpanLog::spans, -1 = root
  uint64_t request = 0; // request id; 0 for non-request spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  uint32_t Name(const std::string& name) {
    for (uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }
  int32_t Add(uint32_t name, int32_t parent, uint64_t request,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  // Opens a span whose end is filled in by Close().
  int32_t Open(uint32_t name, int32_t parent) {
    return Add(name, parent, 0, NowNs(), 0);
  }
  void Close(int32_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  // Tab-separated dump: label, name, id, parent, request, start, end (ns).
  bool WriteTsv(const std::string& path, const std::string& label,
                bool append) const {
    FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\t%s\t%zu\t%d\t%llu\t%lld\t%lld\n", label.c_str(),
                   names_[s.name].c_str(), i, s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// A named metric value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports back to main().
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Exact modelled results and counts, printed on the detail line so that
  // tests can compare runs (thread counts, traced vs untraced).
  std::map<std::string, double> detail;
  std::vector<std::string> problems;  // failed correctness checks

  void Fail(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Test and tuning knobs; the defaults are the benchmark.
  int threads = 0;             // shard threads (0 = the workload's own)
  double scale = 1.0;          // multiplies client count and sim duration
  std::string coherence = "delta_atomic";
  bool drop_listing_member = false;  // self-test of the listing check
  int max_rounds = 0;          // 0 = as many as fit in --seconds
  std::string edged_path;      // speedkit-edged binary
  std::string out_dir;         // where traced runs write their spans
};

RunReport RunSimWorkload(const Options& options);
RunReport RunSocketWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
