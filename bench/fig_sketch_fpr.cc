// E1 — Cache Sketch sizing: measured vs. analytic false-positive rate
// across entry counts, bits/entry and hash counts.
//
// Reproduces the Bloom-filter sizing analysis behind the Cache Sketch
// (companion BTW'15 paper, filter-dimensioning figure): measured FPR must
// track the analytic curve, the optimal k must sit at the minimum, and a
// sketch false positive only ever costs an unnecessary revalidation.
#include <cmath>
#include <string>

#include "bench/bench_util.h"
#include "obs/json.h"
#include "sketch/bloom_filter.h"
#include "tools/flags.h"

namespace speedkit {
namespace {

std::string Key(size_t i) {
  return "https://shop.example.com/api/records/p" + std::to_string(i);
}

double MeasureFpr(const sketch::BloomFilter& filter, size_t inserted,
                  int probes) {
  int false_positives = 0;
  for (int i = 0; i < probes; ++i) {
    if (filter.MightContain("absent/" + std::to_string(i) + "/" +
                            std::to_string(inserted))) {
      ++false_positives;
    }
  }
  return static_cast<double>(false_positives) / probes;
}

double AnalyticFpr(size_t bits, int k, size_t n) {
  double exponent = -static_cast<double>(k) * static_cast<double>(n) /
                    static_cast<double>(bits);
  return std::pow(1.0 - std::exp(exponent), k);
}

void SweepBitsPerKey(obs::JsonValue* rows) {
  bench::PrintSection("FPR vs bits/entry (k = optimal), n stale entries");
  bench::Row("%8s %10s %4s %12s %12s %12s", "n", "bits/key", "k", "measured",
             "analytic", "snapshot_B");
  for (size_t n : {1000u, 10000u, 100000u}) {
    for (int bits_per_key : {4, 8, 12, 16, 20}) {
      size_t bits = n * static_cast<size_t>(bits_per_key);
      int k = sketch::BloomFilter::OptimalHashes(bits, n);
      sketch::BloomFilter filter(bits, k);
      for (size_t i = 0; i < n; ++i) filter.Add(Key(i));
      double measured = MeasureFpr(filter, n, 200000);
      double analytic = AnalyticFpr(filter.bits(), k, n);
      bench::Row("%8zu %10d %4d %11.4f%% %11.4f%% %12zu", n, bits_per_key, k,
                 measured * 100, analytic * 100, filter.SizeBytes() + 8);
      rows->Push(obs::JsonRow(
          {{"section", "bits_per_key"},
           {"n", static_cast<uint64_t>(n)},
           {"bits_per_key", bits_per_key},
           {"k", k},
           {"measured_fpr", measured},
           {"analytic_fpr", analytic},
           {"snapshot_bytes", static_cast<uint64_t>(filter.SizeBytes() + 8)}}));
    }
  }
}

void SweepHashCount(obs::JsonValue* rows) {
  bench::PrintSection("FPR vs hash count at fixed 10 bits/entry (n=10000)");
  constexpr size_t kN = 10000;
  constexpr size_t kBits = kN * 10;
  bench::Row("%4s %12s %12s", "k", "measured", "analytic");
  for (int k = 1; k <= 12; ++k) {
    sketch::BloomFilter filter(kBits, k);
    for (size_t i = 0; i < kN; ++i) filter.Add(Key(i));
    double measured = MeasureFpr(filter, kN, 200000);
    double analytic = AnalyticFpr(filter.bits(), k, kN);
    bench::Row("%4d %11.4f%% %11.4f%%", k, measured * 100, analytic * 100);
    rows->Push(obs::JsonRow({{"section", "hash_count"},
                             {"k", k},
                             {"measured_fpr", measured},
                             {"analytic_fpr", analytic}}));
  }
  bench::Note("minimum should fall near k = 10 * ln2 ~ 7");
}

void SweepTargetFpr(obs::JsonValue* rows) {
  bench::PrintSection("auto-sizing ForCapacity(n, p): achieved vs requested");
  bench::Row("%8s %10s %12s %12s %12s", "n", "target", "measured", "bits/key",
             "snapshot_B");
  for (size_t n : {1000u, 20000u}) {
    for (double p : {0.2, 0.1, 0.05, 0.01, 0.001}) {
      sketch::BloomFilter filter = sketch::BloomFilter::ForCapacity(n, p);
      for (size_t i = 0; i < n; ++i) filter.Add(Key(i));
      double measured = MeasureFpr(filter, n, 200000);
      bench::Row("%8zu %9.3f%% %11.4f%% %12.1f %12zu", n, p * 100,
                 measured * 100, static_cast<double>(filter.bits()) / n,
                 filter.SizeBytes() + 8);
      rows->Push(obs::JsonRow(
          {{"section", "target_fpr"},
           {"n", static_cast<uint64_t>(n)},
           {"target_fpr", p},
           {"measured_fpr", measured},
           {"bits_per_key", static_cast<double>(filter.bits()) / n},
           {"snapshot_bytes", static_cast<uint64_t>(filter.SizeBytes() + 8)}}));
    }
  }
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::tools::Flags flags(argc, argv);
  std::string json_path = speedkit::bench::JsonPathFromFlag(
      flags.GetString("json", ""), "sketch_fpr");
  flags.RejectUnknown();

  speedkit::bench::PrintHeader(
      "E1", "Cache Sketch false-positive rate vs sizing",
      "Bloom-filter dimensioning of the Cache Sketch (coherence protocol "
      "overhead knob)");
  speedkit::obs::JsonValue rows = speedkit::obs::JsonValue::Array();
  speedkit::SweepBitsPerKey(&rows);
  speedkit::SweepHashCount(&rows);
  speedkit::SweepTargetFpr(&rows);
  if (!json_path.empty()) {
    speedkit::obs::JsonValue root = speedkit::obs::JsonValue::Object();
    root.Set("bench", "sketch_fpr");
    root.Set("rows", std::move(rows));
    speedkit::obs::WriteJsonFile(json_path, root);
  }
  return 0;
}
