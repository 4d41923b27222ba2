// Correctness oracles. They recompute what the program should have done
// from the benchmark's own write log and shadow copy of the fields it
// wrote, and share no code with the components they check: no predicate
// evaluation, sorting, rendering or staleness bookkeeping of the program
// is reused here.
#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// The benchmark's copy of one product's fields.
struct Shadow {
  int64_t category = 0;
  double price = 0;
  int64_t stock = 0;
  bool on_sale = false;
  uint64_t version = 0;  // version after the benchmark's last write
};

// One registered listing, as the benchmark defines it.
struct ListingSpec {
  std::string id;
  int64_t category = -1;     // -1: any category
  bool only_on_sale = false;
  bool by_price = false;     // false: unordered (id order)
  bool descending = false;
  size_t limit = 0;          // 0: all members
};

// One member of a listing: what the benchmark compares.
struct ListingMember {
  std::string id;
  uint64_t version = 0;
  std::string price;  // as printed with six significant digits
};

// The listing the program must serve for `spec` over `products`, whose
// index i is product "p<i>".
std::vector<ListingMember> ExpectedListing(const ListingSpec& spec,
                                           const std::vector<Shadow>& products);

// Parses an origin listing body ({"query":...,"results":[{...},...]}).
// Returns false on a body it cannot read.
bool ParseListing(std::string_view body, std::vector<ListingMember>* out);

// Empty when equal; otherwise a one-line description of the first difference.
std::string CompareListings(const std::vector<ListingMember>& expected,
                            const std::vector<ListingMember>& served);

// Δ-atomicity over one replica's history. `write_times_us[p]` lists the
// instants of the benchmark's writes to product p in time order; write k
// (0-based) produced version initial_version[p] + k + 1.
struct DeltaOracle {
  const std::vector<uint64_t>* initial_version = nullptr;
  const std::vector<std::vector<int64_t>>* write_times_us = nullptr;
  int64_t bound_us = 0;  // Δ plus the propagation margin

  // Returns 0 for a legal read, 1 when the served version was superseded
  // more than bound_us before the read, 2 when it was not yet written.
  int Check(uint32_t product, uint64_t version, int64_t read_us) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
