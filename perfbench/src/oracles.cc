#include "oracles.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::string PriceText(double price) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", price);
  return buf;
}

// The text after `"key":` up to the next ',' or '}' (quotes stripped).
bool FieldText(std::string_view object, std::string_view key,
               std::string_view* out) {
  std::string pattern = "\"";
  pattern.append(key).append("\":");
  size_t at = object.find(pattern);
  if (at == std::string_view::npos) return false;
  size_t begin = at + pattern.size();
  size_t end = object.find_first_of(",}", begin);
  if (end == std::string_view::npos) return false;
  std::string_view text = object.substr(begin, end - begin);
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    text = text.substr(1, text.size() - 2);
  }
  *out = text;
  return true;
}

}  // namespace

std::vector<ListingMember> ExpectedListing(
    const ListingSpec& spec, const std::vector<Shadow>& products) {
  struct Row {
    double price;
    std::string id;
    size_t index;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < products.size(); ++i) {
    const Shadow& p = products[i];
    if (spec.category >= 0 && p.category != spec.category) continue;
    if (spec.only_on_sale && !p.on_sale) continue;
    std::string id = "p";
    id += std::to_string(i);
    rows.push_back(Row{p.price, std::move(id), i});
  }
  // Members rank by (sort value, id); unordered listings by id alone.
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    if (spec.by_price && a.price != b.price) return a.price < b.price;
    return a.id < b.id;
  });
  if (spec.descending) std::reverse(rows.begin(), rows.end());
  if (spec.limit != 0 && rows.size() > spec.limit) rows.resize(spec.limit);
  std::vector<ListingMember> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    out.push_back(ListingMember{r.id, products[r.index].version,
                                PriceText(products[r.index].price)});
  }
  return out;
}

bool ParseListing(std::string_view body, std::vector<ListingMember>* out) {
  out->clear();
  size_t at = body.find("\"results\":[");
  if (at == std::string_view::npos) return false;
  at += 11;
  while (at < body.size() && body[at] == '{') {
    size_t end = body.find('}', at);
    if (end == std::string_view::npos) return false;
    std::string_view object = body.substr(at, end - at + 1);
    std::string_view id, version, price;
    if (!FieldText(object, "id", &id) || !FieldText(object, "version", &version) ||
        !FieldText(object, "price", &price)) {
      return false;
    }
    out->push_back(ListingMember{
        std::string(id), std::strtoull(std::string(version).c_str(), nullptr, 10),
        std::string(price)});
    at = end + 1;
    if (at < body.size() && body[at] == ',') ++at;
  }
  return body.substr(at) == "]}";
}

std::string CompareListings(const std::vector<ListingMember>& expected,
                            const std::vector<ListingMember>& served) {
  size_t n = std::min(expected.size(), served.size());
  for (size_t i = 0; i < n; ++i) {
    const ListingMember& e = expected[i];
    const ListingMember& s = served[i];
    if (e.id != s.id || e.version != s.version || e.price != s.price) {
      return "position " + std::to_string(i) + ": expected " + e.id + " v" +
             std::to_string(e.version) + " price " + e.price + ", served " +
             s.id + " v" + std::to_string(s.version) + " price " + s.price;
    }
  }
  if (expected.size() != served.size()) {
    return "expected " + std::to_string(expected.size()) + " members, served " +
           std::to_string(served.size());
  }
  return "";
}

int DeltaOracle::Check(uint32_t product, uint64_t version,
                       int64_t read_us) const {
  const std::vector<int64_t>& writes = (*write_times_us)[product];
  uint64_t initial = (*initial_version)[product];
  size_t written = static_cast<size_t>(
      std::upper_bound(writes.begin(), writes.end(), read_us) - writes.begin());
  if (version < initial || version > initial + written) return 2;
  size_t superseding = static_cast<size_t>(version - initial);  // next write
  if (superseding < written &&
      read_us - writes[superseding] > bound_us) {
    return 1;
  }
  return 0;
}

}  // namespace perfbench
