// Minimal --key=value flag parsing for the CLI tools. No dependencies, no
// registration: parse once, query typed getters with defaults, then call
// RejectUnknown() so a misspelled flag stops the run instead of being
// ignored.
#ifndef SPEEDKIT_TOOLS_FLAGS_H_
#define SPEEDKIT_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace speedkit::tools {

class Flags {
 public:
  // Consumes "--key=value" and "--key value" forms; everything else is a
  // positional argument.
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      std::string body = arg.substr(2);
      size_t eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "true";
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    const std::string* v = Find(key);
    return v == nullptr ? fallback : *v;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const std::string* v = Find(key);
    return v == nullptr ? fallback : std::strtoll(v->c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& key, double fallback) const {
    const std::string* v = Find(key);
    return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
  }

  bool GetBool(const std::string& key, bool fallback) const {
    const std::string* v = Find(key);
    if (v == nullptr) return fallback;
    return *v == "true" || *v == "1" || *v == "yes";
  }

  bool Has(const std::string& key) const { return Find(key) != nullptr; }
  const std::vector<std::string>& positional() const { return positional_; }

  // Exits with status 2, naming every flag that was passed but never asked
  // for by a getter or Has(). Call it after the last getter and before any
  // real work. An unread --help is unknown too: a binary without help text
  // refuses it instead of running its full default workload.
  void RejectUnknown() const {
    std::string unknown;
    for (const auto& entry : values_) {
      if (read_.count(entry.first) == 0) unknown += " --" + entry.first;
    }
    if (unknown.empty()) return;
    std::fprintf(stderr, "unknown flag(s):%s\n", unknown.c_str());
    std::exit(2);
  }

 private:
  // Looks `key` up and records that the program knows it.
  const std::string* Find(const std::string& key) const {
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace speedkit::tools

#endif  // SPEEDKIT_TOOLS_FLAGS_H_
