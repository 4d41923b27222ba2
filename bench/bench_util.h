// Shared output helpers for the experiment harnesses. Every fig_*/tbl_*
// binary prints aligned tables with a header block naming the experiment
// and the paper claim it reproduces, so bench_output.txt reads as a
// self-contained lab notebook.
#ifndef SPEEDKIT_BENCH_BENCH_UTIL_H_
#define SPEEDKIT_BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace speedkit::bench {

inline void PrintHeader(const std::string& id, const std::string& title,
                        const std::string& reproduces) {
  std::printf("\n");
  std::printf("================================================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("reproduces: %s\n", reproduces.c_str());
  std::printf("================================================================================\n");
}

inline void PrintSection(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

// Prints one table row from printf-style args.
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void Note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

// Resolves the --json flag value for a harness named `name`: a bare
// `--json` picks the conventional BENCH_<name>.json, `--json=<path>`
// overrides, absent flag disables (empty string).
inline std::string JsonPathFromFlag(const std::string& flag_value,
                                    const std::string& name) {
  if (flag_value.empty()) return "";
  if (flag_value == "true") return "BENCH_" + name + ".json";
  return flag_value;
}

}  // namespace speedkit::bench

#endif  // SPEEDKIT_BENCH_BENCH_UTIL_H_
