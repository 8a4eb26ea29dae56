// vcsteer_perfbench — the repository's benchmark driver (see README.md).
//
//   vcsteer_perfbench --workload W --seed N --seconds S --trace 0|1
//                     [--pins FILE] [--spans FILE] [--work-dir DIR]
//   vcsteer_perfbench --pin W --seeds FIRST LAST [--golden-dir DIR]
//
// The first form runs one benchmark invocation and prints a report line and
// then the result line; the second prints pinned digests for the pins file.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "driver.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vcsteer_perfbench --workload W --seed N --seconds S "
               "--trace 0|1\n"
               "                         [--pins FILE] [--spans FILE] "
               "[--work-dir DIR]\n"
               "       vcsteer_perfbench --pin W --seeds FIRST LAST "
               "[--golden-dir DIR]\n"
               "workloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string pin_workload, golden_dir = "tests/golden";
  std::uint64_t first = 0, last = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    std::uint64_t n = 0;
    if (arg == "--seed") {
      if (!parse_u64(value(), &args.seed)) return usage();
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value(), &n) || n < 1 || n > 600) return usage();
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(value(), &n) || n > 1) return usage();
      args.trace = n == 1;
      have_trace = true;
    } else if (arg == "--workload" || arg == "--pins" || arg == "--spans" ||
               arg == "--work-dir" || arg == "--golden-dir" || arg == "--pin") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (arg == "--workload") args.workload = v;
      if (arg == "--pins") args.pins = v;
      if (arg == "--spans") args.spans_out = v;
      if (arg == "--work-dir") args.work_dir = v;
      if (arg == "--golden-dir") golden_dir = v;
      if (arg == "--pin") pin_workload = v;
    } else if (arg == "--seeds") {
      if (!parse_u64(value(), &first) || !parse_u64(value(), &last) ||
          last < first) {
        return usage();
      }
    } else {
      return usage();
    }
  }

  const std::string knob = perfbench::inherited_knob();
  if (!knob.empty()) {
    std::fprintf(stderr,
                 "vcsteer_perfbench: %s is set; the benchmark measures the "
                 "default code path only. Unset it and re-run.\n",
                 knob.c_str());
    return 2;
  }
  perfbench::Workload w;
  if (!pin_workload.empty()) {
    if (!perfbench::make_workload(pin_workload, &w)) return usage();
    args.workload = pin_workload;
    return perfbench::pin_digests(args, first, last, golden_dir, std::cout);
  }
  if (!perfbench::make_workload(args.workload, &w) || !have_seed ||
      !have_seconds || !have_trace) {
    return usage();
  }
  return perfbench::run_benchmark(args, std::cout);
}
