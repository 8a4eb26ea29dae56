// The benchmark driver: set-up, the timed untraced repetitions, the traced
// pass and the result line. main.cpp only parses the command line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for caches and sockets (created; inside the
  /// checkout, relative to the working directory).
  std::string work_dir = ".bench_build/perfbench-run";
  /// Pinned digests, one `workload seed digest` line each; empty = none.
  std::string pins;
  /// Where the traced run writes its spans; empty = not written.
  std::string spans_out;
};

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Reported by an untraced run, on every workload.
const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by a traced run, on every workload (0 where a layer is idle).
const std::vector<MetricDef>& per_layer_metrics();

/// Environment knobs that change which code path the library takes. The
/// benchmark refuses to run while any is set, so an inherited setting can
/// never silently change the measured path. Returns the first one set, or
/// an empty string.
std::string inherited_knob();

/// Runs one benchmark invocation. Prints a one-line JSON report (every
/// figure the run measured, digests included) and then the result line
///   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// to `out`. Returns the process exit code: 0 when every output check
/// passed, 1 otherwise.
int run_benchmark(const Args& args, std::ostream& out);

/// Prints `workload seed digest` for args.workload and every seed in
/// [first, last] (one untraced, checked sweep each), for the pins file. For
/// sim-ideal at seed 0 the rendered results must equal
/// tests/golden/<grid>.json under `golden_dir`, which anchors the digest
/// derivation. Returns the exit code.
int pin_digests(Args args, std::uint64_t first, std::uint64_t last,
                const std::string& golden_dir, std::ostream& out);

}  // namespace perfbench
