#include "host_speed.hpp"

#include <time.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;
/// Random-read table: 8 MiB, several times a core's L2 cache.
constexpr std::size_t kTableWords = std::size_t{1} << 21;
/// Its first 512 KiB, which fit in L2.
constexpr std::uint32_t kL2Mask = (1u << 17) - 1;
/// Its first 256 KiB and 64 KiB, for the branch loops.
constexpr std::uint32_t kBranchMask = (1u << 16) - 1;
constexpr std::uint32_t kShuffleMask = (1u << 14) - 1;

const std::vector<std::uint32_t>& table() {
  static const std::vector<std::uint32_t> t = [] {
    std::vector<std::uint32_t> v(kTableWords);
    std::uint64_t x = 1;
    for (std::uint32_t& e : v) {
      x = x * kLcgMul + kLcgAdd;
      e = static_cast<std::uint32_t>(x >> 33);
    }
    return v;
  }();
  return t;
}

volatile std::uint64_t g_sink;

}  // namespace

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// Runs the reference kernel once and returns the CPU seconds it took.
///
/// Six loops of a few milliseconds each. Each kind of work comes in a
/// latency-bound and a throughput-bound form, because host contention slows
/// the two differently: one arithmetic chain and six independent ones;
/// random reads that miss to memory and random reads that hit L2; a pointer
/// walk whose branches depend on the data it loads, and independent
/// unpredictable branches.
double reference_sample() {
  const std::vector<std::uint32_t>& t = table();
  const double cpu0 = process_cpu_s();
  std::uint64_t acc = 1;
  for (int k = 0; k < 1'800'000; ++k) acc = acc * 31 + (acc >> 7) + k;

  std::uint64_t a[6] = {1, 2, 3, 4, 5, 6};
  for (int k = 0; k < 900'000; ++k) {
    a[0] = a[0] * 31 + (a[0] >> 7) + k;
    a[1] = a[1] * 37 + (a[1] >> 5) + k;
    a[2] = a[2] * 41 + (a[2] >> 9) + k;
    a[3] = a[3] * 43 + (a[3] >> 3) + k;
    a[4] = a[4] * 47 + (a[4] >> 11) + k;
    a[5] = a[5] * 53 + (a[5] >> 13) + k;
  }
  acc += a[0] ^ a[1] ^ a[2] ^ a[3] ^ a[4] ^ a[5];

  std::uint64_t x = 7;
  for (int k = 0; k < 1'100'000; ++k) {
    x = x * kLcgMul + kLcgAdd;
    acc += t[(x >> 40) & (kTableWords - 1)];
  }
  for (int k = 0; k < 1'800'000; ++k) {
    x = x * kLcgMul + kLcgAdd;
    acc += t[(x >> 40) & kL2Mask];
  }

  std::uint32_t p = 0;
  for (int k = 0; k < 1'500'000; ++k) {
    const std::uint32_t v = t[p & kBranchMask];
    if (v & 1) {
      acc += v;
      p = v >> 3;
    } else if (v & 2) {
      acc ^= v;
      p += 17;
    } else {
      p = p * 5 + 1;
    }
  }
  for (std::uint32_t k = 0; k < 450'000; ++k) {
    const std::uint32_t v = t[(k * 2654435761u >> 8) & kShuffleMask];
    if (v & 1) {
      acc += v;
    } else {
      acc ^= v >> 1;
    }
    if (v & 4) acc += 3;
  }
  g_sink = acc;
  return process_cpu_s() - cpu0;
}

}  // namespace

NominalCpuTimer::NominalCpuTimer() {
  last_sample_s_ = reference_sample();
  sample_sum_ = last_sample_s_;
  samples_ = 1;
  piece_start_s_ = process_cpu_s();
}

void NominalCpuTimer::checkpoint(double min_piece_s) {
  if (process_cpu_s() - piece_start_s_ >= min_piece_s) end_piece();
}

void NominalCpuTimer::stop() { end_piece(); }

void NominalCpuTimer::end_piece() {
  const double piece = process_cpu_s() - piece_start_s_;
  const double sample = reference_sample();
  raw_s_ += piece;
  nominal_s_ += piece * std::pow(2.0 * kReferenceNominalS / (last_sample_s_ + sample),
                                 kHostSensitivity);
  last_sample_s_ = sample;
  sample_sum_ += sample;
  ++samples_;
  piece_start_s_ = process_cpu_s();
}

}  // namespace perfbench
