// Host CPU time, scaled to a nominal host by a reference kernel.
//
// On a shared virtual host the CPU time of a fixed piece of work drifts by a
// third or more within minutes: the neighbours on the host contend for its
// caches and memory, and the core clock follows the host's load. So the
// benchmark runs a short fixed reference kernel between the pieces of a
// timed interval and scales each piece's CPU time by the kernel's nominal
// time over its measured time (the mean of the samples on either side),
// raised to kHostSensitivity. The scaled sum is the CPU time the interval
// would take on a host where the kernel takes kReferenceNominalS, and two
// runs made minutes apart compare the program, not the host. The kernel
// mixes the kinds of work a sweep does: arithmetic, random reads from
// memory and from L2, and data-dependent branches.
#pragma once

namespace perfbench {

/// CPU seconds the reference kernel takes on the nominal host: about its
/// time on a quiet 2.1 GHz Xeon (Sapphire Rapids class) KVM guest core.
inline constexpr double kReferenceNominalS = 0.02;

/// How much more a sweep's CPU time moves with host load than the kernel's,
/// in log terms. Over sets of ten runs of each workload, in which the
/// kernel's time moved by up to half, the fitted exponent was 1.2 to 1.9
/// (1.35 on sim-ideal); with an exponent of 1 the scaled figures still
/// followed the host by a third of its drift.
inline constexpr double kHostSensitivity = 1.4;

/// Process CPU time (user + system, all threads), in seconds.
double process_cpu_s();

/// CPU time of one interval, measured in pieces with a reference sample
/// before the first piece, between pieces and after the last. The samples'
/// own CPU time is left out of both sums.
class NominalCpuTimer {
 public:
  /// Takes the opening sample and starts the first piece.
  NominalCpuTimer();
  // Sweep progress callbacks hold its address.
  NominalCpuTimer(const NominalCpuTimer&) = delete;
  NominalCpuTimer& operator=(const NominalCpuTimer&) = delete;

  /// Ends the current piece once it has run for at least `min_piece_s` CPU
  /// seconds: takes a sample and starts the next piece. Called between units
  /// of work (e.g. from a sweep's progress callback).
  void checkpoint(double min_piece_s);

  /// Ends the last piece with a closing sample. Call once.
  void stop();

  double raw_s() const { return raw_s_; }
  /// raw_s() scaled to the nominal host.
  double nominal_s() const { return nominal_s_; }
  /// CPU seconds of the samples taken, and their count.
  double samples_s() const { return sample_sum_; }
  int samples() const { return samples_; }

 private:
  void end_piece();

  double last_sample_s_ = 0;
  double piece_start_s_ = 0;  ///< process CPU time when the piece started.
  double raw_s_ = 0;
  double nominal_s_ = 0;
  double sample_sum_ = 0;
  int samples_ = 0;
};

}  // namespace perfbench
