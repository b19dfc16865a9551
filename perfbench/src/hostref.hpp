// Host-speed reference for the simulator workloads' timings.
//
// The simulator runs on one thread, and on a shared host the speed of
// that thread changes in phases that last from seconds to minutes: on
// the 4-vCPU host of NOTES.md one seed's scenario took from 0.40 to
// 1.16 s of CPU time within two minutes, with nothing else of the
// benchmark running. Neither wall
// time nor CPU time nor a median over repetitions removes such a phase.
// So the sim workloads time a fixed reference kernel after every slice
// of simulator work and scale each slice's CPU time by how fast the
// kernel ran right then: a slice that took t seconds while the kernel
// took r seconds counts as t * kReferenceNominalS / r. The kernel is the
// benchmark's own code (allocation, hash-map, heap and std::function
// churn, the kind of work the simulator's event loop does), so a change
// to the program moves the scaled time and a change of the host's speed
// largely does not.
#pragma once

#include <vector>

namespace perfbench {

/// CPU time, in seconds, of one reference-kernel run on a quiet core of
/// the host the benchmark's figures were recorded on (see NOTES.md).
/// Scaled times are seconds at that speed.
constexpr double kReferenceNominalS = 0.0025;

/// Runs the reference kernel once and returns its CPU time in seconds.
[[nodiscard]] double reference_kernel_s();

/// Sums CPU time of work slices, each scaled by the reference kernel
/// timed right after it. Keeps every reference sample.
class ScaledTimer {
 public:
  /// Call before the first slice: warms the kernel's allocations.
  void warm_up();
  /// Times the reference kernel once; later scale() calls use it.
  void sample();
  /// Adds one slice of `cpu_s` seconds of CPU time and times the
  /// reference kernel for it.
  void add_slice(double cpu_s);
  /// Scales `cpu_s` by the last reference sample without adding it.
  [[nodiscard]] double scale(double cpu_s) const;

  [[nodiscard]] double cpu_s() const { return cpu_s_; }
  [[nodiscard]] double scaled_s() const { return scaled_s_; }
  [[nodiscard]] const std::vector<double>& reference_samples() const {
    return samples_;
  }
  void reset_sums() {
    cpu_s_ = 0;
    scaled_s_ = 0;
  }

 private:
  double cpu_s_ = 0;
  double scaled_s_ = 0;
  double last_ref_s_ = kReferenceNominalS;
  std::vector<double> samples_;
};

}  // namespace perfbench
