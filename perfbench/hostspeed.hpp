// Host-speed probes for the benchmark's end-to-end times.
//
// On a shared host the speed available to the benchmark drifts by tens of
// percent over minutes, with every run of the program moving together: the
// fixture build, the traced interpreter and the reflash path alike. No
// statistic taken inside one run removes that. Two fixed probes, compiled
// here and independent of the simulator's code, are timed between the
// benchmark's batches instead:
//
//   compute: an integer loop over a 32 KiB table (stays in the L1 cache);
//   memory:  random read-modify-writes over a 16 MiB buffer.
//
// slowdown() is the geometric mean of their median costs over their costs
// on the reference host. Dividing a time by it, or multiplying a rate by
// it, gives the figure the reference host would have shown. A change to the
// simulator moves the raw figures and leaves the probes where they were.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Bytes the memory probe keeps resident for the life of the object.
  static constexpr std::size_t kBufferBytes = std::size_t{16} << 20;

  HostSpeed();

  /// Times each probe three times.
  void sample();

  /// Median cost of one probe step, in nanoseconds; 0 before any sample.
  double compute_ns() const;
  double memory_ns() const;

  /// Host slowdown against the reference host: 1 there, 1.3 on a host
  /// 30% slower. 1 before any sample.
  double slowdown() const;

 private:
  std::vector<std::uint32_t> table_;
  std::vector<std::uint32_t> buffer_;
  std::vector<double> compute_ns_;
  std::vector<double> memory_ns_;
};

}  // namespace perfbench
