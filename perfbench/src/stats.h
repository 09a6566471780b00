#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics and failure accounting shared by every workload.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty vector.
double Median(std::vector<double> samples);

/// A tail percentile chosen by rank: the highest one that still has at
/// least `beyond` samples strictly above its rank, so it is never read
/// off a handful of outliers.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * rank / (samples - 1)
  size_t samples = 0;
  /// False when there are no more than `beyond` samples; value and
  /// percentile then fall back to the maximum (percentile 100).
  bool defined = false;
};

inline constexpr size_t kTailBeyond = 10;

Tail TailOf(std::vector<double> samples, size_t beyond = kTailBeyond);

/// "p54.5 of 23 samples" — the statement that goes with a tail value.
std::string DescribeTail(const Tail& tail);

/// Counts attempted operations and failures, output checks included.
/// The first few failures are logged to stderr by name.
class Tally {
 public:
  explicit Tally(bool log_failures = true) : log_failures_(log_failures) {}

  /// One attempted operation; `ok` false counts it as failed.
  void Record(bool ok, std::string_view what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Succeeded / attempted; 1 when nothing was attempted.
  double ok_frac() const;

 private:
  bool log_failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
