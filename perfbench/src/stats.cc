#include "stats.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailOf(std::vector<double> samples, size_t beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n <= beyond) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  // Rank r has n - 1 - r samples above it.
  const size_t rank = n - 1 - beyond;
  tail.value = samples[rank];
  tail.percentile =
      n == 1 ? 100.0
             : 100.0 * static_cast<double>(rank) /
                   static_cast<double>(n - 1);
  tail.defined = true;
  return tail;
}

std::string DescribeTail(const Tail& tail) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%sp%.1f of %zu samples",
                tail.defined ? "" : "max (too few for a tail), ",
                tail.percentile, tail.samples);
  return buf;
}

void Tally::Record(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (log_failures_ && failed_ <= 10) {
    std::fprintf(stderr, "perfbench: FAILED %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

double Tally::ok_frac() const {
  if (attempted_ == 0) return 1.0;
  return static_cast<double>(attempted_ - failed_) /
         static_cast<double>(attempted_);
}

}  // namespace perfbench
