#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "ledger.h"

namespace ledger {

namespace {
std::string g_broken_oracle;
}  // namespace

void SetBrokenOracle(const std::string& name) { g_broken_oracle = name; }

int64_t Expect(int64_t v, const char* oracle) {
  return g_broken_oracle == oracle ? v + 1 : v;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ResidentMb() {
  // statm: total program size, then resident pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  return sorted[std::min(index, sorted.size() - 1)];
}

double HistogramDeltaPercentile(const caddb::obs::HistogramSnapshot& before,
                                const caddb::obs::HistogramSnapshot& after,
                                double q) {
  caddb::obs::HistogramSnapshot delta = after;
  if (before.counts.size() == after.counts.size()) {
    for (size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= before.counts[i];
    }
    delta.count -= before.count;
    delta.sum -= before.sum;
  }
  return delta.Percentile(q);
}

caddb::obs::HistogramSnapshot HistogramOf(caddb::obs::Observability* obs,
                                          const std::string& name) {
  return obs->metrics.GetHistogram(name)->Snapshot();
}

uint64_t CounterOf(caddb::obs::Observability* obs, const std::string& name) {
  return obs->metrics.GetCounter(name)->value();
}

void Record(Outcome* out, bool call_ok, bool value_ok,
            const std::string& what) {
  ++out->attempted;
  if (call_ok && value_ok) return;
  ++out->failed;
  if (call_ok) ++out->mismatches;
  if (out->failed <= 5) {
    std::cerr << (call_ok ? "mismatch: " : "error: ") << what << "\n";
  }
}

}  // namespace ledger
