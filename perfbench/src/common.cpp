#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
