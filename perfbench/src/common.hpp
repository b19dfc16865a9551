// Shared plumbing of the repository benchmark: run options, the result
// sink every workload fills (metrics by name with their unit, the
// correctness verdict, attempted/failed counts), order statistics, the
// in-memory span log of traced runs, and process probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double secs_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for per-run scratch files:
  /// journals, checkpoint images and written-out span logs.
  std::string work_dir = ".bench_build/perfbench-work";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one pass of a workload produced. End-to-end and per-layer
/// metrics land in the same map; perfbench/run.py selects the set the
/// run mode prints.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable details (sample counts, tail quantiles), printed on
  /// their own line before the result.
  std::map<std::string, std::string> details;
  std::vector<std::string> failed_checks;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failed_checks.push_back(what);
    }
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0
/// for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// CPU time this process has used so far, in ns. Unlike wall time it
/// leaves out the time the host gave the CPU to someone else.
[[nodiscard]] std::int64_t process_cpu_ns();

/// Traced runs only: spans recorded by the benchmark around its calls
/// into each layer, kept in memory and written out when the run ends.
/// A span's `trace` groups the spans of one request (one transaction)
/// and `parent` names the span that caused it (0 = root). A span that
/// sums many calls timed one by one (single signatures) starts at 0 and
/// lasts their total.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t count = 0;  ///< work items covered (0 = not counted)
  };

  void reserve(std::size_t n) { spans_.reserve(n); }
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t trace, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t count = 0) {
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(
        Span{id, parent, trace, std::move(name), start_ns, end_ns, count});
    return id;
  }
  /// Sets the end of a span opened with end_ns = 0 (a request span
  /// whose children are recorded before it completes).
  void close(std::uint64_t id, std::int64_t end_ns) {
    spans_.at(id - 1).end_ns = end_ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line. False when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
