// zlb_perfbench: runs one workload of the repository benchmark and
// prints what it measured.
//
//   zlb_perfbench --workload <live_light|sim_scale|sim_attack>
//                 --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Output: one "details" JSON line (sample counts, failed checks, build
// info), then one result line with `correct`, `attempted`, `failed` and
// every metric the pass measured, each with its unit. perfbench/run.py
// selects the end-to-end or per-layer set from BENCHMARK.json.
//
// --trace 1 runs the workload twice with the same seed: an untraced
// pass, then a traced one that records spans, replays the recorded
// inputs layer by layer and reads the program's own series. Its
// metrics are the traced pass's, plus obs.trace_overhead_frac: the
// relative change of the headline end-to-end metric between the two.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_INFO
#define PERFBENCH_BUILD_INFO "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Result;
using perfbench::SpanLog;

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      return false;
    }
  }
  return have_workload && (argc % 2) == 1 && opt.seconds > 0;
}

Result run_once(const Options& opt, SpanLog& spans) {
  if (opt.workload == "live_light") return perfbench::run_live_light(opt, spans);
  if (opt.workload == "sim_scale") return perfbench::run_sim_scale(opt, spans);
  if (opt.workload == "sim_attack") return perfbench::run_sim_attack(opt, spans);
  throw std::invalid_argument("unknown workload " + opt.workload);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print(const Options& opt, const Result& r) {
  std::printf("{\"details\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"build\": \"%s\"",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, PERFBENCH_BUILD_INFO);
  for (const auto& [k, v] : r.details) {
    std::printf(", \"%s\": \"%s\"", k.c_str(), json_escape(v).c_str());
  }
  std::printf(", \"failed_checks\": [");
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(r.failed_checks[i]).c_str());
  }
  std::printf("]}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: zlb_perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
      return 2;
    }
    std::filesystem::create_directories(opt.work_dir);
    if (!opt.trace) {
      SpanLog discard;
      print(opt, run_once(opt, discard));
      return 0;
    }

    Options plain = opt;
    plain.trace = false;
    SpanLog discard;
    const Result base = run_once(plain, discard);
    SpanLog spans;
    Result traced = run_once(opt, spans);

    const char* headline =
        opt.workload.rfind("live_", 0) == 0 ? "commit_p50_ms" : "sim_wall_s";
    const double before = base.metrics.at(headline).value;
    const double after = traced.metrics.at(headline).value;
    traced.set("obs.trace_overhead_frac",
               before > 0 ? after / before - 1.0 : 0.0, "ratio");
    traced.correct = traced.correct && base.correct;
    for (const auto& c : base.failed_checks) {
      traced.failed_checks.push_back("untraced pass: " + c);
    }
    const std::string span_file = opt.work_dir + "/spans-" + opt.workload +
                                  "-" + std::to_string(opt.seed) + ".jsonl";
    traced.details["spans"] = std::to_string(spans.spans().size());
    traced.details["span_file"] =
        spans.write_jsonl(span_file) ? span_file : "unwritable";
    print(opt, traced);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zlb_perfbench: %s\n", e.what());
    return 1;
  }
}
