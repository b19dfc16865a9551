#include "hostref.hpp"

#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_kernel_s() {
  const std::int64_t c0 = process_cpu_ns();
  std::uint64_t x = 7;
  std::uint64_t sum = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> table;
  std::priority_queue<std::pair<std::uint64_t, int>,
                      std::vector<std::pair<std::uint64_t, int>>,
                      std::greater<>>
      queue;
  std::vector<std::function<void()>> pending;
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t key = splitmix(x) % 4096;
    auto& bytes = table[key];
    bytes.assign(48 + (key & 127), static_cast<std::uint8_t>(i));
    queue.emplace(splitmix(x) % 100000, i);
    if (queue.size() > 512) {
      sum += static_cast<std::uint64_t>(queue.top().second);
      queue.pop();
    }
    auto copy = std::make_shared<std::vector<std::uint8_t>>(bytes);
    pending.emplace_back([copy, &sum] { sum += copy->size(); });
    if (pending.size() > 64) {
      for (auto& f : pending) f();
      pending.clear();
    }
  }
  g_sink = sum;
  return static_cast<double>(process_cpu_ns() - c0) * 1e-9;
}

void ScaledTimer::warm_up() {
  for (int i = 0; i < 5; ++i) last_ref_s_ = reference_kernel_s();
}

void ScaledTimer::sample() {
  last_ref_s_ = reference_kernel_s();
  samples_.push_back(last_ref_s_);
}

void ScaledTimer::add_slice(double cpu_s) {
  sample();
  cpu_s_ += cpu_s;
  scaled_s_ += scale(cpu_s);
}

double ScaledTimer::scale(double cpu_s) const {
  return last_ref_s_ > 0 ? cpu_s * kReferenceNominalS / last_ref_s_ : cpu_s;
}

}  // namespace perfbench
