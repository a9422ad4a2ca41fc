#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace perfbench {
namespace {
// Written with the kernel's result so the loop cannot be optimized away.
volatile std::uint64_t g_sink = 0;
}  // namespace

double calibration_kernel_s() {
  constexpr std::size_t kSlots = std::size_t{1} << 20;  // 8 MiB of uint64
  constexpr std::uint32_t kEntries = 1u << 16;
  constexpr int kSteps = 200'000;
  static std::vector<std::uint64_t> table(kSlots, 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Entry> heap;
  heap.reserve(kEntries);
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    heap.push_back({next() % 1'000'000, i});
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());

  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const Entry e = heap.back();
    heap.pop_back();
    std::uint64_t& slot = table[(next() ^ e.second) & (kSlots - 1)];
    slot += e.first;
    sum += slot;
    heap.push_back({e.first + 1 + x % 10'000, e.second});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  g_sink = sum;
  return s;
}

}  // namespace perfbench
