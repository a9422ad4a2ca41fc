// Shared plumbing for the benches: the upload size knob and the section
// header every bench prints.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "harness/experiment.hpp"
#include "metrics/report.hpp"

namespace smarth::bench {

/// File size for the single-size experiments; the paper uses 8 GB. Override
/// with SMARTH_BENCH_FILE_GB for quicker sweeps.
inline Bytes bench_file_size() {
  if (const char* env = std::getenv("SMARTH_BENCH_FILE_GB")) {
    const long gb = std::strtol(env, nullptr, 10);
    if (gb > 0) return static_cast<Bytes>(gb) * kGiB;
  }
  return 8 * kGiB;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

}  // namespace smarth::bench
