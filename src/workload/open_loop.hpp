// Open-loop multi-tenant traffic: arrivals keep coming whether or not the
// cluster keeps up — the load shape that actually saturates a control plane
// (a closed-loop workload self-throttles: a slow namenode slows its own
// offered load). Homogeneous Poisson arrivals, Zipf-distributed file sizes,
// many concurrent clients spread round-robin across the cluster's racks.
//
// Determinism: the generator draws from its OWN RNG stream (cluster seed ^ a
// fixed salt), never from the simulation RNG, so enabling the workload or
// changing its parameters cannot shift existing chaos/fault seed timelines.
// The whole arrival schedule is materialized up front from that stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "hdfs/output_stream.hpp"

namespace smarth::workload {

struct OpenLoopConfig {
  /// Concurrent client hosts added to the cluster (round-robin over racks).
  int clients = 8;
  /// Aggregate arrival rate, jobs per simulated second (Poisson).
  double arrival_rate = 1.0;
  /// Zipf exponent for file sizes: rank k (1-based) has probability
  /// proportional to k^-s; rank k's size is min_file_size * 2^(k-1).
  double zipf_s = 1.2;
  Bytes min_file_size = 1 * kMiB;
  int size_ranks = 4;
  /// Arrivals are generated in [0, duration).
  SimDuration duration = seconds(60);
  /// After duration + grace, jobs that have produced no terminal callback
  /// are counted as stuck and the run stops. Sized past the overload retry
  /// budget so a defended cluster can drain its backlog first.
  SimDuration stuck_grace = seconds(200);
  /// Path prefix for generated files (job index is appended).
  static constexpr const char* path_prefix = "/openloop/f";
};

struct OpenLoopResult {
  int jobs = 0;        ///< arrivals offered
  int completed = 0;   ///< uploads that finished successfully
  int failed = 0;      ///< uploads that finished with a clean failure
  int stuck = 0;       ///< uploads with no terminal callback by the deadline
  Bytes bytes_offered = 0;
  Bytes bytes_completed = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  /// Completed-upload latencies (arrival to completion), seconds, in
  /// completion order.
  std::vector<double> latencies_s;
  /// Failed uploads' final stats, in completion order.
  std::vector<hdfs::StreamStats> failures;

  double goodput_mibps() const;
  /// Quantile over completed-upload latencies (0 when none completed).
  double latency_quantile(double q) const;
};

class OpenLoopWorkload {
 public:
  OpenLoopWorkload(cluster::Protocol protocol, OpenLoopConfig config);

  /// Adds the clients, schedules the precomputed arrival process, and drives
  /// the simulation until every job reports or the stuck deadline passes.
  /// May be called once per workload instance.
  OpenLoopResult run(cluster::Cluster& cluster);

 private:
  struct Arrival {
    SimDuration at = 0;  // offset from run start
    Bytes size = 0;
    std::size_t client_index = 0;
  };

  std::vector<Arrival> generate_arrivals(Rng& rng, std::size_t client_base,
                                         std::size_t client_count) const;

  cluster::Protocol protocol_;
  OpenLoopConfig config_;
  bool ran_ = false;
};

}  // namespace smarth::workload
