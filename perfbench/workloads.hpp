// The benchmark's workloads and the engine that runs one of them for one
// protocol on a fresh cluster: arrival generation from the workload seed,
// open-loop (or single-job) scheduling on simulated time, a read-back phase,
// correctness checks, and the per-layer counters read from each module's
// public accessors once the run ends.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "trace/trace_recorder.hpp"

namespace perfbench {

class SpanRecorder;

struct WorkloadSpec {
  std::string name;
  smarth::cluster::ClusterSpec cluster;
  double cross_rack_mbps = 0;  ///< 0: no cross-rack throttle
  /// > 0: closed loop, one upload of this size by client 0.
  smarth::Bytes bulk_file = 0;
  // Open loop (ignored when bulk_file > 0).
  int tenants = 0;             ///< client hosts added, round-robin over racks
  double arrival_rate = 0;     ///< arrivals (writes + reads) per simulated s
  double read_share = 0;       ///< arrivals that read back a completed file
  smarth::SimDuration window = 0;
  /// After the writes drain, one read per written file, open loop at
  /// arrival_rate: each completed file once, in a seeded shuffled order.
  bool read_back = false;
  /// > 0: for the read-back, one datanode on client 0's rack, chosen by the
  /// seed, has its NIC throttled to this rate (a straggler).
  double read_straggler_mbps = 0;
  /// A job with no terminal callback this long after its phase's last
  /// arrival is counted as stuck.
  smarth::SimDuration stuck_grace = smarth::seconds(200);
  /// Independent seeds per run for each protocol (HDFS, SMARTH); each
  /// simulated end-to-end metric is the median over the protocol's seeds.
  std::size_t trials[2] = {1, 1};
};

/// The named workload's configuration for `seed`; nullopt when unknown.
std::optional<WorkloadSpec> workload_spec(const std::string& name,
                                          std::uint64_t seed);

struct Arrival {
  smarth::SimDuration at = 0;  ///< offset from its phase's start
  int phase = 0;               ///< 0 = write window, 1 = read-back
  bool read = false;
  smarth::Bytes size = 0;      ///< write size (reads: set when chosen)
  std::size_t tenant = 0;      ///< index into the workload's client hosts
  /// Read: uniform draw choosing the file (read-back: the shuffle step).
  double pick = 0;
};

/// Materializes every arrival of the workload from the seed. Pure function
/// of (spec, seed).
std::vector<Arrival> generate_arrivals(const WorkloadSpec& spec,
                                       std::uint64_t seed);

struct JobRecord {
  bool read = false;
  bool skipped = false;  ///< read arrival with no completed file to read
  smarth::Bytes bytes = 0;
  smarth::SimTime scheduled = 0;
  smarth::SimTime started = 0;    ///< when the stream (or read) began
  smarth::SimTime finished = -1;  ///< -1: stuck (no terminal callback)
  bool ok = false;                ///< finished cleanly and passed checks
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ProtocolRun {
  std::vector<JobRecord> jobs;  ///< arrival order
  smarth::SimTime started_at = 0;
  smarth::SimTime writes_done_at = 0;  ///< last write completion
  std::uint64_t events = 0;
  double build_s = 0;     ///< host: cluster construction
  double generate_s = 0;  ///< host: arrival generation
  double run_s = 0;       ///< host: simulation, excluding set-up and checks
  std::uint64_t run_allocs = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> check_failures;
  /// Failed cluster-wide checks that no single job owns.
  std::size_t invariant_violations = 0;
  std::vector<Metric> layers;  ///< filled when RunOptions::collect_layers

  std::size_t attempted() const;
  std::size_t failed() const;
};

struct RunOptions {
  bool collect_layers = false;
  /// Installed for the run when non-null; its block spans feed the
  /// Formula 1-3 split.
  smarth::trace::TraceRecorder* recorder = nullptr;
  SpanRecorder* spans = nullptr;
};

ProtocolRun run_protocol(const WorkloadSpec& spec, std::uint64_t seed,
                         smarth::cluster::Protocol protocol,
                         const RunOptions& options);

/// Host seconds to build the workload's cluster and generate its arrivals
/// once, the set-up every protocol run pays.
double time_setup(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
