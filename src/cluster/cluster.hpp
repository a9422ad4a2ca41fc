// Assembles a runnable simulated HDFS/SMARTH cluster from a ClusterSpec:
// event engine, network fabric, RPC bus, namenode, datanodes, clients, and
// the message routing between them. This is the facade examples, tests and
// benches drive.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "hdfs/datanode.hpp"
#include "hdfs/dfs_client.hpp"
#include "hdfs/edit_log.hpp"
#include "hdfs/fsimage.hpp"
#include "hdfs/input_stream.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/standby.hpp"
#include "hdfs/transport.hpp"
#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/periodic_task.hpp"
#include "sim/simulation.hpp"
#include "smarth/smarth_stream.hpp"
#include "smarth/speed_tracker.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::cluster {

using Protocol = hdfs::Protocol;

const char* protocol_name(Protocol protocol);

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Accessors --------------------------------------------------------------
  sim::Simulation& sim() { return *sim_; }
  net::Network& network() { return *network_; }
  rpc::RpcBus& rpc() { return *rpc_; }
  hdfs::Namenode& namenode() { return *namenode_; }
  /// The namenode's RPC service queue when the control-plane capacity model
  /// is enabled (nn_service_model / nn_admission_control); else nullptr.
  const rpc::ServiceQueue* nn_service_queue() const {
    return nn_service_queue_.get();
  }
  const ClusterSpec& spec() const { return spec_; }
  const hdfs::HdfsConfig& config() const { return spec_.hdfs; }
  hdfs::HdfsConfig& mutable_config() { return spec_.hdfs; }

  std::size_t datanode_count() const { return datanodes_.size(); }
  hdfs::Datanode& datanode(std::size_t index);
  NodeId datanode_id(std::size_t index) const;
  std::size_t client_count() const { return clients_.size(); }
  NodeId client_node(std::size_t client_index = 0) const;
  hdfs::DfsClient& client(std::size_t client_index = 0);
  core::SpeedTracker& speed_tracker(std::size_t client_index = 0);

  /// Adds an extra client host (multi-writer scenarios). Returns its index.
  std::size_t add_client(const std::string& rack,
                         const InstanceProfile& profile);

  // --- Traffic control (the paper's tc usage) ---------------------------------
  void throttle_cross_rack(Bandwidth bw);
  void throttle_datanode(std::size_t index, Bandwidth bw);

  // --- Fault injection (scheduled by faults::FaultInjector) -------------------
  /// Writer crash: the client host vanishes — its heartbeat stops (so its
  /// lease expires), its RPC endpoint goes down, in-flight transfers from the
  /// host are severed, and every unfinished stream it owned is aborted
  /// without a complete() call. Files it was writing stay under-construction
  /// until the namenode's lease monitor recovers them.
  void crash_client(std::size_t index);
  /// The crashed host comes back (fresh process: no stream state survives).
  /// Its heartbeat resumes so a new writer on this host can hold leases.
  void restart_client(std::size_t index);
  bool client_crashed(std::size_t index) const;

  /// The quarantine list recovery feeds and placement consults, per client.
  hdfs::QuarantineList& quarantine(std::size_t client_index = 0);

  // --- Namenode crash / restart / failover ------------------------------------
  /// Control-plane loss: the namenode process dies. Monitors freeze, its RPC
  /// endpoint goes down (client calls fall into their retry backoff,
  /// heartbeats and blockReceived notifications are dropped) and its host is
  /// isolated from the fabric.
  void crash_namenode();
  /// Cold restart: boots a fresh namenode process from the latest fsimage
  /// checkpoint plus the edit-log tail. Service resumes after
  /// nn_restart_process_delay + edit_replay_op_cost * tail-ops, in safe mode
  /// until enough replicas are re-reported.
  void restart_namenode();
  /// Warm failover: promotes the standby (enable_standby() must have been
  /// called). Only the ops past the standby's tail position need replaying,
  /// so downtime is strictly below a cold restart's.
  void failover_namenode();
  bool namenode_crashed() const { return namenode_crashed_; }

  /// Brings up the warm standby: bootstraps from the active's current image
  /// and starts tailing the edit log. Idempotent.
  void enable_standby();
  bool standby_enabled() const { return standby_ != nullptr; }
  const hdfs::StandbyNamenode* standby() const { return standby_.get(); }

  hdfs::EditLog& edit_log() { return *edit_log_; }
  const hdfs::FsImageCheckpointer& checkpointer() const {
    return *checkpointer_;
  }
  /// Downtime of the most recent completed outage (-1 before the first).
  /// Every outage's downtime is also observed in namenode.downtime_ns.
  SimDuration last_namenode_downtime() const { return last_nn_downtime_; }

  /// Turns on the namenode's background re-replication of under-replicated
  /// blocks (off by default; the paper's experiments do not rely on it).
  void enable_rereplication(SimDuration scan_interval = seconds(5));

  // --- Uploads -----------------------------------------------------------------
  using UploadCallback = std::function<void(const hdfs::StreamStats&)>;
  /// Starts an asynchronous upload (create + stream). The callback fires when
  /// the stream closes (successfully or not); if create() fails, no stream
  /// is built and the callback gets failed stats. latest_stream() reaches
  /// the stream for live inspection.
  void upload(const std::string& path, Bytes size, Protocol protocol,
              UploadCallback on_done, std::size_t client_index = 0);
  /// The most recently created output stream (nullptr before the first
  /// create() response arrives); exposed for live sampling in examples.
  core::SmarthOutputStream* latest_stream() {
    return streams_.empty() ? nullptr : streams_.back().get();
  }

  /// Convenience: upload one file, run the simulation to completion, return
  /// the stream stats.
  hdfs::StreamStats run_upload(const std::string& path, Bytes size,
                               Protocol protocol,
                               std::size_t client_index = 0);

  // --- Reads -------------------------------------------------------------------
  using DownloadCallback = std::function<void(const hdfs::ReadStats&)>;
  /// Starts an asynchronous whole-file read (nearest replica per block,
  /// failover on errors). Protocol-independent: HDFS reads have no pipeline.
  /// On a crashed client the read fails ("client crashed") from an event at
  /// now(); a reader already running when its client crashes is left as is.
  void download(const std::string& path, DownloadCallback on_done,
                std::size_t client_index = 0);
  /// Convenience: read one file, run the simulation until it completes.
  hdfs::ReadStats run_download(const std::string& path,
                               std::size_t client_index = 0);

  /// Verification helper: total finalized replica bytes across all
  /// datanodes (should equal replication * file bytes after an upload).
  Bytes total_finalized_replica_bytes() const;
  /// Verification helper: every block of `path` has `replication` finalized
  /// replicas of the right length across the datanodes.
  bool file_fully_replicated(const std::string& path) const;

 private:
  struct ClientRuntime {
    NodeId node;
    std::unique_ptr<hdfs::DfsClient> dfs;
    std::unique_ptr<core::SpeedTracker> tracker;
    std::unique_ptr<hdfs::QuarantineList> quarantine;
    bool crashed = false;
  };

  hdfs::StreamDeps make_stream_deps(std::size_t client_index = 0);
  hdfs::DfsInputStream::Deps make_read_deps();
  void prune_finished_endpoints();
  void apply_placement_policy(Protocol protocol);
  hdfs::Datanode* resolve_datanode(NodeId node);
  hdfs::AckSink* resolve_ack_sink(NodeId node, PipelineId pipeline);
  hdfs::ReadSink* resolve_read_sink(NodeId node, hdfs::ReadId read);
  /// Shared tail of restart_namenode()/failover_namenode(): restores the
  /// process from `image` + `tail` and lifts the RPC/network isolation.
  void complete_namenode_recovery(const hdfs::NamenodeImage& image,
                                  const std::vector<hdfs::EditOp>& tail,
                                  bool failover);
  /// Refreshes the registry gauges that have no natural event-driven update
  /// site (the client's open pipelines, namenode liveness/backlog), called
  /// just before each flight-recorder sample.
  void update_flight_gauges();

  ClusterSpec spec_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<rpc::RpcBus> rpc_;
  std::unique_ptr<rpc::ServiceQueue> nn_service_queue_;
  std::unique_ptr<hdfs::Transport> transport_;
  std::unique_ptr<hdfs::Namenode> namenode_;
  std::unique_ptr<hdfs::EditLog> edit_log_;
  std::unique_ptr<hdfs::FsImageCheckpointer> checkpointer_;
  std::unique_ptr<hdfs::StandbyNamenode> standby_;
  bool namenode_crashed_ = false;
  SimTime nn_crashed_at_ = -1;
  SimDuration last_nn_downtime_ = -1;
  std::vector<std::unique_ptr<hdfs::Datanode>> datanodes_;
  std::vector<NodeId> datanode_ids_;
  /// Datanode by NodeId value; null for hosts that are not datanodes.
  std::vector<hdfs::Datanode*> datanode_by_node_;
  std::vector<ClientRuntime> clients_;
  std::vector<std::unique_ptr<core::SmarthOutputStream>> streams_;
  std::vector<std::unique_ptr<hdfs::DfsInputStream>> readers_;
  /// The stats of the transfers whose completion callbacks are running,
  /// innermost last. Each endpoint reports its own stats member, so this
  /// names the endpoints prune_finished_endpoints() must keep.
  std::vector<const void*> completing_;
  /// The per-transfer outcome counters, each resolved on first use.
  struct OutcomeCounters {
    metrics::Counter* uploads = nullptr;
    metrics::Counter* failed_uploads = nullptr;
    metrics::Counter* reads = nullptr;
    metrics::Counter* failed_reads = nullptr;
  };
  OutcomeCounters counters_;
  IdGenerator<PipelineId> pipeline_ids_;
  IdGenerator<ClientId> client_ids_;
  IdGenerator<hdfs::ReadId> read_ids_;
  std::optional<Protocol> active_policy_;
  /// Drives the installed flight recorder on simulated time; null when no
  /// recorder is installed, so a disabled recorder schedules nothing.
  std::unique_ptr<sim::PeriodicTask> flight_sampler_;
};

}  // namespace smarth::cluster
