// The DFS client host: identity, create()/complete() control-plane calls and
// the client-side heartbeat that — in SMARTH mode — piggybacks transfer-speed
// records to the namenode every three seconds (paper §III-B).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/types.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/periodic_task.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {

class DfsClient {
 public:
  DfsClient(sim::Simulation& sim, rpc::RpcBus& rpc, Namenode& namenode,
            const HdfsConfig& config, ClientId id, NodeId node);
  ~DfsClient();

  ClientId id() const { return id_; }
  NodeId node() const { return node_; }

  /// A rebooted host runs a *fresh* DFS client process. HDFS ties leases to
  /// the client name, so the new process must not renew the dead process's
  /// leases — give it a new identity and let the old leases expire on
  /// schedule (the lease monitor then recovers any files left behind).
  void reincarnate(ClientId id) { id_ = id; }

  /// create() RPC (paper §II step 1): namespace checks then file creation.
  /// Retries with exponential backoff when the namenode is unreachable.
  /// A `recovery_in_progress` answer (previous writer's lease expired, file
  /// being recovered) is retried once per lease-monitor round until the
  /// recovery completes; with `overwrite` the recovered file is then
  /// replaced (writer takeover).
  void create_file(const std::string& path,
                   std::function<void(Result<FileId>)> cb,
                   bool overwrite = false);

  /// Starts the periodic heartbeat. `speed_source` (may be null) supplies
  /// the transfer-speed records to piggyback; an empty vector sends a plain
  /// heartbeat.
  void start_heartbeat(
      std::function<std::vector<SpeedRecord>()> speed_source);
  void stop_heartbeat();
  /// Restarts a previously stopped heartbeat (client restart after a crash).
  void resume_heartbeat();
  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }

 private:
  void create_file_attempt(const std::string& path,
                           std::function<void(Result<FileId>)> cb,
                           bool overwrite, SimTime started_at);

  sim::Simulation& sim_;
  rpc::RpcBus& rpc_;
  Namenode& namenode_;
  const HdfsConfig& config_;
  ClientId id_;
  NodeId node_;
  std::function<std::vector<SpeedRecord>()> speed_source_;
  std::unique_ptr<sim::PeriodicTask> heartbeat_;
  std::uint64_t heartbeats_sent_ = 0;
};

}  // namespace smarth::hdfs
