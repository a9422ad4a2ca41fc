// Client-orchestrated pipeline recovery — the body of the paper's
// Algorithm 3 (and the per-pipeline step of Algorithm 4):
//   close streams / abort the pipeline at every target, probe the targets to
//   separate the dead from the living, sync all survivors to the minimum
//   durable length, obtain replacement datanodes from the namenode, copy the
//   durable prefix to each replacement through a primary survivor, and hand
//   the caller a rebuilt target list plus the resume offset.
// The caller then re-queues the un-acked packets (ACK queue -> data queue)
// and re-opens the pipeline.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "hdfs/output_stream.hpp"

namespace smarth::hdfs {

struct RecoveryOutcome {
  std::vector<NodeId> targets;  ///< survivors (pipeline order) + replacements
  Bytes sync_offset = 0;        ///< durable, packet-aligned resume offset
  /// True when the rebuilt pipeline is shorter than the replication factor
  /// (graceful degradation: the write continues; the namenode's
  /// re-replication monitor restores the count later).
  bool under_replicated = false;
};

/// Probes a datanode's replica with a client-side timeout; the callback
/// always fires exactly once (with alive=false on timeout).
void probe_replica_with_timeout(StreamDeps& deps, NodeId client_node,
                                NodeId datanode, BlockId block,
                                std::function<void(ReplicaProbeResult)> cb);

class BlockRecovery {
 public:
  using DoneCallback = std::function<void(Result<RecoveryOutcome>)>;

  /// `block_bytes` is the block's total size; the sync offset is clamped so
  /// at least the final packet is always retransmitted (the last_in_block
  /// marker must reach every target for replicas to finalize).
  /// `durable_floor` is the byte offset of the first un-acked packet: the
  /// client has dropped everything before it from its resend buffer, so a
  /// survivor whose replica is shorter has lost acked data (e.g. it crashed
  /// and restarted, discarding the in-progress replica) and must be replaced
  /// rather than allowed to pull the sync offset below what the client can
  /// still retransmit.
  BlockRecovery(StreamDeps& deps, ClientId client, NodeId client_node,
                PipelineId pipeline, BlockId block, Bytes block_bytes,
                Bytes durable_floor, std::vector<NodeId> targets,
                int error_index, DoneCallback done);

  /// Drops every callback still pending: a stream pruned mid-recovery frees
  /// its recoveries while their probe and transfer deadlines are armed.
  ~BlockRecovery() { *live_ = false; }
  BlockRecovery(const BlockRecovery&) = delete;
  BlockRecovery& operator=(const BlockRecovery&) = delete;

  /// Starts the asynchronous recovery (streams own recoveries by
  /// unique_ptr).
  void run();

 private:
  /// Wraps an asynchronous continuation so it does nothing once this
  /// recovery is destroyed.
  template <typename F>
  auto guarded(F f) {
    return [live = live_, f = std::move(f)](auto&&... args) {
      if (*live) f(std::forward<decltype(args)>(args)...);
    };
  }

  void probe_targets();
  void on_probes_done(std::vector<ReplicaProbeResult> results);
  void sync_and_replace();
  void truncate_survivors();
  void request_replacements();
  void transfer_prefix(std::size_t replacement_index);
  void finish_success();
  void fail(const std::string& reason);
  /// Adds `node` to the client's quarantine list.
  void quarantine_node(NodeId node, const std::string& reason);

  StreamDeps& deps_;
  ClientId client_;
  NodeId client_node_;
  PipelineId pipeline_;
  BlockId block_;
  Bytes block_bytes_;
  Bytes durable_floor_;
  std::vector<NodeId> original_targets_;
  int error_index_;
  DoneCallback done_;

  std::vector<NodeId> alive_;
  std::vector<NodeId> dead_;
  std::vector<NodeId> replacements_;
  Bytes sync_offset_ = 0;
  int attempts_ = 0;
  bool completed_ = false;
  /// Liveness token captured by every pending callback.
  std::shared_ptr<bool> live_ = std::make_shared<bool>(true);
};

}  // namespace smarth::hdfs
