#include "hdfs/recovery.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "common/log.hpp"

namespace smarth::hdfs {

void probe_replica_with_timeout(StreamDeps& deps, NodeId client_node,
                                NodeId datanode, BlockId block,
                                std::function<void(ReplicaProbeResult)> cb) {
  Datanode* dn = deps.datanode_resolver(datanode);
  if (dn == nullptr) {
    deps.sim.schedule_now("recovery.probe_reply", [cb = std::move(cb)] {
      cb(ReplicaProbeResult{});
    });
    return;
  }
  rpc::call_with_deadline<ReplicaProbeResult>(
      deps.rpc, deps.sim, client_node, datanode,
      [dn, block] { return dn->probe_replica(block); },
      deps.config.probe_timeout, "recovery.probe_timeout",
      ReplicaProbeResult{} /* alive=false */, std::move(cb));
}

BlockRecovery::BlockRecovery(StreamDeps& deps, ClientId client,
                             NodeId client_node, PipelineId pipeline,
                             BlockId block, Bytes block_bytes,
                             Bytes durable_floor, std::vector<NodeId> targets,
                             int error_index, DoneCallback done)
    : deps_(deps), client_(client), client_node_(client_node),
      pipeline_(pipeline), block_(block), block_bytes_(block_bytes),
      durable_floor_(durable_floor), original_targets_(std::move(targets)),
      error_index_(error_index), done_(std::move(done)) {}

void BlockRecovery::run() {
  SMARTH_INFO("recovery") << "recovering " << block_.to_string() << " ("
                          << original_targets_.size() << " targets, error_index="
                          << error_index_ << ")";
  // Step 1 (Alg. 3 line 2): close all streams related to the block — abort
  // the pipeline at every target. Best effort: dead nodes drop the message.
  for (NodeId target : original_targets_) {
    Datanode* dn = deps_.datanode_resolver(target);
    if (dn == nullptr) continue;
    deps_.rpc.notify(client_node_, target,
                     [dn, p = pipeline_] { dn->abort_pipeline(p); });
  }
  probe_targets();
}

void BlockRecovery::probe_targets() {
  struct Gather {
    std::vector<ReplicaProbeResult> results;
    std::size_t remaining;
  };
  auto gather = std::make_shared<Gather>();
  gather->results.resize(original_targets_.size());
  gather->remaining = original_targets_.size();

  for (std::size_t i = 0; i < original_targets_.size(); ++i) {
    probe_replica_with_timeout(
        deps_, client_node_, original_targets_[i], block_,
        guarded([this, gather, i](ReplicaProbeResult result) {
          gather->results[i] = result;
          if (--gather->remaining == 0) {
            on_probes_done(std::move(gather->results));
          }
        }));
  }
}

void BlockRecovery::on_probes_done(std::vector<ReplicaProbeResult> results) {
  alive_.clear();
  dead_.clear();
  for (std::size_t i = 0; i < original_targets_.size(); ++i) {
    const bool checksum_bad = static_cast<int>(i) == error_index_;
    // A replica shorter than the durable floor has lost acked bytes — the
    // node crashed and restarted, dropping the in-progress replica. The
    // client no longer buffers those packets, so such a node cannot resync;
    // it is replaced like a dead one (the durable prefix is re-copied from a
    // healthy survivor).
    const Bytes len = results[i].has_replica ? results[i].bytes : 0;
    const bool stale = results[i].alive && len < durable_floor_;
    if (results[i].alive && !checksum_bad && !stale) {
      alive_.push_back(original_targets_[i]);
    } else {
      dead_.push_back(original_targets_[i]);
      quarantine_node(original_targets_[i],
                      checksum_bad ? "checksum error"
                      : stale      ? "stale replica lost acked bytes"
                                   : "probe unresponsive");
    }
  }
  if (alive_.empty()) {
    fail("no surviving replica for " + block_.to_string());
    return;
  }
  // Survivors double as prefix-transfer primaries (tried in order), so move
  // namenode-suspected gray nodes to the back: seeding a replacement through
  // a throttled NIC can take longer than the outage it repairs. Advisory
  // read of the control plane — a real namenode would ship these hints with
  // getAdditionalDatanodes; excluding nobody keeps the no-healthy-survivor
  // case working.
  const SimTime now = deps_.sim.now();
  std::stable_partition(alive_.begin(), alive_.end(), [this, now](NodeId n) {
    return !deps_.namenode.suspicion().suspect(n, now);
  });
  // Sync point: the minimum durable length among survivors, aligned down to
  // a packet boundary so retransmission can restart at a packet edge.
  Bytes min_len = -1;
  for (std::size_t i = 0; i < original_targets_.size(); ++i) {
    if (std::find(alive_.begin(), alive_.end(), original_targets_[i]) ==
        alive_.end()) {
      continue;
    }
    const Bytes len = results[i].has_replica ? results[i].bytes : 0;
    if (min_len < 0 || len < min_len) min_len = len;
  }
  const Bytes packet = deps_.config.transfer_payload();
  sync_offset_ = (min_len / packet) * packet;
  // Always leave at least the last packet to retransmit: its last_in_block
  // marker is what lets the rebuilt pipeline finalize the replicas.
  const Bytes last_packet_start = ((block_bytes_ - 1) / packet) * packet;
  sync_offset_ = std::min(sync_offset_, last_packet_start);
  truncate_survivors();
}

void BlockRecovery::truncate_survivors() {
  struct Gather {
    std::size_t remaining;
    std::vector<NodeId> failed;
  };
  auto gather = std::make_shared<Gather>();
  gather->remaining = alive_.size();

  auto step_done = guarded([this, gather](NodeId node, bool ok) {
    if (!ok) gather->failed.push_back(node);
    if (--gather->remaining == 0) {
      for (NodeId bad : gather->failed) {
        alive_.erase(std::remove(alive_.begin(), alive_.end(), bad),
                     alive_.end());
        dead_.push_back(bad);
        quarantine_node(bad, "truncate failed");
      }
      if (alive_.empty()) {
        fail("all survivors lost during truncate");
        return;
      }
      request_replacements();
    }
  });

  for (NodeId node : alive_) {
    Datanode* dn = deps_.datanode_resolver(node);
    if (dn == nullptr) {
      deps_.sim.schedule_now("recovery.truncate_skip", [node, step_done] {
        step_done(node, false);
      });
      continue;
    }
    rpc::call_with_deadline<bool>(
        deps_.rpc, deps_.sim, client_node_, node,
        [dn, block = block_, offset = sync_offset_] {
          return dn->truncate_replica(block, offset).ok();
        },
        deps_.config.probe_timeout, "recovery.truncate_timeout", false,
        [node, step_done](bool ok) { step_done(node, ok); });
  }
}

void BlockRecovery::request_replacements() {
  const int needed =
      deps_.config.replication - static_cast<int>(alive_.size());
  if (needed <= 0) {
    finish_success();
    return;
  }
  std::vector<NodeId> excluded = dead_;
  std::vector<NodeId> deprioritized = deps_.quarantine.active();

  rpc::call_with_retry<Result<std::vector<NodeId>>>(
      deps_.rpc, deps_.sim, namenode_retry_policy(deps_.config), client_node_,
      deps_.namenode.node_id(),
      [&nn = deps_.namenode, block = block_, client = client_,
       node = client_node_, alive = alive_, excluded = std::move(excluded),
       deprioritized = std::move(deprioritized), needed] {
        return nn.get_additional_datanodes(block, client, node, alive,
                                           excluded, needed, deprioritized);
      },
      guarded([this](Result<std::vector<NodeId>> result) {
        if (!result.ok() || result.value().empty()) {
          // No spare nodes: continue with the reduced pipeline, as HDFS does
          // when the cluster cannot restore replication during a write.
          SMARTH_WARN("recovery")
              << "no replacement datanodes for " << block_.to_string()
              << "; continuing under-replicated";
          finish_success();
          return;
        }
        replacements_ = result.value();
        transfer_prefix(0);
      }),
      guarded([this] {
        // Namenode unreachable even after backoff: keep the surviving
        // pipeline rather than killing the write.
        SMARTH_WARN("recovery")
            << "getAdditionalDatanodes timed out for " << block_.to_string()
            << "; continuing under-replicated";
        finish_success();
      }),
      "getAdditionalDatanodes");
}

void BlockRecovery::transfer_prefix(std::size_t replacement_index) {
  if (replacement_index >= replacements_.size()) {
    finish_success();
    return;
  }
  if (sync_offset_ == 0) {
    // Nothing durable yet; replacements start clean but still need their
    // replica created — the new pipeline setup handles that.
    transfer_prefix(replacement_index + 1);
    return;
  }
  // Alg. 3's primary-datanode loop: try survivors in order until one
  // successfully seeds the replacement. If every primary fails the
  // replacement itself is suspect (e.g. it sits behind a partition): drop it
  // and continue under-replicated — the namenode's re-replication monitor
  // repairs the count later.
  if (attempts_ >= static_cast<int>(alive_.size())) {
    SMARTH_WARN("recovery") << "dropping unreachable replacement for "
                            << block_.to_string();
    attempts_ = 0;
    replacements_.erase(replacements_.begin() +
                        static_cast<std::ptrdiff_t>(replacement_index));
    transfer_prefix(replacement_index);
    return;
  }
  const NodeId primary = alive_[static_cast<std::size_t>(attempts_)];
  Datanode* primary_dn = deps_.datanode_resolver(primary);
  const NodeId dest = replacements_[replacement_index];
  if (primary_dn == nullptr) {
    ++attempts_;
    transfer_prefix(replacement_index);
    return;
  }
  // The copy can be swallowed whole by a partition, so it carries its own
  // deadline; whichever of {response, deadline} settles first wins.
  rpc::call_with_deadline<bool>(
      deps_.rpc, deps_.sim, client_node_, primary,
      [primary_dn, block = block_, dest, offset = sync_offset_](
          std::function<void(bool)> respond) {
        primary_dn->transfer_replica(block, dest, offset, std::move(respond));
      },
      deps_.config.replacement_transfer_timeout, "recovery.transfer_timeout",
      false, guarded([this, replacement_index](bool ok) {
        if (!ok) {
          ++attempts_;
          transfer_prefix(replacement_index);
          return;
        }
        attempts_ = 0;
        transfer_prefix(replacement_index + 1);
      }));
}

void BlockRecovery::finish_success() {
  SMARTH_CHECK(!completed_);
  completed_ = true;
  RecoveryOutcome outcome;
  outcome.targets = alive_;
  outcome.targets.insert(outcome.targets.end(), replacements_.begin(),
                         replacements_.end());
  outcome.sync_offset = sync_offset_;
  outcome.under_replicated =
      static_cast<int>(outcome.targets.size()) < deps_.config.replication;
  Namenode& nn = deps_.namenode;
  deps_.rpc.notify(client_node_, nn.node_id(),
                   [&nn, block = block_, targets = outcome.targets] {
                     (void)nn.update_block_targets(block, targets);
                   });
  SMARTH_INFO("recovery") << block_.to_string() << " recovered: "
                          << outcome.targets.size() << " targets, resume at "
                          << outcome.sync_offset;
  // The done callback may destroy this object; detach it first.
  DoneCallback done = std::move(done_);
  done(std::move(outcome));
}

void BlockRecovery::quarantine_node(NodeId node, const std::string& reason) {
  deps_.quarantine.quarantine(node,
                              reason + " during recovery of " +
                                  block_.to_string());
}

void BlockRecovery::fail(const std::string& reason) {
  SMARTH_CHECK(!completed_);
  completed_ = true;
  SMARTH_ERROR("recovery") << reason;
  DoneCallback done = std::move(done_);
  done(Error{"recovery_failed", reason});
}

}  // namespace smarth::hdfs
