#include "smarth/smarth_stream.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "hdfs/recovery.hpp"
#include "smarth/local_optimizer.hpp"

namespace smarth::core {

using hdfs::ClientPipeline;
using hdfs::LocatedBlock;
using hdfs::PipelineAck;
using hdfs::RecoveryOutcome;
using hdfs::SetupAck;

SmarthOutputStream::SmarthOutputStream(hdfs::StreamDeps deps,
                                       hdfs::Protocol protocol,
                                       ClientId client, NodeId client_node,
                                       FileId file, Bytes file_size,
                                       SpeedTracker& tracker,
                                       DoneCallback on_done)
    : OutputStreamBase(std::move(deps), client, client_node, file, file_size,
                       std::move(on_done)),
      tracker_(tracker),
      fnfa_(protocol == hdfs::Protocol::kSmarth),
      window_(static_cast<std::size_t>(
          fnfa_ ? deps_.config.transfers_per_block()
                : deps_.config.max_outstanding_transfers())),
      window_counts_in_flight_(!fnfa_),
      local_opt_(fnfa_ && deps_.config.smarth_local_opt) {
  for (std::int64_t b = 0; b < total_blocks(); ++b) {
    total_packets_ += packets_in_block(b);
  }
}

void SmarthOutputStream::start() {
  begin_upload();
  pump_production();
  advance_block();
}

bool SmarthOutputStream::production_window_open() const {
  // SMARTH may produce one block ahead of the wire; its pipelines hold their
  // own in-flight state.
  std::size_t buffered = data_queue_.size();
  if (window_counts_in_flight_) {
    for (const auto& [id, p] : pipelines_) {
      buffered += p.pending.size() + p.ack_queue.size();
    }
  }
  return buffered < window_;
}

void SmarthOutputStream::pump_production() {
  if (!producer_armed_) produce_loop();
}

void SmarthOutputStream::produce_loop() {
  if (finished_ || produced_packets_ >= total_packets_ ||
      !production_window_open()) {
    producer_armed_ = false;
    return;
  }
  producer_armed_ = true;
  const SimDuration production_time = deps_.config.transfer_production_time(
      packet_payload(produce_block_, produce_seq_));
  producer_event_ =
      deps_.sim.schedule_after(production_time, "client.produce", [this] {
    if (finished_) {
      producer_armed_ = false;
      return;
    }
    hdfs::ProducedPacket packet;
    packet.block_index = produce_block_;
    packet.seq_in_block = produce_seq_;
    packet.payload = packet_payload(produce_block_, produce_seq_);
    packet.last_in_block = produce_seq_ + 1 == packets_in_block(produce_block_);
    if (packet.last_in_block) {
      ++produce_block_;
      produce_seq_ = 0;
    } else {
      ++produce_seq_;
    }
    data_queue_.push_back(packet);
    ++produced_packets_;
    ++stats_.packets;
    pump_stream();
    producer_armed_ = false;
    produce_loop();
  });
}

std::vector<NodeId> SmarthOutputStream::active_pipeline_nodes() const {
  std::vector<NodeId> nodes;
  for (const auto& [id, p] : pipelines_) {
    nodes.insert(nodes.end(), p.targets.begin(), p.targets.end());
  }
  return nodes;
}

void SmarthOutputStream::advance_block() {
  if (finished_ || awaiting_block_ || !error_pipelines_.empty()) return;
  // The protocol's pacing rule: the next block may start only once the
  // current block is fully held by its first datanode (FNFA). HDFS never
  // gets one, so its next block waits for the last ACK to complete (and
  // clear) the streaming pipeline. This guard also makes post-recovery
  // advance calls safe — a resumed streaming pipeline blocks further dispatch
  // until its own FNFA arrives.
  if (ClientPipeline* s = find_pipeline(streaming_); s != nullptr && !s->fnfa) {
    return;
  }
  if (next_block_ >= total_blocks()) {
    // Every block is dispatched; close the file once the last one drains.
    if (pipelines_.empty()) complete_file();
    return;
  }
  // The buffer-overflow guard (§IV-C): a datanode already serving one of this
  // client's pipelines may not join another, which caps concurrent pipelines
  // at |datanodes| / replication.
  std::vector<NodeId> excluded;
  if (deps_.config.enforce_pipeline_cap) excluded = active_pipeline_nodes();

  awaiting_block_ = true;
  request_block(next_block_, std::move(excluded),
                [this](Result<LocatedBlock> result) {
    if (finished_) return;
    awaiting_block_ = false;
    if (!result.ok()) {
      if (result.error().code == "insufficient_datanodes" &&
          !pipelines_.empty()) {
        // Every eligible datanode is busy in one of our pipelines: wait for a
        // pipeline to drain, then retry (the guard working as intended).
        ++slot_waits_;
        return;
      }
      if (result.error().code == "safe_mode" && start_safe_mode_wait()) {
        // Restarted namenode still rebuilding its replica map; poll until it
        // leaves safe mode (budgeted). next_block_ was not advanced, so
        // advance_block() retries the same allocation.
        safe_mode_retry_ = deps_.sim.schedule_after(
            deps_.config.safe_mode_retry_interval, [this] { advance_block(); });
        return;
      }
      if (result.error().code == "overloaded" && start_overload_wait()) {
        // Admission control shed the allocation even after RPC backoff;
        // re-poll at the overload cadence (budgeted, same retry shape).
        safe_mode_retry_ = deps_.sim.schedule_after(
            deps_.config.overload_retry_interval, [this] { advance_block(); });
        return;
      }
      finish(true, "addBlock failed: " + result.error().to_string());
      return;
    }
    LocatedBlock located = result.value();
    if (local_opt_) {
      located.targets = local_optimize(std::move(located.targets), tracker_,
                                       deps_.sim.rng(),
                                       deps_.config.local_opt_threshold)
                            .targets;
    }
    SMARTH_DEBUG("stream") << "addBlock -> " << located.block.to_string()
                           << " (block index " << next_block_ << ", "
                           << pipelines_.size() << " pipelines already live)";
    ClientPipeline& pipeline = create_pipeline(
        next_block_, located, /*resume_offset=*/0, /*smarth_mode=*/fnfa_);
    streaming_ = pipeline.id;
    ++next_block_;
    arm_watchdog(pipeline);
  });
}

void SmarthOutputStream::pump_stream() {
  if (finished_ || !error_pipelines_.empty()) return;  // Alg. 4: paused

  const auto window_open = [this](const ClientPipeline& p) {
    return p.ack_queue.size() < window_;
  };

  // Recovered pipelines retransmit their backlog first.
  for (auto& [id, p] : pipelines_) {
    if (!p.ready || p.failed) continue;
    while (!p.pending.empty() && window_open(p)) {
      send_next_packet(p);
      arm_watchdog(p);
    }
  }
  // Fresh data flows into the streaming pipeline.
  ClientPipeline* p = find_pipeline(streaming_);
  if (p != nullptr && p->ready && !p->failed) {
    while (!data_queue_.empty() &&
           data_queue_.front().block_index == p->block_index &&
           window_open(*p)) {
      p->pending.push_back(data_queue_.front());
      data_queue_.pop_front();
      send_next_packet(*p);
      arm_watchdog(*p);
    }
  }
  pump_production();
}

void SmarthOutputStream::arm_watchdog(ClientPipeline& pipeline) {
  pipeline.watchdog.cancel();
  if (finished_ || pipeline.failed) return;
  const PipelineId id = pipeline.id;
  pipeline.watchdog =
      deps_.sim.schedule_after(deps_.config.ack_timeout, [this, id] {
        ClientPipeline* p = find_pipeline(id);
        if (p == nullptr || p->failed || p->complete() || finished_) return;
        // A ready pipeline with nothing outstanding is merely idle; one that
        // never became ready, or has un-acked traffic, has stalled.
        if (p->ready && p->ack_queue.empty() && p->pending.empty()) return;
        SMARTH_WARN("stream") << "ack timeout on pipeline " << id.to_string();
        on_pipeline_error(*p, -1);
      });
}

void SmarthOutputStream::deliver_setup_ack(const SetupAck& ack) {
  ClientPipeline* pipeline = find_pipeline(ack.pipeline);
  if (pipeline == nullptr || finished_ || pipeline->failed) return;
  if (!ack.success) {
    on_pipeline_error(*pipeline, ack.error_index);
    return;
  }
  pipeline->ready = true;
  trace_pipeline_ready(*pipeline);
  SMARTH_DEBUG("stream") << "pipeline " << ack.pipeline.to_string()
                         << " ready";
  arm_watchdog(*pipeline);
  pump_stream();
}

void SmarthOutputStream::deliver_fnfa(const hdfs::FnfaMessage& fnfa) {
  ClientPipeline* pipeline = find_pipeline(fnfa.pipeline);
  if (pipeline == nullptr || finished_ || pipeline->failed) return;
  if (pipeline->fnfa) return;
  pipeline->fnfa = true;
  pipeline->fnfa_at = deps_.sim.now();
  ++fnfa_received_;
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kPipeline, trace_track(pipeline->block_index),
        "FNFA",
        {{"block", fnfa.block.to_string()},
         {"pipeline", fnfa.pipeline.to_string()},
         {"first_node", pipeline->targets[0].to_string()}});
  }
  // The client's speed record for this first datanode: whole-block bytes over
  // first-packet-sent -> FNFA (network + the node's storage path).
  if (pipeline->first_packet_sent >= 0) {
    tracker_.record(pipeline->targets[0],
                    pipeline->block_bytes - pipeline->resume_offset,
                    pipeline->fnfa_at - pipeline->first_packet_sent,
                    deps_.sim.now());
  }
  SMARTH_DEBUG("stream") << "FNFA for " << fnfa.block.to_string()
                         << "; advancing while replicas drain";
  // The heart of SMARTH: the first node holds the whole block, so the client
  // moves on to the next block without waiting for the replica ACKs.
  if (fnfa.pipeline == streaming_) advance_block();
}

void SmarthOutputStream::deliver_ack(const PipelineAck& ack) {
  if (finished_) return;
  ClientPipeline* pipeline = find_pipeline(ack.pipeline);
  if (pipeline == nullptr || pipeline->failed) return;
  if (ack.status != hdfs::AckStatus::kSuccess) {
    on_pipeline_error(*pipeline, ack.error_index);
    return;
  }
  if (pipeline->ack_queue.empty() ||
      pipeline->ack_queue.front().seq_in_block != ack.seq) {
    // An ack ahead of the queue head means an earlier ack was lost in
    // transit (a link flap or crash swallowed it): the ack stream is broken,
    // which is a pipeline error, not a protocol violation. Acks behind the
    // head are stale duplicates and are dropped.
    if (!pipeline->ack_queue.empty() &&
        ack.seq > pipeline->ack_queue.front().seq_in_block) {
      SMARTH_WARN("stream") << "ack gap on pipeline "
                            << ack.pipeline.to_string() << ": got seq "
                            << ack.seq << ", expected "
                            << pipeline->ack_queue.front().seq_in_block;
      on_pipeline_error(*pipeline, -1);
    }
    return;
  }
  bytes_acked_counter_->add(
      static_cast<std::uint64_t>(pipeline->ack_queue.front().payload));
  pipeline->ack_queue.pop_front();
  ++pipeline->acked_packets;
  arm_watchdog(*pipeline);
  if (pipeline->complete()) {
    on_pipeline_complete(ack.pipeline);
    return;
  }
  // Per-pipeline eviction: a mid-block straggler in *this* pipeline is
  // replaced immediately, riding the normal error path (recovery excludes
  // the node at error_index, splices in a replacement and transfers the
  // prefix); the speed reports keep steering the global optimizer away from
  // it for future blocks.
  if (const int slow = maybe_evict_slow_node(*pipeline); slow >= 0) {
    on_pipeline_error(*pipeline, slow);
    return;
  }
  pump_stream();
}

void SmarthOutputStream::on_pipeline_complete(PipelineId id) {
  ClientPipeline* pipeline = find_pipeline(id);
  SMARTH_CHECK(pipeline != nullptr);
  trace_pipeline_closed(*pipeline, "complete");
  pipeline->watchdog.cancel();
  if (streaming_ == id) streaming_ = PipelineId{};
  pipelines_.erase(id);
  // Completion frees a fan-out slot and is HDFS's advance trigger. For
  // single-replica SMARTH pipelines, where the final ACK can beat the FNFA
  // message, it also implies the first datanode holds the whole block.
  // advance_block()'s FNFA guard keeps this a no-op whenever dispatching
  // would be premature.
  advance_block();
  pump_stream();
}

void SmarthOutputStream::on_pipeline_error(ClientPipeline& pipeline,
                                           int error_index) {
  if (finished_ || pipeline.failed) return;
  if (recovery_budget_exhausted(pipeline.block)) {
    finish(true, "recovery budget exhausted for " +
                     pipeline.block.to_string());
    return;
  }
  SMARTH_WARN("stream") << "pipeline " << pipeline.id.to_string()
                        << " failed (error_index=" << error_index << ")";
  // Algorithm 4 lines 1-3: stop the current block transfer, move the ACK
  // queue back to the (re)send queue, and put the pipeline in the error set.
  trace_pipeline_closed(pipeline, "error");
  pipeline.failed = true;
  pipeline.watchdog.cancel();
  ++stats_.recoveries;
  metrics::global_registry().counter("write.recoveries").add();
  note_recovery_start(pipeline.id);
  pipeline.pending.insert(pipeline.pending.begin(),
                          pipeline.ack_queue.begin(),
                          pipeline.ack_queue.end());
  pipeline.ack_queue.clear();
  error_pipelines_.insert(pipeline.id);
  pipeline_error_index_[pipeline.id] = error_index;
  recover_next_error_pipeline();
}

void SmarthOutputStream::recover_next_error_pipeline() {
  if (recovery_running_ || error_pipelines_.empty() || finished_) return;
  recovery_running_ = true;
  const PipelineId id = *error_pipelines_.begin();
  ClientPipeline* pipeline = find_pipeline(id);
  SMARTH_CHECK(pipeline != nullptr);
  int error_index = -1;
  if (auto it = pipeline_error_index_.find(id);
      it != pipeline_error_index_.end()) {
    error_index = it->second;
    pipeline_error_index_.erase(it);
  }

  // Everything before the first un-acked packet is gone from the client's
  // resend buffer; recovery must not sync survivors below that offset.
  const Bytes durable_floor =
      pipeline->pending.empty()
          ? Bytes{0}
          : pipeline->pending.front().seq_in_block *
                deps_.config.transfer_payload();
  auto recovery = std::make_unique<hdfs::BlockRecovery>(
      deps_, client_, client_node_, id, pipeline->block,
      pipeline->block_bytes, durable_floor, pipeline->targets, error_index,
      [this, id](Result<RecoveryOutcome> result) {
        if (finished_) return;  // aborted (writer crash) mid-recovery
        recovery_running_ = false;
        error_pipelines_.erase(id);
        note_recovery_end(id);
        if (!result.ok()) {
          finish(true, result.error().to_string());
          return;
        }
        if (result.value().under_replicated) {
          metrics::global_registry()
              .counter("write.under_replication_events")
              .add();
        }
        resume_recovered_pipeline(id, result.value().targets,
                                  result.value().sync_offset);
        // Algorithm 4 lines 3-6: drain the rest of the error set, then line 7:
        // the interrupted transfer restarts. The rebuilt pipeline streams once
        // its setup is acked; any other live pipeline resumes now.
        recover_next_error_pipeline();
        if (error_pipelines_.empty()) {
          if (pipelines_.size() > 1) pump_stream();
          advance_block();
        }
      });
  hdfs::BlockRecovery* raw = recovery.get();
  recoveries_.push_back(std::move(recovery));
  raw->run();
}

void SmarthOutputStream::resume_recovered_pipeline(PipelineId old_id,
                                                   std::vector<NodeId> targets,
                                                   Bytes sync_offset) {
  ClientPipeline* old_pipeline = find_pipeline(old_id);
  SMARTH_CHECK(old_pipeline != nullptr);
  const std::int64_t resume_packets =
      sync_offset / deps_.config.transfer_payload();
  // Packets already durable everywhere are dropped from the resend queue.
  std::deque<hdfs::ProducedPacket> pending = std::move(old_pipeline->pending);
  while (!pending.empty() && pending.front().seq_in_block < resume_packets) {
    pending.pop_front();
  }
  const std::int64_t block_index = old_pipeline->block_index;
  LocatedBlock located{old_pipeline->block, std::move(targets)};
  const bool was_streaming = streaming_ == old_id;
  pipelines_.erase(old_id);

  ClientPipeline& fresh = create_pipeline(block_index, located, sync_offset,
                                          /*smarth_mode=*/fnfa_);
  fresh.pending = std::move(pending);
  if (was_streaming) streaming_ = fresh.id;
  SMARTH_DEBUG("stream") << "resumed " << old_id.to_string() << " as "
                         << fresh.id.to_string() << " pending="
                         << fresh.pending.size() << " resume=" << sync_offset;
  arm_watchdog(fresh);
}

}  // namespace smarth::core
