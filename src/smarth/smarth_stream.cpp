#include "smarth/smarth_stream.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "smarth/local_optimizer.hpp"

namespace smarth::core {
namespace {

/// The per-block track name concurrent pipelines render under.
std::string trace_track(std::int64_t block_index) {
  return "block " + std::to_string(block_index);
}

}  // namespace

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
    : deps_(std::move(deps)), client_(client), client_node_(client_node),
      file_(file), file_size_(file_size), tracker_(tracker),
      on_done_(std::move(on_done)),
      fnfa_(protocol == hdfs::Protocol::kSmarth),
      window_(static_cast<std::size_t>(
          fnfa_ ? deps_.config.transfers_per_block()
                : deps_.config.max_outstanding_transfers())),
      window_counts_in_flight_(!fnfa_),
      local_opt_(fnfa_ && deps_.config.smarth_local_opt) {
  SMARTH_CHECK_MSG(file_size_ > 0, "cannot upload an empty file");
  stats_.client = client_;
  stats_.file_size = file_size_;
  stats_.blocks = total_blocks();
  bytes_acked_counter_ = &metrics::global_registry().counter("client.bytes_acked");
  for (std::int64_t b = 0; b < total_blocks(); ++b) {
    total_packets_ += packets_in_block(b);
  }
}

SmarthOutputStream::~SmarthOutputStream() { *alive_ = false; }

void SmarthOutputStream::start() {
  stats_.started_at = deps_.sim.now();
  metrics::global_registry().gauge("client.streams_open").add(1.0);
  counted_open_ = true;
  if (trace::active()) {
    upload_span_ = trace::recorder()->begin_span(
        trace::Category::kRun, "client", "upload",
        {{"client", client_.to_string()},
         {"file", file_.to_string()},
         {"bytes", std::to_string(file_size_)},
         {"blocks", std::to_string(total_blocks())}});
  }
  pump_production();
  advance_block();
}

// --- Geometry -----------------------------------------------------------------

std::int64_t SmarthOutputStream::total_blocks() const {
  return (file_size_ + deps_.config.block_size - 1) / deps_.config.block_size;
}

Bytes SmarthOutputStream::block_bytes(std::int64_t block_index) const {
  const Bytes start = block_index * deps_.config.block_size;
  SMARTH_DCHECK(start < file_size_);
  return std::min(deps_.config.block_size, file_size_ - start);
}

// Stream geometry is expressed in transfer units (== packets in packet
// fidelity, coalesced multi-packet units in block fidelity); `seq` fields
// index transfer units within a block.
std::int64_t SmarthOutputStream::packets_in_block(
    std::int64_t block_index) const {
  const Bytes unit = deps_.config.transfer_payload();
  const Bytes bytes = block_bytes(block_index);
  return (bytes + unit - 1) / unit;
}

Bytes SmarthOutputStream::packet_payload(std::int64_t block_index,
                                         std::int64_t seq) const {
  const Bytes unit = deps_.config.transfer_payload();
  const Bytes remaining = block_bytes(block_index) - seq * unit;
  SMARTH_DCHECK(remaining > 0);
  return std::min(unit, remaining);
}

// --- Production ---------------------------------------------------------------

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

// --- Block dispatch -----------------------------------------------------------

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
  request_block(std::move(excluded));
}

void SmarthOutputStream::request_block(std::vector<NodeId> excluded) {
  hdfs::Namenode& nn = deps_.namenode;
  trace::SpanHandle alloc_span;
  if (trace::active()) {
    alloc_span = trace::recorder()->begin_span(
        trace::Category::kBlock, trace_track(next_block_), "allocate",
        {{"block_index", std::to_string(next_block_)},
         {"client", client_.to_string()}});
  }
  // Both ends of the call, a response or the retry chain giving up, land
  // here: the client-observed addBlock latency (whole retry chain, success
  // or error; the saturation study's headline tail-latency series) and the
  // allocate span are recorded even for a stream pruned meanwhile.
  auto allocated = [this, alive = alive_, &sim = deps_.sim, alloc_span,
                    issued_at = deps_.sim.now()](
                       Result<LocatedBlock> result) mutable {
    metrics::global_registry()
        .histogram("client.addblock_ns")
        .observe(static_cast<double>(sim.now() - issued_at));
    if (trace::active()) {
      trace::Args outcome;
      if (result.ok()) {
        outcome = {{"ok", "true"},
                   {"block", result.value().block.to_string()}};
      } else if (result.error().code == "rpc_timeout") {
        outcome = {{"ok", "timeout"}};
      } else {
        outcome = {{"ok", "false"}, {"block", ""}};
      }
      trace::recorder()->end_span(alloc_span, std::move(outcome));
    }
    if (*alive) on_block_allocated(std::move(result));
  };
  hdfs::call_namenode<LocatedBlock>(
      deps_.rpc, deps_.sim, deps_.config, client_node_, nn.node_id(),
      [&nn, file = file_, client = client_, node = client_node_,
       excluded = std::move(excluded),
       deprioritized = deps_.quarantine.active(), block_index = next_block_] {
        return nn.add_block(file, client, node, excluded, deprioritized,
                            block_index);
      },
      allocated,
      [allocated]() mutable {
        allocated(Error{"rpc_timeout",
                        "addBlock gave up after repeated timeouts"});
      },
      "addBlock", {rpc::ServiceClass::kAddBlock, client_.value()});
}

void SmarthOutputStream::on_block_allocated(Result<LocatedBlock> result) {
  if (finished_) return;
  awaiting_block_ = false;
  if (!result.ok()) {
    const std::string& code = result.error().code;
    if (code == "insufficient_datanodes" && !pipelines_.empty()) {
      // Every eligible datanode is busy in one of our pipelines: wait for a
      // pipeline to drain, then retry (the guard working as intended).
      ++slot_waits_;
      return;
    }
    if (code == "safe_mode" &&
        keep_waiting(safe_mode_wait_started_,
                     deps_.config.safe_mode_retry_budget,
                     "namenode still in safe mode")) {
      // Restarted namenode still rebuilding its replica map; poll until it
      // leaves safe mode (budgeted). next_block_ was not advanced, so
      // advance_block() retries the same allocation.
      allocate_retry_ = deps_.sim.schedule_after(
          deps_.config.safe_mode_retry_interval, "client.safe_mode_retry",
          [this] { advance_block(); });
      return;
    }
    if (code == "overloaded" &&
        keep_waiting(overload_wait_started_,
                     deps_.config.overload_retry_budget,
                     "namenode still shedding our calls")) {
      // Admission control shed the allocation even after RPC backoff;
      // re-poll at the overload cadence (budgeted, same retry shape).
      allocate_retry_ = deps_.sim.schedule_after(
          deps_.config.overload_retry_interval, "client.overload_retry",
          [this] { advance_block(); });
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
  ClientPipeline& pipeline =
      create_pipeline(next_block_, located, /*resume_offset=*/0);
  streaming_ = pipeline.id;
  ++next_block_;
  arm_watchdog(pipeline);
}

ClientPipeline& SmarthOutputStream::create_pipeline(
    std::int64_t block_index, const LocatedBlock& located,
    Bytes resume_offset) {
  const PipelineId id = deps_.pipeline_ids.next();
  ClientPipeline pipeline;
  pipeline.id = id;
  pipeline.block_index = block_index;
  pipeline.block = located.block;
  pipeline.targets = located.targets;
  pipeline.block_bytes = block_bytes(block_index);
  pipeline.num_packets = packets_in_block(block_index);
  pipeline.resume_offset = resume_offset;
  pipeline.resume_packets = resume_offset / deps_.config.transfer_payload();
  pipeline.created_at = deps_.sim.now();

  if (deps_.config.slow_node_eviction) {
    pipeline.ack_baselines.reserve(located.targets.size());
    for (NodeId target : located.targets) {
      ClientPipeline::AckBaseline base;
      if (const auto* hist = metrics::global_registry().find_histogram(
              "datanode." + target.to_string() + ".ack_ns")) {
        const auto stats = hist->stats();
        base.sum = stats.sum();
        base.count = stats.count();
      }
      pipeline.ack_baselines.push_back(base);
    }
  }

  auto [it, inserted] = pipelines_.emplace(id, std::move(pipeline));
  SMARTH_CHECK(inserted);
  safe_mode_wait_started_ = -1;  // allocation landed; safe-mode wait is over
  overload_wait_started_ = -1;   // ...and so is any overload wait
  ++stats_.pipelines_created;
  stats_.max_concurrent_pipelines =
      std::max(stats_.max_concurrent_pipelines,
               static_cast<int>(pipelines_.size()));

  hdfs::PipelineSetup setup;
  setup.pipeline = id;
  setup.block = located.block;
  setup.targets = located.targets;
  setup.client_node = client_node_;
  setup.client = client_;
  setup.smarth_mode = fnfa_;
  setup.resume_offset = resume_offset;
  setup.block_bytes = it->second.block_bytes;
  SMARTH_CHECK_MSG(!located.targets.empty(), "pipeline with no targets");
  if (trace::active()) {
    std::string targets;
    for (NodeId t : located.targets) {
      if (!targets.empty()) targets += "+";
      targets += t.to_string();
    }
    it->second.span_setup = trace::recorder()->begin_span(
        trace::Category::kBlock, trace_track(block_index), "setup",
        {{"block_index", std::to_string(block_index)},
         {"block", located.block.to_string()},
         {"pipeline", id.to_string()},
         {"targets", targets},
         {"resume_offset", std::to_string(resume_offset)}});
  }
  deps_.transport.send_setup(client_node_, located.targets[0], setup);
  return it->second;
}

// --- Streaming ----------------------------------------------------------------

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

void SmarthOutputStream::send_next_packet(ClientPipeline& pipeline) {
  SMARTH_CHECK(!pipeline.pending.empty());
  hdfs::ProducedPacket produced = pipeline.pending.front();
  pipeline.pending.pop_front();

  hdfs::WirePacket wire;
  wire.pipeline = pipeline.id;
  wire.block = pipeline.block;
  wire.seq = produced.seq_in_block;
  wire.payload = produced.payload;
  wire.last_in_block = produced.last_in_block;
  if (pipeline.first_packet_sent < 0) {
    pipeline.first_packet_sent = deps_.sim.now();
  }
  deps_.transport.send_packet(client_node_, pipeline.targets[0], wire);
  pipeline.ack_queue.push_back(produced);
  // All of the block's packets are on the wire: the remaining wait is the
  // pipeline draining its ACKs (the tail-ACK phase of the lifecycle).
  if (trace::active() && pipeline.span_stream.valid() &&
      pipeline.pending.empty() &&
      pipeline.acked_packets +
              static_cast<std::int64_t>(pipeline.ack_queue.size()) >=
          pipeline.packets_since_resume()) {
    trace::recorder()->end_span(pipeline.span_stream);
    pipeline.span_tail = trace::recorder()->begin_span(
        trace::Category::kBlock, trace_track(pipeline.block_index), "tail-ack",
        {{"block_index", std::to_string(pipeline.block_index)},
         {"block", pipeline.block.to_string()},
         {"pipeline", pipeline.id.to_string()}});
  }
}

void SmarthOutputStream::arm_watchdog(ClientPipeline& pipeline) {
  pipeline.watchdog.cancel();
  if (finished_ || pipeline.failed) return;
  const PipelineId id = pipeline.id;
  pipeline.watchdog = deps_.sim.schedule_after(
      deps_.config.ack_timeout, "client.ack_timeout", [this, id] {
        ClientPipeline* p = find_pipeline(id);
        if (p == nullptr || p->failed || p->complete() || finished_) return;
        // A ready pipeline with nothing outstanding is merely idle; one that
        // never became ready, or has un-acked traffic, has stalled.
        if (p->ready && p->ack_queue.empty() && p->pending.empty()) return;
        SMARTH_WARN("stream") << "ack timeout on pipeline " << id.to_string();
        on_pipeline_error(*p, -1);
      });
}

ClientPipeline* SmarthOutputStream::find_pipeline(PipelineId id) {
  auto it = pipelines_.find(id);
  return it == pipelines_.end() ? nullptr : &it->second;
}

// --- AckSink ------------------------------------------------------------------

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

// --- Completion ---------------------------------------------------------------

void SmarthOutputStream::complete_file() {
  if (finished_) return;
  hdfs::Namenode& nn = deps_.namenode;
  hdfs::call_namenode<bool>(
      deps_.rpc, deps_.sim, deps_.config, client_node_, nn.node_id(),
      [&nn, file = file_, client = client_] {
        return nn.complete(file, client);
      },
      [this, alive = alive_](Result<bool> result) {
        if (!*alive || finished_) return;
        if (!result.ok()) {
          if (result.error().code == "overloaded" &&
              keep_waiting(overload_wait_started_,
                           deps_.config.overload_retry_budget,
                           "namenode still shedding our calls")) {
            // Shed even after RPC-level backoff: keep polling under the
            // overload budget rather than abandoning a fully-written file.
            complete_retry_ = deps_.sim.schedule_after(
                deps_.config.overload_retry_interval,
                "client.overload_retry", [this] { complete_file(); });
            return;
          }
          finish(true, result.error().to_string());
          return;
        }
        if (result.value()) {
          finish(false, "");
          return;
        }
        // Not all blocks reported yet: blockReceived is still in flight, or
        // a restarted namenode is in safe mode, which ends within
        // safe_mode_max_wait. Retry, as the Hadoop client does, and past
        // that plus the client's safe-mode budget give up: a block that
        // lost every replica never reports.
        if (!keep_waiting(complete_wait_started_,
                          deps_.config.safe_mode_max_wait +
                              deps_.config.safe_mode_retry_budget,
                          "complete() still pending")) {
          finish(true, "complete() still pending after " +
                           format_duration(deps_.sim.now() -
                                           complete_wait_started_) +
                           ": a block has no reported replica");
          return;
        }
        complete_retry_ =
            deps_.sim.schedule_after(milliseconds(300), "client.complete_retry",
                                     [this] { complete_file(); });
      },
      [this, alive = alive_] {
        if (!*alive || finished_) return;
        finish(true, "complete() timed out after repeated attempts");
      },
      "complete", {rpc::ServiceClass::kMeta});
}

bool SmarthOutputStream::keep_waiting(SimTime& started, SimDuration budget,
                                      const char* what) {
  const SimTime now = deps_.sim.now();
  if (started < 0) started = now;
  if (now - started <= budget) return true;
  SMARTH_ERROR("stream") << what << " after " << to_seconds(now - started)
                         << "s; giving up";
  return false;
}

void SmarthOutputStream::finish(bool failed, const std::string& reason) {
  if (finished_) return;
  finished_ = true;
  if (counted_open_) {
    metrics::global_registry().gauge("client.streams_open").add(-1.0);
    counted_open_ = false;
  }
  stats_.finished_at = deps_.sim.now();
  stats_.failed = failed;
  stats_.failure_reason = reason;
  producer_event_.cancel();
  complete_retry_.cancel();
  allocate_retry_.cancel();
  for (auto& [id, pipeline] : pipelines_) {
    pipeline.watchdog.cancel();
    trace_pipeline_closed(pipeline, failed ? "aborted" : "complete");
  }
  if (trace::active()) {
    trace::recorder()->end_span(
        upload_span_, {{"failed", failed ? "true" : "false"},
                       {"reason", reason},
                       {"recoveries", std::to_string(stats_.recoveries)}});
  }
  if (failed) {
    SMARTH_ERROR("stream") << "upload failed: " << reason;
  }
  if (on_done_) on_done_(stats_);
}

void SmarthOutputStream::abort(const std::string& reason) {
  finish(true, reason);
}

// --- Recovery (Algorithm 4) -----------------------------------------------------

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
  note_recovery_start(pipeline);
  pipeline.pending.insert(pipeline.pending.begin(),
                          pipeline.ack_queue.begin(),
                          pipeline.ack_queue.end());
  pipeline.ack_queue.clear();
  error_pipelines_.insert(pipeline.id);
  pipeline.error_index = error_index;
  recover_next_error_pipeline();
}

void SmarthOutputStream::recover_next_error_pipeline() {
  if (recovery_running_ || error_pipelines_.empty() || finished_) return;
  recovery_running_ = true;
  const PipelineId id = *error_pipelines_.begin();
  ClientPipeline* pipeline = find_pipeline(id);
  SMARTH_CHECK(pipeline != nullptr);

  // Everything the pipeline has had acked is gone from the client's resend
  // buffer; recovery must not sync survivors below that offset, even when
  // nothing is left pending.
  const Bytes durable_floor =
      (pipeline->resume_packets + pipeline->acked_packets) *
      deps_.config.transfer_payload();
  auto recovery = std::make_unique<hdfs::BlockRecovery>(
      deps_, client_, client_node_, id, pipeline->block,
      pipeline->block_bytes, durable_floor, pipeline->targets,
      pipeline->error_index,
      [this, id](Result<RecoveryOutcome> result) {
        if (finished_) return;  // aborted (writer crash) mid-recovery
        recovery_running_ = false;
        error_pipelines_.erase(id);
        ClientPipeline* recovered = find_pipeline(id);
        SMARTH_CHECK(recovered != nullptr);
        note_recovery_end(*recovered);
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

  ClientPipeline& fresh = create_pipeline(block_index, located, sync_offset);
  fresh.pending = std::move(pending);
  if (was_streaming) streaming_ = fresh.id;
  SMARTH_DEBUG("stream") << "resumed " << old_id.to_string() << " as "
                         << fresh.id.to_string() << " pending="
                         << fresh.pending.size() << " resume=" << sync_offset;
  arm_watchdog(fresh);
}

bool SmarthOutputStream::recovery_budget_exhausted(BlockId block) {
  const int attempts = ++recovery_attempts_[block.value()];
  if (attempts <= deps_.config.recovery_attempts_per_block) return false;
  SMARTH_ERROR("stream") << "recovery budget ("
                         << deps_.config.recovery_attempts_per_block
                         << ") exhausted for " << block.to_string();
  return true;
}

void SmarthOutputStream::note_recovery_start(ClientPipeline& pipeline) {
  pipeline.recovery_started = deps_.sim.now();
  if (trace::active()) {
    pipeline.span_recovery = trace::recorder()->begin_span(
        trace::Category::kRecovery, trace_track(pipeline.block_index),
        "recovery",
        {{"pipeline", pipeline.id.to_string()},
         {"block_index", std::to_string(pipeline.block_index)},
         {"block", pipeline.block.to_string()}});
  }
}

void SmarthOutputStream::note_recovery_end(ClientPipeline& pipeline) {
  const SimDuration took = deps_.sim.now() - pipeline.recovery_started;
  pipeline.recovery_started = -1;
  metrics::global_registry()
      .histogram("stream.recovery_ns")
      .observe(static_cast<double>(took));
  if (trace::active()) trace::recorder()->end_span(pipeline.span_recovery);
}

// --- Slow-node eviction -----------------------------------------------------------

int SmarthOutputStream::find_slow_pipeline_node(
    const ClientPipeline& pipeline) const {
  if (pipeline.ack_baselines.size() != pipeline.targets.size() ||
      pipeline.targets.size() < 2) {
    return -1;
  }
  // Windowed mean ack latency per member: this pipeline's delta against the
  // creation-time baseline of each node's histogram.
  std::vector<double> means(pipeline.targets.size(), 0.0);
  for (std::size_t i = 0; i < pipeline.targets.size(); ++i) {
    const auto* hist = metrics::global_registry().find_histogram(
        "datanode." + pipeline.targets[i].to_string() + ".ack_ns");
    if (hist == nullptr) return -1;
    const auto stats = hist->stats();
    const auto window_count = stats.count() - pipeline.ack_baselines[i].count;
    if (window_count < deps_.config.eviction_min_samples) return -1;
    means[i] = (stats.sum() - pipeline.ack_baselines[i].sum) /
               static_cast<double>(window_count);
  }
  // A node's ack latency includes the time it waited for its downstream
  // neighbour's ack, so segment i (the difference of adjacent means; the
  // tail's is its raw mean) isolates node i's write + the i -> i+1 hop.
  std::vector<double> own(means.size(), 0.0);
  for (std::size_t i = 0; i + 1 < means.size(); ++i) {
    own[i] = std::max(0.0, means[i] - means[i + 1]);
  }
  own.back() = std::max(0.0, means.back());
  std::vector<double> sorted = own;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  if (median <= 0.0) return -1;
  const double bound = deps_.config.eviction_outlier_factor * median;
  std::size_t worst = 0;
  for (std::size_t i = 1; i < own.size(); ++i) {
    if (own[i] > own[worst]) worst = i;
  }
  if (own[worst] <= bound) return -1;
  // Segment `worst` straddles two nodes: node `worst`'s disk/egress and node
  // `worst + 1`'s ingress NIC both land in it (a slow ingress NIC makes the
  // upstream neighbour queue, so the wait is charged upstream). When the next
  // segment is also elevated the shared node (`worst + 1`) is poisoning both
  // — blame it, not its innocent upstream neighbour. The elevation test for
  // that next segment must exclude BOTH implicated segments from its
  // baseline: with replication 3 and a mid-pipeline straggler, two of the
  // three segments are inflated, so the plain median is itself inflated and
  // would mask the culprit.
  if (worst + 1 < own.size()) {
    std::vector<double> rest;
    for (std::size_t i = 0; i < own.size(); ++i) {
      if (i != worst && i != worst + 1) rest.push_back(own[i]);
    }
    if (!rest.empty()) {
      std::sort(rest.begin(), rest.end());
      const double peer_baseline = rest[rest.size() / 2];
      if (peer_baseline > 0.0 &&
          own[worst + 1] >
              deps_.config.eviction_outlier_factor * peer_baseline) {
        return static_cast<int>(worst + 1);
      }
    }
  }
  return static_cast<int>(worst);
}

int SmarthOutputStream::maybe_evict_slow_node(ClientPipeline& pipeline) {
  if (!deps_.config.slow_node_eviction || finished_ || pipeline.failed) {
    return -1;
  }
  const SimTime now = deps_.sim.now();
  if (last_eviction_at_ >= 0 &&
      now - last_eviction_at_ < deps_.config.eviction_cooldown) {
    return -1;
  }
  const int slow_index = find_slow_pipeline_node(pipeline);
  if (slow_index < 0) return -1;
  const NodeId slow = pipeline.targets[static_cast<std::size_t>(slow_index)];
  last_eviction_at_ = now;
  metrics::global_registry().counter("write.slow_evictions").add();
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kRecovery, "stream", "slow node evicted",
        {{"pipeline", pipeline.id.to_string()},
         {"node", slow.to_string()},
         {"index", std::to_string(slow_index)}});
  }
  SMARTH_WARN("stream") << "pipeline " << pipeline.id.to_string()
                        << ": datanode " << slow.to_string()
                        << " is a mid-block straggler; evicting";
  hdfs::Namenode& nn = deps_.namenode;
  deps_.rpc.notify(client_node_, nn.node_id(),
                   [&nn, slow,
                    weight = deps_.config.suspicion_eviction_weight] {
                     nn.report_slow_datanode(slow, weight);
                   });
  return slow_index;
}

// --- Trace instrumentation --------------------------------------------------------

void SmarthOutputStream::trace_pipeline_ready(ClientPipeline& pipeline) {
  if (!trace::active()) return;
  trace::recorder()->end_span(pipeline.span_setup);
  pipeline.span_stream = trace::recorder()->begin_span(
      trace::Category::kBlock, trace_track(pipeline.block_index), "stream",
      {{"block_index", std::to_string(pipeline.block_index)},
       {"block", pipeline.block.to_string()},
       {"pipeline", pipeline.id.to_string()}});
}

void SmarthOutputStream::trace_pipeline_closed(ClientPipeline& pipeline,
                                               const char* outcome) {
  if (!trace::active()) return;
  trace::Args extra = {{"outcome", outcome}};
  trace::recorder()->end_span(pipeline.span_setup, extra);
  trace::recorder()->end_span(pipeline.span_stream, extra);
  trace::recorder()->end_span(pipeline.span_tail, extra);
  trace::recorder()->end_span(pipeline.span_recovery, extra);
}

}  // namespace smarth::core
