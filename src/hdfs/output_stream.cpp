#include "hdfs/output_stream.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "hdfs/recovery.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::hdfs {

OutputStreamBase::OutputStreamBase(StreamDeps deps, ClientId client,
                                   NodeId client_node, FileId file,
                                   Bytes file_size, DoneCallback on_done)
    : deps_(std::move(deps)), client_(client), client_node_(client_node),
      file_(file), file_size_(file_size), on_done_(std::move(on_done)) {
  SMARTH_CHECK_MSG(file_size_ > 0, "cannot upload an empty file");
  stats_.client = client_;
  stats_.file_size = file_size_;
  stats_.blocks = total_blocks();
  bytes_acked_counter_ = &metrics::global_registry().counter("client.bytes_acked");
}

OutputStreamBase::~OutputStreamBase() { *alive_ = false; }

void OutputStreamBase::begin_upload() {
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
}

std::string OutputStreamBase::trace_track(std::int64_t block_index) {
  return "block " + std::to_string(block_index);
}

void OutputStreamBase::trace_pipeline_ready(ClientPipeline& pipeline) {
  if (!trace::active()) return;
  trace::recorder()->end_span(pipeline.span_setup);
  pipeline.span_stream = trace::recorder()->begin_span(
      trace::Category::kBlock, trace_track(pipeline.block_index), "stream",
      {{"block_index", std::to_string(pipeline.block_index)},
       {"block", pipeline.block.to_string()},
       {"pipeline", pipeline.id.to_string()}});
}

void OutputStreamBase::trace_pipeline_closed(ClientPipeline& pipeline,
                                             const char* outcome) {
  if (!trace::active()) return;
  trace::Args extra = {{"outcome", outcome}};
  trace::recorder()->end_span(pipeline.span_setup, extra);
  trace::recorder()->end_span(pipeline.span_stream, extra);
  trace::recorder()->end_span(pipeline.span_tail, extra);
}

std::int64_t OutputStreamBase::total_blocks() const {
  return (file_size_ + deps_.config.block_size - 1) / deps_.config.block_size;
}

Bytes OutputStreamBase::block_bytes(std::int64_t block_index) const {
  const Bytes start = block_index * deps_.config.block_size;
  SMARTH_DCHECK(start < file_size_);
  return std::min(deps_.config.block_size, file_size_ - start);
}

// Stream geometry is expressed in transfer units (== packets in packet
// fidelity, coalesced multi-packet units in block fidelity); `seq` fields
// index transfer units within a block.
std::int64_t OutputStreamBase::packets_in_block(
    std::int64_t block_index) const {
  const Bytes unit = deps_.config.transfer_payload();
  const Bytes bytes = block_bytes(block_index);
  return (bytes + unit - 1) / unit;
}

Bytes OutputStreamBase::packet_payload(std::int64_t block_index,
                                       std::int64_t seq) const {
  const Bytes unit = deps_.config.transfer_payload();
  const Bytes remaining = block_bytes(block_index) - seq * unit;
  SMARTH_DCHECK(remaining > 0);
  return std::min(unit, remaining);
}

rpc::RetryPolicy OutputStreamBase::retry_policy() const {
  rpc::RetryPolicy policy;
  policy.timeout = deps_.config.rpc_timeout;
  policy.max_attempts = deps_.config.rpc_max_attempts;
  policy.backoff_base = deps_.config.rpc_backoff_base;
  policy.backoff_max = deps_.config.rpc_backoff_max;
  policy.jitter = deps_.config.rpc_backoff_jitter;
  return policy;
}

bool OutputStreamBase::start_safe_mode_wait() {
  const SimTime now = deps_.sim.now();
  if (safe_mode_wait_started_ < 0) safe_mode_wait_started_ = now;
  if (now - safe_mode_wait_started_ <= deps_.config.safe_mode_retry_budget) {
    return true;
  }
  SMARTH_ERROR("stream") << "namenode still in safe mode after "
                         << to_seconds(now - safe_mode_wait_started_)
                         << "s; giving up";
  return false;
}

bool OutputStreamBase::start_overload_wait() {
  const SimTime now = deps_.sim.now();
  if (overload_wait_started_ < 0) overload_wait_started_ = now;
  if (now - overload_wait_started_ <= deps_.config.overload_retry_budget) {
    return true;
  }
  SMARTH_ERROR("stream") << "namenode still shedding our calls after "
                         << to_seconds(now - overload_wait_started_)
                         << "s; giving up";
  return false;
}

bool OutputStreamBase::recovery_budget_exhausted(BlockId block) {
  const int attempts = ++recovery_attempts_[block.value()];
  if (attempts <= deps_.config.recovery_attempts_per_block) return false;
  SMARTH_ERROR("stream") << "recovery budget ("
                         << deps_.config.recovery_attempts_per_block
                         << ") exhausted for " << block.to_string();
  return true;
}

void OutputStreamBase::note_recovery_start(PipelineId pipeline) {
  recovery_started_[pipeline] = deps_.sim.now();
  if (trace::active()) {
    const ClientPipeline* p = find_pipeline(pipeline);
    const std::string track =
        p != nullptr ? trace_track(p->block_index) : std::string("client");
    trace::Args args = {{"pipeline", pipeline.to_string()}};
    if (p != nullptr) {
      args.emplace_back("block_index", std::to_string(p->block_index));
      args.emplace_back("block", p->block.to_string());
    }
    recovery_spans_[pipeline] = trace::recorder()->begin_span(
        trace::Category::kRecovery, track, "recovery", std::move(args));
  }
}

void OutputStreamBase::note_recovery_end(PipelineId pipeline) {
  auto it = recovery_started_.find(pipeline);
  if (it == recovery_started_.end()) return;
  const SimDuration took = deps_.sim.now() - it->second;
  recovery_started_.erase(it);
  metrics::global_registry()
      .histogram("stream.recovery_ns")
      .observe(static_cast<double>(took));
  if (trace::active()) {
    auto span = recovery_spans_.find(pipeline);
    if (span != recovery_spans_.end()) {
      trace::recorder()->end_span(span->second);
      recovery_spans_.erase(span);
    }
  }
}

void OutputStreamBase::request_block(
    std::int64_t block_index, std::vector<NodeId> excluded,
    std::function<void(Result<LocatedBlock>)> cb) {
  Namenode& nn = deps_.namenode;
  std::vector<NodeId> deprioritized;
  if (deps_.quarantine != nullptr) deprioritized = deps_.quarantine->active();
  auto shared_cb =
      std::make_shared<std::function<void(Result<LocatedBlock>)>>(
          std::move(cb));
  trace::SpanHandle alloc_span;
  if (trace::active()) {
    alloc_span = trace::recorder()->begin_span(
        trace::Category::kBlock, trace_track(block_index), "allocate",
        {{"block_index", std::to_string(block_index)},
         {"client", client_.to_string()}});
  }
  // Client-observed addBlock latency (whole retry chain, success or error):
  // the saturation study's headline tail-latency series.
  const SimTime issued_at = deps_.sim.now();
  rpc::call_with_retry<Result<LocatedBlock>>(
      deps_.rpc, deps_.sim, retry_policy(), client_node_, nn.node_id(),
      [&nn, file = file_, client = client_, node = client_node_,
       excluded = std::move(excluded),
       deprioritized = std::move(deprioritized), block_index] {
        return nn.add_block(file, client, node, excluded, deprioritized,
                            block_index);
      },
      [alive = alive_, shared_cb, alloc_span, issued_at,
       &sim = deps_.sim](Result<LocatedBlock> result) mutable {
        metrics::global_registry()
            .histogram("client.addblock_ns")
            .observe(static_cast<double>(sim.now() - issued_at));
        if (trace::active()) {
          trace::recorder()->end_span(
              alloc_span,
              {{"ok", result.ok() ? "true" : "false"},
               {"block",
                result.ok() ? result.value().block.to_string() : ""}});
        }
        if (!*alive) return;  // stream was pruned while the RPC was in flight
        (*shared_cb)(std::move(result));
      },
      [alive = alive_, shared_cb, alloc_span, issued_at,
       &sim = deps_.sim]() mutable {
        metrics::global_registry()
            .histogram("client.addblock_ns")
            .observe(static_cast<double>(sim.now() - issued_at));
        if (trace::active()) {
          trace::recorder()->end_span(alloc_span, {{"ok", "timeout"}});
        }
        if (!*alive) return;
        (*shared_cb)(Error{"rpc_timeout",
                           "addBlock gave up after repeated timeouts"});
      },
      "addBlock",
      {rpc::ServiceClass::kAddBlock, client_.value()},
      [] {
        return Result<LocatedBlock>(
            Error{"overloaded", "namenode shed addBlock"});
      },
      [](const Result<LocatedBlock>& r) {
        return !r.ok() && r.error().code == "overloaded";
      });
}

ClientPipeline& OutputStreamBase::create_pipeline(std::int64_t block_index,
                                                  const LocatedBlock& located,
                                                  Bytes resume_offset,
                                                  bool smarth_mode) {
  const PipelineId id = deps_.pipeline_ids.next();
  ClientPipeline pipeline;
  pipeline.id = id;
  pipeline.block_index = block_index;
  pipeline.block = located.block;
  pipeline.targets = located.targets;
  pipeline.block_bytes = block_bytes(block_index);
  pipeline.num_packets = packets_in_block(block_index);
  pipeline.resume_offset = resume_offset;
  pipeline.set_resume_packets(resume_offset / deps_.config.transfer_payload());
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

  PipelineSetup setup;
  setup.pipeline = id;
  setup.block = located.block;
  setup.targets = located.targets;
  setup.client_node = client_node_;
  setup.client = client_;
  setup.smarth_mode = smarth_mode;
  setup.resume_offset = resume_offset;
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

void OutputStreamBase::send_next_packet(ClientPipeline& pipeline) {
  SMARTH_CHECK(!pipeline.pending.empty());
  ProducedPacket produced = pipeline.pending.front();
  pipeline.pending.pop_front();

  WirePacket wire;
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

void OutputStreamBase::complete_file() {
  if (finished_) return;
  Namenode& nn = deps_.namenode;
  rpc::call_with_retry<Result<bool>>(
      deps_.rpc, deps_.sim, retry_policy(), client_node_, nn.node_id(),
      [&nn, file = file_, client = client_] {
        return nn.complete(file, client);
      },
      [this, alive = alive_](Result<bool> result) {
        if (!*alive || finished_) return;
        if (!result.ok()) {
          if (result.error().code == "overloaded" && start_overload_wait()) {
            // Shed even after RPC-level backoff: keep polling under the
            // overload budget rather than abandoning a fully-written file.
            complete_retry_ = deps_.sim.schedule_after(
                deps_.config.overload_retry_interval,
                [this] { complete_file(); });
            return;
          }
          finish(true, result.error().to_string());
          return;
        }
        if (result.value()) {
          finish(false, "");
          return;
        }
        // Not all blocks reported yet (blockReceived still in flight):
        // retry, as the Hadoop client does.
        complete_retry_ = deps_.sim.schedule_after(
            milliseconds(300), [this] { complete_file(); });
      },
      [this, alive = alive_] {
        if (!*alive || finished_) return;
        finish(true, "complete() timed out after repeated attempts");
      },
      "complete", {rpc::ServiceClass::kMeta},
      [] {
        return Result<bool>(Error{"overloaded", "namenode shed complete"});
      },
      [](const Result<bool>& r) {
        return !r.ok() && r.error().code == "overloaded";
      });
}

void OutputStreamBase::finish(bool failed, const std::string& reason) {
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
  safe_mode_retry_.cancel();
  for (auto& [id, pipeline] : pipelines_) {
    pipeline.watchdog.cancel();
    trace_pipeline_closed(pipeline, failed ? "aborted" : "complete");
  }
  if (trace::active()) {
    for (auto& [id, span] : recovery_spans_) {
      trace::recorder()->end_span(span, {{"outcome", "aborted"}});
    }
    recovery_spans_.clear();
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

void OutputStreamBase::abort(const std::string& reason) {
  finish(true, reason);
}

ClientPipeline* OutputStreamBase::find_pipeline(PipelineId id) {
  auto it = pipelines_.find(id);
  return it == pipelines_.end() ? nullptr : &it->second;
}

int OutputStreamBase::find_slow_pipeline_node(
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

int OutputStreamBase::maybe_evict_slow_node(ClientPipeline& pipeline) {
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
  Namenode& nn = deps_.namenode;
  deps_.rpc.notify(client_node_, nn.node_id(),
                   [&nn, slow,
                    weight = deps_.config.suspicion_eviction_weight] {
                     nn.report_slow_datanode(slow, weight);
                   });
  return slow_index;
}

}  // namespace smarth::hdfs
