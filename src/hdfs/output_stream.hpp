// Client-side write machinery under the write engine
// (core::SmarthOutputStream, which runs both protocols): block and packet
// geometry, the addBlock/complete RPCs, pipeline records and packet sends,
// recovery bookkeeping, slow-node verdicts and stream completion.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/quarantine.hpp"
#include "hdfs/transport.hpp"
#include "hdfs/types.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::hdfs {

class BlockRecovery;

/// The write protocols. They differ only in the pipeline schedule (paper
/// §III-A), so one engine runs both.
enum class Protocol { kHdfs, kSmarth };

/// Everything a client-side stream needs from its environment.
struct StreamDeps {
  sim::Simulation& sim;
  Transport& transport;
  rpc::RpcBus& rpc;
  Namenode& namenode;
  const HdfsConfig& config;
  /// Cluster-wide pipeline id source: datanodes key pipeline state by id, so
  /// ids must be unique across every client and stream.
  IdGenerator<PipelineId>& pipeline_ids;
  /// Resolves datanode RPC endpoints (installed by the cluster wiring).
  std::function<Datanode*(NodeId)> datanode_resolver;
  /// Per-client quarantine list (may be null in minimal test harnesses):
  /// recovery feeds failures into it; placement requests deprioritize its
  /// members.
  QuarantineList* quarantine = nullptr;
};

/// The retry policy of every client-side namenode RPC, from the config's
/// `rpc_*` knobs.
rpc::RetryPolicy namenode_retry_policy(const HdfsConfig& config);

/// A client -> namenode call_with_retry under namenode_retry_policy, for an
/// op admission control may shed. A shed call comes back as the typed
/// rejection Error{"overloaded", "namenode shed <what>"} (`what` defaults to
/// `label`), and an `overloaded` response is retried with backoff while
/// attempts remain.
template <typename T>
void call_namenode(rpc::RpcBus& bus, sim::Simulation& sim,
                   const HdfsConfig& config, NodeId client, NodeId namenode,
                   std::function<Result<T>()> handler,
                   std::function<void(Result<T>)> on_response,
                   std::function<void()> on_give_up, const char* label,
                   rpc::CallOptions options, std::string what = {}) {
  rpc::call_with_retry<Result<T>>(
      bus, sim, namenode_retry_policy(config), client, namenode,
      std::move(handler), std::move(on_response), std::move(on_give_up),
      label, options,
      [label, what = std::move(what)] {
        const std::string op = what.empty() ? label : what;
        return Result<T>(Error{"overloaded", "namenode shed " + op});
      },
      [](const Result<T>& r) {
        return !r.ok() && r.error().code == "overloaded";
      });
}

/// A packet produced by the client but not yet bound to a block id (binding
/// happens when it is handed to a pipeline).
struct ProducedPacket {
  std::int64_t block_index = 0;
  std::int64_t seq_in_block = 0;
  Bytes payload = 0;
  bool last_in_block = false;
};

/// Final statistics of one upload, consumed by the metrics layer.
struct StreamStats {
  ClientId client;
  Bytes file_size = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  std::int64_t blocks = 0;
  std::int64_t packets = 0;
  int pipelines_created = 0;
  int max_concurrent_pipelines = 0;
  int recoveries = 0;
  bool failed = false;
  std::string failure_reason;

  SimDuration elapsed() const { return finished_at - started_at; }
  Bandwidth throughput() const { return throughput_of(file_size, elapsed()); }
};

/// One replication pipeline as seen from the client.
struct ClientPipeline {
  PipelineId id;
  std::int64_t block_index = 0;
  BlockId block;
  std::vector<NodeId> targets;
  Bytes block_bytes = 0;
  std::int64_t num_packets = 0;
  Bytes resume_offset = 0;

  bool ready = false;   ///< setup acked end-to-end
  bool failed = false;  ///< recovery in progress or pending
  bool fnfa = false;    ///< SMARTH: first datanode holds the whole block

  /// Packets waiting to be handed to the network for this pipeline.
  std::deque<ProducedPacket> pending;
  /// Sent but not yet fully acked (retransmission source for recovery).
  std::deque<ProducedPacket> ack_queue;
  std::int64_t acked_packets = 0;  ///< counted from resume_offset

  SimTime created_at = 0;
  SimTime first_packet_sent = -1;
  SimTime fnfa_at = -1;
  sim::EventHandle watchdog;

  /// Slow-node eviction: per-target (sum, count) snapshot of the node's
  /// ack-latency histogram taken at pipeline creation. Detection only ever
  /// looks at deltas against these, so samples from earlier pipelines (or a
  /// pre-populated registry) cannot skew this pipeline's window.
  struct AckBaseline {
    double sum = 0;
    std::uint64_t count = 0;
  };
  std::vector<AckBaseline> ack_baselines;

  // Block-lifecycle spans (inert handles when tracing is disabled):
  // setup -> stream (first packet dispatched, some un-sent) -> tail-ack
  // (everything on the wire, waiting for the pipeline to drain).
  trace::SpanHandle span_setup;
  trace::SpanHandle span_stream;
  trace::SpanHandle span_tail;

  std::int64_t packets_since_resume() const {
    return num_packets - resume_offset_packets();
  }
  std::int64_t resume_offset_packets() const { return resume_packets_; }
  void set_resume_packets(std::int64_t n) { resume_packets_ = n; }
  bool complete() const { return acked_packets >= packets_since_resume(); }

 private:
  std::int64_t resume_packets_ = 0;
};

/// Base of the write engine: owns geometry, stats and the per-pipeline
/// records the engine schedules. Completion is announced through the on_done
/// callback.
class OutputStreamBase : public AckSink {
 public:
  using DoneCallback = std::function<void(const StreamStats&)>;

  OutputStreamBase(StreamDeps deps, ClientId client, NodeId client_node,
                   FileId file, Bytes file_size, DoneCallback on_done);
  ~OutputStreamBase() override;

  /// Kills the stream from outside (writer crash injection): no complete()
  /// RPC, no further packets; the stream finishes failed with `reason`.
  /// In-flight recovery callbacks are dropped by the finished_ guard. The
  /// file stays under construction until the namenode's lease monitor
  /// recovers it.
  void abort(const std::string& reason);

  const StreamStats& stats() const { return stats_; }
  bool finished() const { return finished_; }
  /// Used by the cluster wiring to route ACK/FNFA messages to the stream
  /// that owns the pipeline.
  bool owns_pipeline(PipelineId id) const {
    return pipelines_.find(id) != pipelines_.end();
  }
  /// Number of pipelines currently in flight (for live sampling).
  std::size_t active_pipeline_count() const { return pipelines_.size(); }
  FileId file() const { return file_; }
  ClientId client() const { return client_; }
  NodeId client_node() const { return client_node_; }

  // --- geometry --------------------------------------------------------------
  std::int64_t total_blocks() const;
  Bytes block_bytes(std::int64_t block_index) const;
  std::int64_t packets_in_block(std::int64_t block_index) const;
  Bytes packet_payload(std::int64_t block_index, std::int64_t seq) const;

 protected:
  /// Stamps the start time and opens the upload's gauge and trace span.
  void begin_upload();

  /// addBlock RPC (with timeout/backoff retry); invokes cb with the located
  /// block (or error). `block_index` lets the namenode recognize a retry of a
  /// lost response and return the existing allocation.
  void request_block(std::int64_t block_index, std::vector<NodeId> excluded,
                     std::function<void(Result<LocatedBlock>)> cb);
  /// Builds a ClientPipeline record and sends the setup chain.
  ClientPipeline& create_pipeline(std::int64_t block_index,
                                  const LocatedBlock& located,
                                  Bytes resume_offset, bool smarth_mode);
  /// Hands the next pending packet of `pipeline` to the network.
  void send_next_packet(ClientPipeline& pipeline);
  /// complete() RPC with retry-until-true, then finishes the stream.
  void complete_file();
  void finish(bool failed, const std::string& reason);

  // --- slow-node eviction -----------------------------------------------------
  /// Index of a mid-block straggler in `pipeline`, or -1. A node is a
  /// straggler when its windowed own-time (this pipeline's ack-latency delta,
  /// minus its downstream neighbour's) exceeds `eviction_outlier_factor`
  /// times the median of its peers'. Every member needs
  /// `eviction_min_samples` window samples before any verdict.
  int find_slow_pipeline_node(const ClientPipeline& pipeline) const;
  /// Checks the straggler bound and, when it trips (outside the per-stream
  /// cooldown), reports the node to the namenode and returns its pipeline
  /// index, or -1. The caller then runs the normal pipeline-recovery path
  /// with the straggler as error index — evict and splice a replacement
  /// instead of waiting out the watchdog.
  int maybe_evict_slow_node(ClientPipeline& pipeline);

  ClientPipeline* find_pipeline(PipelineId id);

  /// Charges time against the safe-mode wait budget: true while the stream
  /// should keep polling a safe-mode namenode (restart in progress; replica
  /// re-reports pending), false once the budget is exhausted and the stream
  /// should fail cleanly. The clock starts at the first refusal and resets
  /// on any successful allocation (create_pipeline).
  bool start_safe_mode_wait();
  /// Same shape for an overloaded namenode that keeps shedding this stream's
  /// calls after RPC-level backoff: true while the stream should keep
  /// re-polling (under overload_retry_budget), false once it should fail
  /// cleanly. Resets on any successful allocation.
  bool start_overload_wait();
  /// Charges one recovery attempt against `block`'s budget; true when the
  /// budget is exhausted and the stream should fail cleanly instead of
  /// retrying forever.
  bool recovery_budget_exhausted(BlockId block);
  /// MTTR bookkeeping around a recovery: start stamps the error-detection
  /// time; end records the elapsed time in the stream.recovery_ns
  /// histogram. Also opens/closes the recovery trace span.
  void note_recovery_start(PipelineId pipeline);
  void note_recovery_end(PipelineId pipeline);

  // --- trace instrumentation (all no-ops when tracing is disabled) ----------
  /// The per-block track name concurrent pipelines render under.
  static std::string trace_track(std::int64_t block_index);
  /// Marks the pipeline setup-acked: closes its setup span, opens stream.
  void trace_pipeline_ready(ClientPipeline& pipeline);
  /// Closes whatever lifecycle span the pipeline has open, tagging the
  /// outcome ("complete" / "error" / "aborted").
  void trace_pipeline_closed(ClientPipeline& pipeline, const char* outcome);

  StreamDeps deps_;
  ClientId client_;
  NodeId client_node_;
  FileId file_;
  Bytes file_size_;
  DoneCallback on_done_;

  /// Produced packets not yet assigned to a pipeline, in file order.
  std::deque<ProducedPacket> data_queue_;
  std::unordered_map<PipelineId, ClientPipeline> pipelines_;
  /// Recovery operations in flight or retired (kept alive until the stream
  /// dies; recovery objects must outlive their async callbacks).
  std::vector<std::unique_ptr<BlockRecovery>> recoveries_;

  StreamStats stats_;
  bool finished_ = false;
  /// Goodput counter (client.bytes_acked), cached because deliver_ack is the
  /// hottest client-side path; registry references stay valid until reset()
  /// and streams never outlive a reset.
  metrics::Counter* bytes_acked_counter_ = nullptr;
  /// True between start() and finish(): this stream is counted in the
  /// client.streams_open occupancy gauge.
  bool counted_open_ = false;
  /// Liveness token captured by in-flight RPC callbacks so a pruned stream's
  /// late responses are dropped instead of dereferencing freed memory.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// BlockId value -> recovery attempts consumed.
  std::unordered_map<std::int64_t, int> recovery_attempts_;
  /// PipelineId -> when its error was detected (MTTR bookkeeping).
  std::unordered_map<PipelineId, SimTime> recovery_started_;
  /// PipelineId -> open recovery span (tracing only).
  std::unordered_map<PipelineId, trace::SpanHandle> recovery_spans_;
  /// When this stream last evicted a slow node (-1: never); one eviction per
  /// `eviction_cooldown` keeps a noisy window from serially rebuilding.
  SimTime last_eviction_at_ = -1;
  /// Whole-upload span, opened by begin_upload() and closed by finish().
  trace::SpanHandle upload_span_;

  // Pending events, cancelled by finish() so a finished stream has none
  // referencing it (lets the cluster prune finished streams safely).
  sim::EventHandle producer_event_;   ///< next produced packet
  sim::EventHandle safe_mode_retry_;  ///< safe-mode or overload re-poll

 private:
  sim::EventHandle complete_retry_;

  /// When the current safe-mode wait began (-1: not waiting).
  SimTime safe_mode_wait_started_ = -1;
  /// When the current overload wait began (-1: not waiting).
  SimTime overload_wait_started_ = -1;
  /// When complete() first answered "not yet" (-1: it has not).
  SimTime complete_wait_started_ = -1;
};

}  // namespace smarth::hdfs
