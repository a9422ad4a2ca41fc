// The client write engine, for both protocols (paper §III-A). A stream
// produces packets, allocates each block (addBlock), sets up its pipeline,
// streams the block, absorbs ACKs, recovers failed pipelines per Algorithm 4,
// evicts mid-block stragglers and completes the file. It owns the block and
// packet geometry, the per-pipeline records and the upload's stats.
//
// SMARTH: when the pipeline's first datanode confirms full receipt with an
// FNFA, the client immediately requests the next block and opens a new
// pipeline while the previous pipelines keep replicating and acking in the
// background. The pipeline fan-out is bounded by the buffer-overflow guard
// (§IV-C): a datanode serves at most one of this client's pipelines at a
// time, which caps concurrency at |datanodes| / replication.
//
// HDFS is the degenerate schedule: its setups do not request FNFA, so the
// next block starts only when the last ACK completes the pipeline. That is
// one pipeline at a time and stop-and-wait at every block boundary (§II), and
// Algorithm 4 with a single error pipeline is Algorithm 3.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "hdfs/output_stream.hpp"
#include "hdfs/recovery.hpp"
#include "hdfs/transport.hpp"
#include "sim/simulation.hpp"
#include "smarth/speed_tracker.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::core {

/// One replication pipeline as seen from the client.
struct ClientPipeline {
  PipelineId id;
  std::int64_t block_index = 0;
  BlockId block;
  std::vector<NodeId> targets;
  Bytes block_bytes = 0;
  std::int64_t num_packets = 0;
  Bytes resume_offset = 0;
  std::int64_t resume_packets = 0;  ///< resume_offset in transfer units

  bool ready = false;   ///< setup acked end-to-end
  bool failed = false;  ///< recovery in progress or pending
  bool fnfa = false;    ///< SMARTH: first datanode holds the whole block

  /// Packets waiting to be handed to the network for this pipeline.
  std::deque<hdfs::ProducedPacket> pending;
  /// Sent but not yet fully acked (retransmission source for recovery).
  std::deque<hdfs::ProducedPacket> ack_queue;
  std::int64_t acked_packets = 0;  ///< counted from resume_offset

  SimTime created_at = 0;
  SimTime first_packet_sent = -1;
  SimTime fnfa_at = -1;
  sim::EventHandle watchdog;

  // Recovery (Alg. 4), set when the pipeline enters the error set:
  /// Pipeline position of the datanode that reported the error, or -1 (ACK
  /// timeout or gap).
  int error_index = -1;
  /// When the error was detected (-1: not recovering); the recovery's
  /// duration goes to the stream.recovery_ns histogram (MTTR).
  SimTime recovery_started = -1;

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
  // (everything on the wire, waiting for the pipeline to drain), and the
  // recovery span while the pipeline is in the error set.
  trace::SpanHandle span_setup;
  trace::SpanHandle span_stream;
  trace::SpanHandle span_tail;
  trace::SpanHandle span_recovery;

  std::int64_t packets_since_resume() const {
    return num_packets - resume_packets;
  }
  bool complete() const { return acked_packets >= packets_since_resume(); }
};

class SmarthOutputStream : public hdfs::AckSink {
 public:
  using DoneCallback = std::function<void(const hdfs::StreamStats&)>;

  /// Completion (success or failure) is announced through `on_done`.
  SmarthOutputStream(hdfs::StreamDeps deps, hdfs::Protocol protocol,
                     ClientId client, NodeId client_node, FileId file,
                     Bytes file_size, SpeedTracker& tracker,
                     DoneCallback on_done);
  ~SmarthOutputStream() override;

  /// Kicks off production and the first block allocation.
  void start();
  /// Kills the stream from outside (writer crash injection): no complete()
  /// RPC, no further packets; the stream finishes failed with `reason`.
  /// In-flight recovery callbacks are dropped by the finished_ guard. The
  /// file stays under construction until the namenode's lease monitor
  /// recovers it.
  void abort(const std::string& reason);

  // --- AckSink ---------------------------------------------------------------
  void deliver_ack(const hdfs::PipelineAck& ack) override;
  void deliver_setup_ack(const hdfs::SetupAck& ack) override;
  void deliver_fnfa(const hdfs::FnfaMessage& fnfa) override;

  // --- Introspection ----------------------------------------------------------
  const hdfs::StreamStats& stats() const { return stats_; }
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
  std::uint64_t fnfa_received() const { return fnfa_received_; }
  std::uint64_t slot_waits() const { return slot_waits_; }

  // --- Geometry ---------------------------------------------------------------
  std::int64_t total_blocks() const;
  Bytes block_bytes(std::int64_t block_index) const;
  std::int64_t packets_in_block(std::int64_t block_index) const;
  Bytes packet_payload(std::int64_t block_index, std::int64_t seq) const;

 private:
  /// True while the producer may buffer another packet.
  bool production_window_open() const;
  /// Re-checks the production gate; called whenever it may have opened.
  void pump_production();
  void produce_loop();
  /// Requests the next block + pipeline, excluding datanodes already serving
  /// an active pipeline of this client (the overflow guard); completes the
  /// file once every block is dispatched and drained.
  void advance_block();
  /// addBlock RPC (with timeout/backoff retry) for the next block. The
  /// block index lets the namenode recognize a retry of a lost response and
  /// return the existing allocation.
  void request_block(std::vector<NodeId> excluded);
  /// The addBlock outcome: a located block, a refusal, or the retry chain
  /// giving up (an `rpc_timeout` error).
  void on_block_allocated(Result<hdfs::LocatedBlock> result);
  /// Builds a ClientPipeline record and sends the setup chain.
  ClientPipeline& create_pipeline(std::int64_t block_index,
                                  const hdfs::LocatedBlock& located,
                                  Bytes resume_offset);
  /// Sends pending packets of every ready pipeline (the streaming one plus
  /// any recovered pipeline re-transmitting its backlog).
  void pump_stream();
  /// Hands the next pending packet of `pipeline` to the network.
  void send_next_packet(ClientPipeline& pipeline);
  /// Arms/refreshes the no-ack-progress watchdog for a pipeline.
  void arm_watchdog(ClientPipeline& pipeline);
  std::vector<NodeId> active_pipeline_nodes() const;
  ClientPipeline* find_pipeline(PipelineId id);
  void on_pipeline_complete(PipelineId id);
  /// complete() RPC with retry-until-true, then finishes the stream.
  void complete_file();
  void finish(bool failed, const std::string& reason);

  /// Charges a refused namenode call to a budgeted wait (safe mode, an
  /// overloaded namenode shedding the call, complete() answering "not
  /// yet"). `started` holds when the wait began (-1: not waiting), so the
  /// first refusal starts the clock. True while the stream should keep
  /// polling; past `budget` it logs "<what> after <s>s; giving up" and
  /// returns false, and the caller fails the stream cleanly.
  bool keep_waiting(SimTime& started, SimDuration budget, const char* what);

  // --- Recovery (Algorithm 4) --------------------------------------------------
  /// A pipeline timed out or got an error ack; `error_index` is the
  /// reporting datanode's pipeline position or -1.
  void on_pipeline_error(ClientPipeline& pipeline, int error_index);
  /// Algorithm 4's error-pipeline-set drain: one recovery at a time.
  void recover_next_error_pipeline();
  void resume_recovered_pipeline(PipelineId old_id,
                                 std::vector<NodeId> targets,
                                 Bytes sync_offset);
  /// Charges one recovery attempt against `block`'s budget; true when the
  /// budget is exhausted and the stream should fail cleanly instead of
  /// retrying forever.
  bool recovery_budget_exhausted(BlockId block);
  /// MTTR bookkeeping around a recovery: start stamps the error-detection
  /// time; end records the elapsed time in the stream.recovery_ns
  /// histogram. Also opens/closes the recovery trace span.
  void note_recovery_start(ClientPipeline& pipeline);
  void note_recovery_end(ClientPipeline& pipeline);

  // --- Slow-node eviction -------------------------------------------------------
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

  // --- Trace instrumentation (all no-ops when tracing is disabled) ----------
  /// Marks the pipeline setup-acked: closes its setup span, opens stream.
  void trace_pipeline_ready(ClientPipeline& pipeline);
  /// Closes whatever lifecycle or recovery span the pipeline has open,
  /// tagging the outcome ("complete" / "error" / "aborted").
  void trace_pipeline_closed(ClientPipeline& pipeline, const char* outcome);

  hdfs::StreamDeps deps_;
  ClientId client_;
  NodeId client_node_;
  FileId file_;
  Bytes file_size_;
  SpeedTracker& tracker_;
  DoneCallback on_done_;

  // The protocol, as the schedule values it sets.
  /// Setups request FNFA, and the next block starts on it (SMARTH).
  const bool fnfa_;
  /// Per-pipeline send window and producer buffer, in transfer units: a
  /// whole block for SMARTH, Hadoop's outstanding-packet cap for HDFS.
  const std::size_t window_;
  /// HDFS caps dataQueue + ackQueue together: the producer buffer also
  /// counts packets handed to a pipeline and not yet acked.
  const bool window_counts_in_flight_;
  /// Algorithm 2 reorders each allocated pipeline (SMARTH, unless ablated).
  const bool local_opt_;

  std::int64_t total_packets_ = 0;
  std::int64_t produced_packets_ = 0;
  std::int64_t produce_block_ = 0;
  std::int64_t produce_seq_ = 0;
  bool producer_armed_ = false;
  /// Produced packets not yet assigned to a pipeline, in file order.
  std::deque<hdfs::ProducedPacket> data_queue_;

  std::int64_t next_block_ = 0;    ///< next block index to dispatch
  PipelineId streaming_;           ///< pipeline the fresh data flows into
  bool awaiting_block_ = false;
  std::unordered_map<PipelineId, ClientPipeline> pipelines_;

  /// Alg. 4 state: failed pipelines awaiting recovery; while non-empty the
  /// current block transfer is paused.
  std::set<PipelineId> error_pipelines_;
  bool recovery_running_ = false;
  /// Recovery operations in flight or retired (kept alive until the stream
  /// dies; a destroyed recovery drops its pending callbacks).
  std::vector<std::unique_ptr<hdfs::BlockRecovery>> recoveries_;
  /// BlockId value -> recovery attempts consumed.
  std::unordered_map<std::int64_t, int> recovery_attempts_;
  /// When this stream last evicted a slow node (-1: never); one eviction per
  /// `eviction_cooldown` keeps a noisy window from serially rebuilding.
  SimTime last_eviction_at_ = -1;

  // Budgeted waits (see keep_waiting). A landed allocation ends the
  // safe-mode and overload waits.
  SimTime safe_mode_wait_started_ = -1;
  SimTime overload_wait_started_ = -1;
  /// When complete() first answered "not yet".
  SimTime complete_wait_started_ = -1;

  hdfs::StreamStats stats_;
  bool finished_ = false;
  std::uint64_t fnfa_received_ = 0;
  std::uint64_t slot_waits_ = 0;
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
  /// Whole-upload span, opened by start() and closed by finish().
  trace::SpanHandle upload_span_;

  // Pending events, cancelled by finish() so a finished stream has none
  // referencing it (lets the cluster prune finished streams safely).
  sim::EventHandle producer_event_;   ///< next produced packet
  sim::EventHandle allocate_retry_;   ///< safe-mode or overload re-poll
  sim::EventHandle complete_retry_;   ///< complete() re-poll
};

}  // namespace smarth::core

namespace smarth::hdfs {
/// The write engine under its former base-class name, kept only because the
/// benchmark driver (perfbench/workloads.cpp) still names it; drop it with
/// that driver's next change.
using OutputStreamBase = core::SmarthOutputStream;
}  // namespace smarth::hdfs
