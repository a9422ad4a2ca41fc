// The client write engine, for both protocols (paper §III-A). A stream
// produces packets, allocates each block, sets up its pipeline, streams the
// block, absorbs ACKs and recovers failed pipelines per Algorithm 4.
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

#include <set>
#include <vector>

#include "hdfs/output_stream.hpp"
#include "smarth/speed_tracker.hpp"

namespace smarth::core {

class SmarthOutputStream : public hdfs::OutputStreamBase {
 public:
  SmarthOutputStream(hdfs::StreamDeps deps, hdfs::Protocol protocol,
                     ClientId client, NodeId client_node, FileId file,
                     Bytes file_size, SpeedTracker& tracker,
                     DoneCallback on_done);

  /// Kicks off production and the first block allocation.
  void start();

  // --- AckSink ---------------------------------------------------------------
  void deliver_ack(const hdfs::PipelineAck& ack) override;
  void deliver_setup_ack(const hdfs::SetupAck& ack) override;
  void deliver_fnfa(const hdfs::FnfaMessage& fnfa) override;

  // --- Introspection ----------------------------------------------------------
  std::uint64_t fnfa_received() const { return fnfa_received_; }
  std::uint64_t slot_waits() const { return slot_waits_; }

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
  /// Sends pending packets of every ready pipeline (the streaming one plus
  /// any recovered pipeline re-transmitting its backlog).
  void pump_stream();
  /// Arms/refreshes the no-ack-progress watchdog for a pipeline.
  void arm_watchdog(hdfs::ClientPipeline& pipeline);
  std::vector<NodeId> active_pipeline_nodes() const;
  void on_pipeline_complete(PipelineId id);
  /// A pipeline timed out or got an error ack; `error_index` is the
  /// reporting datanode's pipeline position or -1.
  void on_pipeline_error(hdfs::ClientPipeline& pipeline, int error_index);
  /// Algorithm 4's error-pipeline-set drain: one recovery at a time.
  void recover_next_error_pipeline();
  void resume_recovered_pipeline(PipelineId old_id,
                                 std::vector<NodeId> targets,
                                 Bytes sync_offset);

  SpeedTracker& tracker_;

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

  std::int64_t next_block_ = 0;    ///< next block index to dispatch
  PipelineId streaming_;           ///< pipeline the fresh data flows into
  bool awaiting_block_ = false;
  /// Alg. 4 state: failed pipelines awaiting recovery; while non-empty the
  /// current block transfer is paused.
  std::set<PipelineId> error_pipelines_;
  std::unordered_map<PipelineId, int> pipeline_error_index_;
  bool recovery_running_ = false;

  std::uint64_t fnfa_received_ = 0;
  std::uint64_t slot_waits_ = 0;
};

}  // namespace smarth::core
