// Wire-level protocol types and tunables shared by the namenode, datanodes
// and clients. The defaults mirror Hadoop 1.0.3, the version the paper
// evaluated: 64 MB blocks, 64 KB packets, replication 3, 3-second heartbeats.
// Only the values some caller varies are settable; the rest are fixed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace smarth::hdfs {

/// Data-path fidelity. kPacket simulates every packet as its own
/// serialize/verify/store/ack event chain — the reference behavior. kBlock
/// coalesces runs of consecutive packets into macro "transfer units" that
/// carry the same aggregate analytic costs (k packets' production, headers,
/// verification and disk-op overhead per unit), trading per-packet timing
/// detail for an order-of-magnitude fewer events. The unit size is derived
/// from the cost model so the coarsening distorts block pipeline times by at
/// most HdfsConfig::block_fidelity_tolerance (contract in DESIGN.md §10).
enum class DataFidelity { kPacket, kBlock };

/// All tunables of the simulated DFS. One instance is shared by every
/// component of a cluster.
///
/// A data member is a value that some caller varies; every other parameter
/// is a `static constexpr` at its Hadoop 1.0.3 (or calibrated) value, read
/// the same way (`config.probe_timeout`) but not assignable. Promote a
/// constant back to a field when a second caller needs a different value.
struct HdfsConfig {
  // --- Data layout ----------------------------------------------------------
  Bytes block_size = 64 * kMiB;
  Bytes packet_payload = 64 * kKiB;

  // --- Fidelity -------------------------------------------------------------
  DataFidelity fidelity = DataFidelity::kPacket;
  /// Block-fidelity macro-transfer payload, a multiple of packet_payload.
  /// Derived by the cluster builder (model::coalesced_transfer_unit) when
  /// left at 0; ignored in packet mode.
  Bytes block_transfer_unit = 0;
  /// Ceiling on block-fidelity distortion: the extra store-and-forward skew
  /// a coalesced unit introduces across the pipeline, as a fraction of the
  /// whole block's transfer time.
  double block_fidelity_tolerance = 0.05;

  // --- Wire overheads -------------------------------------------------------
  /// Checksums + header per data packet.
  static constexpr Bytes packet_header_wire = 512;
  static constexpr Bytes ack_wire = 64;
  static constexpr Bytes setup_wire = 256;
  static constexpr Bytes fnfa_wire = 64;

  // --- Replication / flow control -------------------------------------------
  int replication = 3;
  /// Client-side cap on dataQueue + ackQueue, in packets (Hadoop: 80).
  static constexpr int max_outstanding_packets = 80;

  // --- Client-side costs ----------------------------------------------------
  /// Per-packet production time Tc: read from the local source, checksum,
  /// frame. Overridden per instance type by the cluster builder.
  SimDuration packet_production_time = microseconds(800);

  // --- Datanode costs -------------------------------------------------------
  /// Per-packet checksum verification before store/forward.
  static constexpr SimDuration checksum_verify_time = microseconds(30);
  /// Staging buffer per datanode per client (paper §IV-C: one block).
  Bytes staging_buffer_bytes = 64 * kMiB;

  // --- Data integrity -------------------------------------------------------
  /// Granularity of at-rest CRC32C checksums in the block store. One CRC per
  /// chunk, verified on every read/scrub touching the chunk (HDFS: 512 B per
  /// chunk in .meta files; we checksum at packet granularity).
  static constexpr Bytes checksum_chunk_size = 64 * kKiB;
  /// Background block-scanner byte budget per datanode. 0 disables the
  /// scanner (the default, so latency-calibrated experiments are unaffected);
  /// when enabled, scrub reads go through the shared disk and contend with
  /// foreground traffic (Hadoop's dfs.datanode.scan.period analogue, but
  /// budgeted by rate rather than period).
  Bytes scanner_bytes_per_second = 0;
  /// Cadence at which the scanner wakes and spends its accumulated budget.
  static constexpr SimDuration scanner_interval = seconds(1);

  // --- Control plane --------------------------------------------------------
  static constexpr SimDuration heartbeat_interval = seconds(3);
  /// A datanode missing heartbeats for this long is considered dead.
  SimDuration datanode_dead_interval = seconds(15);

  // --- Leases (writer-crash tolerance) ---------------------------------------
  /// Past the soft limit another client may force lease recovery (takeover);
  /// past the hard limit the namenode recovers the file on its own.
  SimDuration lease_soft_limit = seconds(10);
  SimDuration lease_hard_limit = seconds(30);
  /// Cadence of the namenode's lease expiry / UC-recovery monitor.
  SimDuration lease_monitor_interval = seconds(2);
  /// Deadline for one primary-datanode recovery round before the namenode
  /// re-elects a primary and reissues the command.
  static constexpr SimDuration lease_recovery_retry_interval = seconds(5);
  /// Recovery rounds per UC block before the block is abandoned (and the
  /// file truncated before it) so a dead rack cannot wedge the file forever.
  static constexpr int lease_recovery_max_attempts = 6;

  // --- Namenode durability & restart -----------------------------------------
  /// Cadence of fsimage checkpoints (edit-log truncation); 0 disables
  /// checkpointing and restarts replay the whole journal.
  SimDuration checkpoint_interval = seconds(30);
  /// Fraction of closed-file blocks that must have at least one live
  /// non-corrupt replica re-reported before a restarted namenode leaves safe
  /// mode and resumes write/replication/invalidation decisions.
  static constexpr double safe_mode_threshold = 0.999;
  /// Replay cost per journaled op during restart/failover — makes cold
  /// restart downtime scale with the un-checkpointed log length.
  SimDuration edit_replay_op_cost = microseconds(200);
  /// Process bounce time of a cold namenode restart (exec + image load),
  /// before replay cost is added.
  static constexpr SimDuration nn_restart_process_delay = seconds(1);
  /// Promotion time of a warm standby (already caught up to its tail lag),
  /// before replay cost is added. Strictly smaller than a cold restart.
  static constexpr SimDuration nn_failover_delay = milliseconds(500);
  /// Cadence at which the standby tails the edit log (its lag bound).
  static constexpr SimDuration standby_tail_interval = milliseconds(500);
  /// Hard ceiling on automatic safe mode: past this, the namenode exits with
  /// whatever replica coverage it has (permanently lost replicas — e.g. every
  /// copy of a block rotted — must not wedge the control plane forever).
  static constexpr SimDuration safe_mode_max_wait = seconds(60);
  /// Client streams poll a safe-mode namenode at this cadence...
  static constexpr SimDuration safe_mode_retry_interval = seconds(1);
  /// ...and fail the upload after waiting this long in total per allocation.
  static constexpr SimDuration safe_mode_retry_budget = seconds(60);

  // --- Failure handling -----------------------------------------------------
  /// No ACK progress on a pipeline for this long => pipeline error.
  SimDuration ack_timeout = seconds(5);
  /// Probe RPC timeout used to tell dead targets from slow ones.
  static constexpr SimDuration probe_timeout = milliseconds(800);
  /// Ceiling on a recovery's replica-prefix copy to a replacement node; a
  /// copy that exceeds it (unreachable target, severed link) is abandoned.
  SimDuration replacement_transfer_timeout = seconds(30);

  // --- Control-plane retries (see rpc/retry.hpp) ------------------------------
  /// Per-attempt deadline on namenode RPCs (addBlock, complete, create, …).
  static constexpr SimDuration rpc_timeout = seconds(2);
  /// Total attempts per namenode RPC, first try included.
  static constexpr int rpc_max_attempts = 4;
  static constexpr SimDuration rpc_backoff_base = milliseconds(200);
  static constexpr SimDuration rpc_backoff_max = seconds(5);
  static constexpr double rpc_backoff_jitter = 0.2;
  /// Recovery rounds a single block may consume before the stream gives up
  /// cleanly (Hadoop's dfs.client.block.write.retries analogue).
  static constexpr int recovery_attempts_per_block = 5;
  /// How long a datanode implicated in a failure stays client-quarantined
  /// (deprioritized for new pipelines and replacements).
  static constexpr SimDuration quarantine_duration = seconds(60);

  // --- Gray-failure defense (hedged reads / slow-node eviction) -------------
  // A fail-slow datanode never misses a heartbeat, so none of the crash
  // machinery fires; these defenses guard tail latency instead of
  // durability. Each defaults off so latency-calibrated experiments and
  // existing seed timelines are unaffected; benches and chaos subsets opt
  // in. Their detection parameters are fixed.

  /// Hedged reads: when a block read makes no byte progress for the hedge
  /// threshold, race a second replica and keep whichever finishes first.
  bool hedged_reads = false;
  /// Hedge threshold = p95 of the serving datanode's ack_ns histogram times
  /// this multiplier — the PR-5 per-hop latency data reused as a slowness
  /// prior. Falls back to `hedge_static_threshold` until the histogram has
  /// `hedge_min_samples` observations.
  static constexpr double hedge_timer_multiplier = 8.0;
  static constexpr std::uint64_t hedge_min_samples = 16;
  static constexpr SimDuration hedge_static_threshold = milliseconds(500);
  /// Pace trigger: a gray-slow replica still makes steady byte progress, so
  /// the stall timer alone never fires on it. The reader also compares its
  /// mean packet gap against the cluster-wide lower-quartile gap (global
  /// `read.gap_ns` histogram — the quartile keeps the baseline healthy even
  /// when the slow node's own gaps land in it) and hedges when the ratio
  /// exceeds this factor.
  static constexpr double hedge_pace_factor = 3.0;
  /// Hedge budget: concurrent hedges per client stream, and total hedges one
  /// file read may launch — a sick cluster must not double its own load.
  static constexpr int hedge_max_in_flight = 1;
  int hedge_per_read_cap = 16;

  /// Write-pipeline slow-node eviction: a mid-block straggler (ACK own-time
  /// persistently above the outlier bound vs its pipeline peers) is evicted
  /// through the live pipeline-recovery path instead of crawling to FNFA at
  /// the next block boundary.
  bool slow_node_eviction = false;
  /// A node is a straggler when its own-time exceeds the median own-time of
  /// its pipeline peers by this factor.
  static constexpr double eviction_outlier_factor = 4.0;
  /// ACK samples each pipeline member must contribute within the current
  /// pipeline before the detector may speak — one slow seek is not a pattern.
  static constexpr std::uint64_t eviction_min_samples = 12;
  /// Quiet period between evictions on one stream, so a recovering pipeline
  /// is not immediately re-judged on its warm-up ACKs.
  static constexpr SimDuration eviction_cooldown = seconds(5);

  /// Namenode suspicion list: eviction and hedge-win reports add this much
  /// to the offending datanode's decaying suspicion score.
  static constexpr double suspicion_eviction_weight = 2.0;
  static constexpr double suspicion_hedge_weight = 1.0;
  /// Scores halve every half-life; a node whose decayed score is at or above
  /// the threshold is demoted in placement and SMARTH top-n selection. Decay
  /// is the recovery path: a node that speeds back up stops accruing reports
  /// and drops below the threshold within a few half-lives.
  static constexpr SimDuration suspicion_half_life = seconds(30);
  static constexpr double suspicion_threshold = 2.0;

  // --- Control-plane overload defense ---------------------------------------
  // Multi-tenant load makes the namenode's RPC path the bottleneck long
  // before the data plane saturates. Both knobs default off so the bus keeps
  // its historical flat service_time and every existing seed timeline stays
  // bit-identical; benches and the open-loop workload opt in.

  /// Finite-capacity service model: namenode RPCs serialize through one
  /// queue at modeled per-op cost instead of the bus's flat service_time.
  /// On its own this is the *undefended* namenode — unbounded queue, no
  /// shedding — whose latency grows without bound past the saturation knee.
  bool nn_service_model = false;
  /// Admission control on top of the service model (implies it): bounded
  /// queue with priority bands (heartbeats/IBRs > client metadata ops >
  /// addBlock), load shedding with typed retryable `overloaded` rejections,
  /// heartbeat/IBR batch processing, and per-client in-flight addBlock caps.
  bool nn_admission_control = false;
  /// Modeled namenode CPU cost per op class.
  SimDuration nn_cost_heartbeat = microseconds(30);
  SimDuration nn_cost_meta = microseconds(150);
  SimDuration nn_cost_add_block = microseconds(350);
  /// Bounded RPC queue depth (admission control only).
  int nn_queue_capacity = 256;
  /// Heartbeat/IBR batch processing: up to this many coalesce into one
  /// service slot, each after the first costing a fixed fraction of a full
  /// heartbeat (rpc::ServiceQueue::Config::batch_marginal_cost).
  int nn_heartbeat_batch_max = 32;
  /// Max queued+in-service addBlock ops per client (<= 0 disables) so one
  /// tenant cannot starve the rest.
  int nn_client_addblock_cap = 4;
  /// Stream-level backoff when the RPC layer exhausts its attempts against
  /// an overloaded namenode: re-poll on this interval under this budget
  /// (mirrors the safe-mode wait), then fail the upload cleanly.
  static constexpr SimDuration overload_retry_interval = milliseconds(500);
  SimDuration overload_retry_budget = seconds(120);

  // --- SMARTH ---------------------------------------------------------------
  /// Local-optimization exploration threshold (paper: 0.8; swap first
  /// datanode with probability 1 - threshold).
  double local_opt_threshold = 0.8;
  bool smarth_global_opt = true;  ///< ablation switch (Alg. 1)
  bool smarth_local_opt = true;   ///< ablation switch (Alg. 2)
  /// Enforce the buffer-overflow guard: at most cluster/replication
  /// concurrent pipelines and one pipeline per datanode per client.
  bool enforce_pipeline_cap = true;

  // --- Fidelity-aware transfer geometry -------------------------------------
  // The data paths (output/input streams, datanodes, recovery) are written in
  // terms of "transfer units": identical to packets in packet mode, coalesced
  // multi-packet units in block mode. WirePacket::seq then indexes transfer
  // units within the block, and all offset arithmetic scales accordingly.

  /// Active data-transfer granularity.
  Bytes transfer_payload() const {
    if (fidelity == DataFidelity::kPacket || block_transfer_unit <= 0) {
      return packet_payload;
    }
    return block_transfer_unit;
  }
  /// Real packets represented by one transfer of `payload` bytes.
  std::int64_t packets_in_transfer(Bytes payload) const {
    return (payload + packet_payload - 1) / packet_payload;
  }
  /// Transfer units in a full block: SMARTH's per-pipeline window, since it
  /// streams a whole block to the first datanode ahead of the replica ACKs.
  int transfers_per_block() const {
    return static_cast<int>((block_size + transfer_payload() - 1) /
                            transfer_payload());
  }
  /// HDFS client window, in transfer units (>= 1; rounds the 80-packet cap
  /// down so block mode never holds more data in flight than packet mode).
  int max_outstanding_transfers() const {
    const auto per_unit = packets_in_transfer(transfer_payload());
    const auto units = max_outstanding_packets / static_cast<int>(per_unit);
    return units < 1 ? 1 : units;
  }
  /// Wire footprint of one transfer: payload plus one header per real packet.
  Bytes transfer_wire_size(Bytes payload) const {
    return payload + packet_header_wire * packets_in_transfer(payload);
  }
  /// Aggregate client production cost (k packets' worth of Tc).
  SimDuration transfer_production_time(Bytes payload) const {
    return packet_production_time * packets_in_transfer(payload);
  }
  /// Aggregate datanode checksum-verification cost (k packets' worth).
  SimDuration transfer_verify_time(Bytes payload) const {
    return checksum_verify_time * packets_in_transfer(payload);
  }
};

/// How long a harness waits, from a writer's crash, for lease recovery to
/// close its file: the hard limit, a monitor round to notice the expiry,
/// then up to lease_recovery_max_attempts rounds before the last block is
/// abandoned, each a retry interval plus a monitor round; plus one more
/// hard limit, since a namenode restart restarts the lease clocks.
SimDuration lease_recovery_wait(const HdfsConfig& config);

/// A block with its assigned pipeline targets, as returned by addBlock().
/// The read path reuses it with `targets` = live replica holders sorted by
/// distance and `length` = the finalized block length.
struct LocatedBlock {
  BlockId block;
  std::vector<NodeId> targets;  // pipeline order: first datanode first
  Bytes length = 0;             // read path only
  /// Read path only: no serveable targets because every known replica has
  /// been reported corrupt (distinct from "holders temporarily dead").
  bool all_replicas_corrupt = false;
};

/// One data packet on the wire.
struct WirePacket {
  PipelineId pipeline;
  BlockId block;
  std::int64_t seq = 0;        ///< packet index within the block
  Bytes payload = 0;           ///< payload bytes (last packet may be short)
  bool last_in_block = false;
};

/// Status carried by pipeline ACKs (per-packet, aggregated upstream).
enum class AckStatus {
  kSuccess,
  kChecksumError,  ///< verification failed at `error_index`
  kNodeError,      ///< downstream node unreachable
};

struct PipelineAck {
  PipelineId pipeline;
  std::int64_t seq = 0;
  AckStatus status = AckStatus::kSuccess;
  /// Index (in pipeline order) of the datanode that reported the error;
  /// meaningful when status != kSuccess.
  int error_index = -1;
};

/// SMARTH's First-Node-Finish ACK: the first datanode has received and
/// durably stored every packet of `block`.
struct FnfaMessage {
  PipelineId pipeline;
  BlockId block;
};

// --- Read path ---------------------------------------------------------------

struct ReadTag { static constexpr const char* prefix = "read-"; };
/// One block-read operation issued by a client.
using ReadId = TypedId<ReadTag>;

/// Client -> datanode: stream `length` bytes of `block` starting at
/// `offset` back to `reader_node`.
struct ReadRequest {
  ReadId read;
  BlockId block;
  Bytes offset = 0;
  Bytes length = 0;
  NodeId reader_node;
};

/// Datanode -> client: one packet of block data (or an error marker).
struct ReadPacket {
  ReadId read;
  BlockId block;
  std::int64_t seq = 0;
  Bytes payload = 0;
  bool last = false;
  bool error = false;    ///< replica missing/short or node refusing
  /// The serving datanode hit a checksum mismatch verifying this packet's
  /// chunk range: no payload was sent and the stream must fail over AND
  /// report the replica to the namenode (set together with last).
  bool corrupt = false;
};

/// Pipeline establishment request, forwarded datanode-to-datanode like
/// Hadoop's WRITE_BLOCK operation.
struct PipelineSetup {
  PipelineId pipeline;
  BlockId block;
  std::vector<NodeId> targets;
  NodeId client_node;
  ClientId client;
  bool smarth_mode = false;
  /// Byte offset the write resumes at (0 for fresh blocks; >0 after
  /// recovery, when a prefix is already durable on every target).
  Bytes resume_offset = 0;
  /// Length the block will have once written; datanodes size their
  /// per-packet state from it. 0 means unknown: assume a full block.
  Bytes block_bytes = 0;
};

struct SetupAck {
  PipelineId pipeline;
  bool success = true;
  int error_index = -1;
};

/// One client->namenode speed record: observed client-to-first-datanode
/// transfer speed for a completed block (paper §III-B).
struct SpeedRecord {
  NodeId datanode;
  Bandwidth speed;
  SimTime measured_at = 0;
};

/// Namenode -> primary datanode: synchronize one under-construction block
/// after its writer's lease expired (commitBlockSynchronization protocol).
/// The primary probes every target's stored length, reconciles the replicas
/// and reports the agreed length (or abandonment) back to the namenode.
struct UcRecoveryCommand {
  BlockId block;
  std::vector<NodeId> targets;  ///< replica candidates, primary included
  /// True for the highest-indexed (possibly partial) block: replicas are
  /// truncated to the minimum durable length. False for earlier blocks of a
  /// multi-pipeline write, which finalize at the maximum stored length and
  /// discard shorter stragglers.
  bool tail = true;
};

/// Interface for components that accept pipeline traffic (datanodes).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver_setup(const PipelineSetup& setup) = 0;
  virtual void deliver_packet(const WirePacket& packet) = 0;
  /// ACK arriving from the downstream neighbour.
  virtual void deliver_downstream_ack(const PipelineAck& ack) = 0;
  virtual void deliver_downstream_setup_ack(const SetupAck& ack) = 0;
  /// Block-read service; default refuses (only datanodes serve reads).
  virtual void deliver_read_request(const ReadRequest& request) {
    (void)request;
  }
};

/// Interface for the receiving end of a block read (client input streams).
class ReadSink {
 public:
  virtual ~ReadSink() = default;
  virtual void deliver_read_packet(const ReadPacket& packet) = 0;
};

/// Interface for components that terminate a pipeline's upstream end
/// (client output streams).
class AckSink {
 public:
  virtual ~AckSink() = default;
  virtual void deliver_ack(const PipelineAck& ack) = 0;
  virtual void deliver_setup_ack(const SetupAck& ack) = 0;
  virtual void deliver_fnfa(const FnfaMessage& fnfa) = 0;
};

/// Resolves a node id to its packet/ack handler. The cluster wiring layer
/// provides these so that datanodes and clients never hold raw pointers to
/// one another's concrete types.
struct SinkResolver {
  std::function<PacketSink*(NodeId)> packet_sink;
  std::function<AckSink*(NodeId, PipelineId)> ack_sink;
  /// Optional: read routing (clusters without readers may omit it).
  std::function<ReadSink*(NodeId, ReadId)> read_sink;
};

std::string to_string(AckStatus status);

}  // namespace smarth::hdfs
