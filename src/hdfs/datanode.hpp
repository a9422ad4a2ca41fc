// A datanode: receives pipeline setup and data packets, verifies checksums,
// stores packets on its disk, mirrors them to the next datanode, aggregates
// ACKs upstream, and — in SMARTH mode — returns the FNFA to the client once
// it has received and stored a whole block as the pipeline's first node.
// It also implements the server side of pipeline recovery: replica probes,
// truncation to a sync point, aborts, and replica prefix transfer to a
// replacement node.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/block_report.hpp"
#include "hdfs/block_scanner.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/transport.hpp"
#include "hdfs/types.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/periodic_task.hpp"
#include "sim/simulation.hpp"
#include "storage/block_store.hpp"
#include "storage/disk.hpp"
#include "storage/staging_buffer.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::hdfs {

/// Result of a replica probe during recovery.
struct ReplicaProbeResult {
  bool alive = false;  ///< responder answered at all
  bool has_replica = false;
  Bytes bytes = 0;
};

class Datanode : public PacketSink {
 public:
  struct Options {
    Bandwidth disk_write_bandwidth = Bandwidth::mega_bytes_per_second(100);
    SimDuration disk_op_overhead = microseconds(50);
  };

  Datanode(sim::Simulation& sim, Transport& transport, rpc::RpcBus& rpc,
           Namenode& namenode, const HdfsConfig& config, NodeId self,
           Options options);
  Datanode(sim::Simulation& sim, Transport& transport, rpc::RpcBus& rpc,
           Namenode& namenode, const HdfsConfig& config, NodeId self)
      : Datanode(sim, transport, rpc, namenode, config, self, Options()) {}
  ~Datanode() override;

  NodeId node_id() const { return self_; }

  /// Lets this node find peer datanodes for replica transfers; installed by
  /// the cluster wiring.
  void set_peer_resolver(std::function<Datanode*(NodeId)> resolver) {
    peer_resolver_ = std::move(resolver);
  }

  /// Registers with the namenode and starts heartbeating.
  void start();
  /// Hard-stops the node: no packets processed, no RPCs answered, heartbeats
  /// cease. Used by fault injection.
  void crash();
  bool crashed() const { return crashed_; }
  /// Brings a crashed node back: open (never-finalized) replicas are dropped
  /// — like real HDFS discarding rbw/ directories on restart — finalized ones
  /// survive and are re-reported, the node re-registers and heartbeats again.
  void restart();

  /// Fault injection: the packet (block, seq) fails checksum verification at
  /// this node (once).
  void inject_checksum_error(BlockId block, std::int64_t seq);
  /// Fault injection by arrival order: the nth data packet this node receives
  /// (1-based, counted over its lifetime) fails verification. Usable from
  /// workloads that do not know block ids in advance.
  void inject_checksum_error_on_nth_packet(std::uint64_t n);

  // --- Bit-rot (at-rest corruption) -----------------------------------------
  /// Flips one stored chunk of `block` at rest (its recorded CRC goes stale,
  /// so every later verification fails). Works even while the node is down:
  /// sectors decay regardless of the daemon process.
  Status rot_replica_chunk(BlockId block, std::size_t chunk);
  /// Rots one pseudo-randomly chosen chunk of one finalized replica; `salt`
  /// fully determines the choice. Returns false when this node holds no
  /// finalized data to rot.
  bool rot_random_finalized_chunk(std::uint64_t salt);
  /// Namenode command: drop a replica reported corrupt. No-op when absent.
  void invalidate_replica(BlockId block);

  /// Hedge-race loser cancellation: stop streaming `read` at the next packet
  /// boundary. Samples from a cancelled read land in the `hedge.cancelled`
  /// metrics instead of this node's ack-latency histogram, so a hedge loser
  /// cannot poison straggler attribution.
  void cancel_read(ReadId read);

  // --- PacketSink ------------------------------------------------------------
  void deliver_setup(const PipelineSetup& setup) override;
  void deliver_packet(const WirePacket& packet) override;
  void deliver_downstream_ack(const PipelineAck& ack) override;
  void deliver_downstream_setup_ack(const SetupAck& ack) override;
  void deliver_read_request(const ReadRequest& request) override;

  // --- Recovery server side (invoked via RPC) --------------------------------
  ReplicaProbeResult probe_replica(BlockId block) const;
  Status truncate_replica(BlockId block, Bytes length);
  /// Drops pipeline state (replica data is kept for recovery).
  void abort_pipeline(PipelineId pipeline);
  /// Drops every pipeline writing `block` (the writer is gone for good —
  /// lease recovery). Replica data is kept for commitBlockSynchronization.
  void abort_block(BlockId block);
  /// Reconciles `block`'s replica to exactly `length` bytes and finalizes
  /// it: longer open replicas are truncated, an already-finalized replica
  /// just has its length checked. Fails (without touching the replica) when
  /// this node holds fewer than `length` bytes. Idempotent.
  Result<Bytes> commit_replica(BlockId block, Bytes length);
  /// Removes a straggler replica that lost a commitBlockSynchronization
  /// round (shorter than the agreed length). No-op when absent.
  void discard_replica(BlockId block);
  /// Primary-datanode side of commitBlockSynchronization: aborts the dead
  /// writer's pipelines on every target, probes each target's stored
  /// length, commits the agreed length everywhere and reports the outcome
  /// to the namenode (empty holder set = no durable replica, abandon).
  void recover_uc_block(const UcRecoveryCommand& cmd);
  /// Streams the first `length` bytes of `block` to `dest` (a replacement
  /// node); `done(true)` once the destination has stored them. With
  /// `finalize_at_dest` the destination finalizes the replica and reports it
  /// to the namenode (re-replication); without it the copy stays open for a
  /// rebuilt write pipeline (recovery).
  void transfer_replica(BlockId block, NodeId dest, Bytes length,
                        std::function<void(bool)> done,
                        bool finalize_at_dest = false);
  /// Destination side of transfer_replica.
  void receive_replica_prefix(BlockId block, Bytes length, bool finalize,
                              std::function<void()> done);

  // --- Introspection ----------------------------------------------------------
  const storage::BlockStore& block_store() const { return store_; }
  const storage::DiskDevice& disk() const { return *disk_; }
  /// Mutable access for fault injection (fail-slow disk throttling).
  storage::DiskDevice& disk() { return *disk_; }
  Bytes staging_used(ClientId client) const;
  Bytes staging_high_water(ClientId client) const;
  std::uint64_t staging_overflows(ClientId client) const;
  std::size_t active_pipeline_count() const { return pipelines_.size(); }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t fnfa_sent() const { return fnfa_sent_; }
  std::uint64_t reads_served() const { return reads_served_; }
  Bytes read_bytes_served() const { return read_bytes_served_; }
  const BlockScanner& scanner() const { return *scanner_; }
  std::uint64_t replicas_invalidated() const { return replicas_invalidated_; }
  std::uint64_t read_verify_failures() const { return read_verify_failures_; }

 private:
  struct PacketState {
    Bytes payload = 0;
    SimTime arrived_at = -1;  ///< when the packet reached this node's NIC
    bool written = false;
    bool downstream_acked = false;
    bool ack_sent = false;
    bool staging_released = false;
  };

  struct PipelineCtx {
    PipelineSetup setup;
    int my_index = 0;
    bool is_first = false;
    bool is_last = false;
    NodeId upstream;    // previous datanode; invalid when is_first
    NodeId downstream;  // next datanode; invalid when is_last
    std::int64_t resume_start_seq = 0;
    std::int64_t last_seq = -1;  ///< set once the last_in_block packet arrives
    /// Indexed by seq - resume_start_seq; sized once at setup from the
    /// block's length (PipelineSetup::block_bytes), so packets never grow it.
    std::vector<PacketState> packets;
    std::int64_t written_count = 0;
    std::int64_t acked_count = 0;
    Bytes staging_held = 0;  ///< bytes this pipeline holds in staging
    /// The writing client's staging buffer, looked up once at setup; valid
    /// while the pipeline lives (staging_ is cleared only by restart(),
    /// after crash() has emptied pipelines_).
    storage::StagingBuffer* staging = nullptr;
    bool fnfa_emitted = false;
    bool finalized = false;
  };

  /// In-flight commitBlockSynchronization round on this (primary) node.
  struct UcSync {
    UcRecoveryCommand cmd;
    std::vector<std::pair<NodeId, ReplicaProbeResult>> probes;
    std::size_t awaiting = 0;
  };

  void apply_uc_sync(const std::shared_ptr<UcSync>& sync);
  void report_uc_sync(BlockId block, Bytes length,
                      std::vector<NodeId> holders);

  /// The state of packet `seq` of `ctx`'s block (checked in range).
  PacketState& packet_state(PipelineCtx& ctx, std::int64_t seq);
  void process_packet(const WirePacket& packet, SimTime arrived_at);
  void on_packet_written(PipelineId pipeline, const WirePacket& packet);
  void maybe_ack_upstream(PipelineCtx& ctx, std::int64_t seq);
  void send_ack_upstream(PipelineCtx& ctx, PipelineAck ack);
  void maybe_emit_fnfa(PipelineCtx& ctx);
  void maybe_finalize(PipelineId pipeline, PipelineCtx& ctx);
  /// BlockStore::finalize plus the delta entry for the next block report;
  /// the only way this node finalizes a replica.
  Result<Bytes> finalize_replica(BlockId block);
  void release_packet_staging(PipelineCtx& ctx, PacketState& st);
  /// Returns everything `ctx` still holds in staging (a torn-down pipeline).
  void release_pipeline_staging(PipelineCtx& ctx);
  storage::StagingBuffer& staging_for(ClientId client);
  /// Streams read packet `seq` (disk read then network send), then chains
  /// the next one; the disk FIFO interleaves these with pipeline writes.
  /// Every packet before the last carries a full transfer unit, so `seq`
  /// alone locates the packet in the request.
  void serve_read_packet(const ReadRequest& request, std::int64_t seq);

  sim::Simulation& sim_;
  Transport& transport_;
  rpc::RpcBus& rpc_;
  Namenode& namenode_;
  const HdfsConfig& config_;
  NodeId self_;
  Options options_;
  std::function<Datanode*(NodeId)> peer_resolver_;

  std::unique_ptr<storage::DiskDevice> disk_;
  storage::BlockStore store_;
  BlockReporter reporter_{store_};
  std::unordered_map<ClientId, std::unique_ptr<storage::StagingBuffer>>
      staging_;
  std::unordered_map<PipelineId, PipelineCtx> pipelines_;
  std::set<std::pair<std::int64_t, std::int64_t>> corrupt_injections_;
  std::set<std::uint64_t> corrupt_at_count_;

  std::unique_ptr<sim::PeriodicTask> heartbeat_;
  std::unique_ptr<BlockScanner> scanner_;
  bool crashed_ = false;
  std::uint64_t packets_received_ = 0;
  std::uint64_t fnfa_sent_ = 0;
  std::uint64_t reads_served_ = 0;
  Bytes read_bytes_served_ = 0;
  std::uint64_t replicas_invalidated_ = 0;
  std::uint64_t read_verify_failures_ = 0;
  /// Reads a hedged client told us we lost; the serving chain stops at the
  /// next packet boundary and drops the entry.
  std::unordered_set<std::int64_t> cancelled_reads_;
  /// Cached registry handle for this node's arrival->ACK latency (stays
  /// valid for the node's lifetime; smarthsim resets the registry only
  /// before constructing a fresh cluster).
  metrics::LatencyHistogram* ack_latency_hist_ = nullptr;
  /// Cached handle for serve latency of cancelled (hedge-loser) reads — kept
  /// apart from ack_latency_hist_ so straggler attribution stays clean.
  metrics::LatencyHistogram* hedge_cancelled_hist_ = nullptr;
};

}  // namespace smarth::hdfs
