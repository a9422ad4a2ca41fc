// The namenode: file-system namespace, block manager, datanode liveness and
// (for SMARTH) the per-client transfer-speed board that global optimization
// consults. Methods here are the RPC handler bodies; callers invoke them
// through rpc::RpcBus so they pay the control-plane cost Tn.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <map>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "hdfs/block_report.hpp"
#include "hdfs/lease_manager.hpp"
#include "hdfs/placement.hpp"
#include "hdfs/suspicion.hpp"
#include "hdfs/types.hpp"
#include "net/topology.hpp"
#include "sim/periodic_task.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::hdfs {

struct EditOp;
class EditLog;
struct NamenodeImage;

/// Per-client map of the latest observed transfer speed to each datanode —
/// the information clients piggyback on their heartbeats (paper §III-B).
class SpeedBoard {
 public:
  void update(ClientId client, const SpeedRecord& record);
  bool has_records(ClientId client) const;
  std::optional<Bandwidth> speed(ClientId client, NodeId datanode) const;
  /// Latest record per datanode for this client (unordered); nullptr when
  /// the client has reported nothing.
  const std::unordered_map<NodeId, SpeedRecord>* records(
      ClientId client) const;
  std::size_t client_count() const { return boards_.size(); }

 private:
  std::unordered_map<ClientId, std::unordered_map<NodeId, SpeedRecord>>
      boards_;
};

enum class FileState { kUnderConstruction, kClosed };

struct FileEntry {
  FileId id;
  std::string path;
  ClientId lease_holder;
  FileState state = FileState::kUnderConstruction;
  std::vector<BlockId> blocks;
  /// Lease recovery in progress: the writer's lease expired and the file's
  /// UC blocks are being synchronized. The namespace entry is frozen —
  /// addBlock/complete from the (possibly returned) writer are refused.
  bool recovering = false;
  /// Closed by lease recovery at a consistent prefix rather than by its
  /// writer; the writer's own complete() must not report success.
  bool closed_by_recovery = false;

  friend bool operator==(const FileEntry&, const FileEntry&) = default;
};

struct BlockRecord {
  BlockId id;
  FileId file;
  std::vector<NodeId> expected_targets;
  /// Datanode -> reported finalized replica length.
  std::unordered_map<NodeId, Bytes> reported;
  /// Nodes whose replica of this block was reported corrupt. Entries persist
  /// until the block itself is deleted: a stale heartbeat report (or a copy
  /// that dodged invalidation) must never resurrect a condemned replica, and
  /// these nodes are excluded from re-replication targets for this block.
  std::set<NodeId> corrupt_replicas;
};

class Namenode {
 public:
  Namenode(sim::Simulation& sim, const net::Topology& topology,
           const HdfsConfig& config, NodeId self);

  NodeId node_id() const { return self_; }
  const HdfsConfig& config() const { return config_; }

  /// Installs the placement policy (default: DefaultPlacementPolicy).
  void set_placement_policy(std::unique_ptr<PlacementPolicy> policy);
  const PlacementPolicy& placement_policy() const { return *policy_; }

  /// Manual safe-mode toggle (admin / tests). Clears the automatic restart
  /// safe mode too — an explicit override always wins.
  void set_safe_mode(bool on) {
    safe_mode_ = on;
    safe_mode_auto_ = false;
  }
  bool safe_mode() const { return safe_mode_; }

  // --- Durability / restart --------------------------------------------------
  /// Attaches the write-ahead journal: every durable namespace mutation from
  /// here on is appended as the typed op it was applied from. Null detaches.
  void attach_edit_log(EditLog* log) { edit_log_ = log; }

  /// Snapshot of all durable state (namespace, leases, recoveries, id
  /// high-water marks, outcome counters). Excludes replica locations and
  /// datanode liveness — both are soft state rebuilt from block reports.
  NamenodeImage capture_image() const;
  /// The same snapshot written into `image`, reusing its strings and vectors
  /// (the checkpointer's image between checkpoints); `image.last_txid` is
  /// zeroed, as in a fresh capture.
  void capture_image(NamenodeImage& image) const;
  /// Replaces durable state with `image` (volatile state untouched).
  void restore_image(const NamenodeImage& image);
  /// Applies one journaled op to the namespace — pure state manipulation
  /// using the op's own timestamp; never journals, never invokes executors.
  /// The only code that changes durable namespace state: used by restart
  /// replay, by the warm standby's tailer and by every live mutation.
  void apply_edit(const EditOp& op);

  /// Control-plane crash: freezes background monitors and marks the process
  /// down. RPC/network isolation is the cluster wiring's job.
  void crash();
  bool crashed() const { return crashed_; }
  /// Process restore: durable state = `image` + replayed `tail`, volatile
  /// state (liveness, replica map, speed board) dropped, lease clocks reset,
  /// safe mode entered until enough replicas are re-reported. Returns the
  /// number of tail ops replayed.
  std::size_t restart(const NamenodeImage& image,
                      const std::vector<EditOp>& tail);
  std::uint64_t restarts() const { return restarts_; }

  /// Fraction of closed-file blocks with >=1 reported non-corrupt replica
  /// (the safe-mode exit criterion; 1.0 for an empty namespace).
  double safe_blocks_fraction() const;
  /// Time of the most recent automatic safe-mode exit (-1 if never).
  SimTime last_safe_mode_exit() const { return last_safe_mode_exit_; }

  // --- Datanode lifecycle ----------------------------------------------------
  void register_datanode(NodeId dn);
  /// Returns false when `dn` is unknown (e.g. the namenode restarted and
  /// lost its registration): the datanode must re-register, which its
  /// heartbeat loop does by resending registration + a full block report.
  bool handle_heartbeat(NodeId dn);
  bool is_alive(NodeId dn) const;
  /// Registered datanodes heard from within datanode_dead_interval, in
  /// registration order (read from the alive index).
  const std::vector<NodeId>& alive_datanodes() const {
    return alive_index().nodes();
  }
  std::size_t registered_datanode_count() const { return datanodes_.size(); }

  // --- ClientProtocol --------------------------------------------------------
  /// Step 1 of the write workflow: namespace checks, then create the entry.
  /// With `overwrite`, an existing *closed* file is replaced (HDFS's
  /// create-with-overwrite). An existing open file whose holder's lease has
  /// soft-expired triggers lease recovery and returns the retryable code
  /// `recovery_in_progress`; the caller re-issues create() once the old
  /// file has been closed at its consistent prefix.
  Result<FileId> create(const std::string& path, ClientId client,
                        bool overwrite = false);

  /// Allocates the next block of `file` and chooses its pipeline.
  /// `deprioritized` nodes (client quarantine) are placed only as a last
  /// resort. `block_index` is the index the client is asking for (HDFS's
  /// `previous` argument): if that block was already allocated — the earlier
  /// response was lost and this is a retry — the existing allocation is
  /// returned instead of leaking an orphan block.
  Result<LocatedBlock> add_block(FileId file, ClientId client,
                                 NodeId client_node,
                                 const std::vector<NodeId>& excluded,
                                 const std::vector<NodeId>& deprioritized = {},
                                 std::int64_t block_index = -1);

  /// Recovery support: picks `count` replacement datanodes for `block`,
  /// excluding existing targets and `excluded`; `deprioritized` as above.
  Result<std::vector<NodeId>> get_additional_datanodes(
      BlockId block, ClientId client, NodeId client_node,
      const std::vector<NodeId>& existing, const std::vector<NodeId>& excluded,
      int count, const std::vector<NodeId>& deprioritized = {});

  /// Replaces the expected pipeline of `block` after recovery.
  Status update_block_targets(BlockId block, std::vector<NodeId> targets);

  /// Completes the file if every block has at least one reported replica.
  /// Returns false (retryable) otherwise, matching HDFS complete() semantics.
  Result<bool> complete(FileId file, ClientId client);

  /// Read path: the blocks of `path` with their live replica holders,
  /// sorted by network distance from `reader` (HDFS returns the closest
  /// replica first).
  Result<std::vector<LocatedBlock>> get_block_locations(
      const std::string& path, NodeId reader) const;

  // --- Re-replication monitor -------------------------------------------------
  /// Copies `length` bytes of `block` from `source` to `target` and invokes
  /// `done(success)`; installed by the cluster wiring (the namenode itself
  /// never touches block data, it only orchestrates).
  using ReplicationExecutor =
      std::function<void(NodeId source, NodeId target, BlockId block,
                         Bytes length, std::function<void(bool)> done)>;

  /// Starts the background monitor: every `scan_interval` it scans closed
  /// files for blocks whose live replica count has dropped below the
  /// replication factor and schedules copies from a surviving holder to a
  /// freshly placed node (HDFS's under-replicated block queue).
  void enable_rereplication(ReplicationExecutor executor,
                            SimDuration scan_interval = seconds(5));
  std::uint64_t rereplications_scheduled() const {
    return rereplications_scheduled_;
  }
  std::uint64_t rereplications_completed() const {
    return rereplications_completed_;
  }
  /// Blocks of closed files currently below the replication factor
  /// (counting live holders only).
  std::vector<BlockId> under_replicated_blocks() const;

  // --- Corrupt-replica handling ----------------------------------------------
  /// Tells datanode `node` to drop its replica of `block`; installed by the
  /// cluster wiring (like the replication executor, the namenode only
  /// orchestrates — it never touches replica data).
  using InvalidationExecutor = std::function<void(NodeId node, BlockId block)>;
  void set_invalidation_executor(InvalidationExecutor executor) {
    invalidation_executor_ = std::move(executor);
  }

  /// Reader / scanner / copy-source report: `node`'s replica of `block`
  /// failed checksum verification (HDFS reportBadBlocks). The replica is
  /// quarantined — dropped from the location map, excluded from future
  /// placement for this block — and an invalidation is sent to the node; the
  /// re-replication monitor then restores the replication factor from a
  /// verified-good copy.
  void report_bad_replica(BlockId block, NodeId node);

  std::uint64_t invalidations_issued() const { return invalidations_issued_; }

  // --- Gray-failure suspicion --------------------------------------------------
  /// Client slowness evidence: a write pipeline evicted `node` as a
  /// straggler, or a hedged read beat it to the first byte-complete
  /// response. Adds `weight` to the node's decaying suspicion score; nodes
  /// at or above the threshold are demoted in placement ordering and in
  /// SMARTH's top-n selection. Unlike report_bad_replica this carries no
  /// data-integrity verdict — the node is slow, not wrong.
  void report_slow_datanode(NodeId node, double weight);
  const SuspicionList& suspicion() const { return suspicion_; }
  std::uint64_t slow_node_reports() const { return suspicion_.reports(); }

  // --- Lease management / writer-crash recovery -------------------------------
  /// Client heartbeat: renews the client's lease and (SMARTH) records any
  /// piggybacked speed observations.
  void client_heartbeat(ClientId client,
                        const std::vector<SpeedRecord>& records);

  /// Sends `cmd` to `primary`, the datanode elected to run
  /// commitBlockSynchronization for one UC block. Installed by the cluster
  /// wiring; returns false when the primary cannot be reached at all (the
  /// monitor then retries with fresh liveness data).
  using UcRecoveryExecutor =
      std::function<bool(NodeId primary, const UcRecoveryCommand& cmd)>;

  /// Starts the lease monitor: every `scan_interval` (default: the config's
  /// lease_monitor_interval) it recovers files whose holder's lease passed
  /// the hard limit and drives in-flight UC block synchronizations
  /// (re-electing primaries past their round deadline, abandoning blocks
  /// that exhaust their attempts).
  void enable_lease_recovery(UcRecoveryExecutor executor,
                             SimDuration scan_interval = 0);

  /// Forces lease recovery of an open file (also invoked internally on
  /// hard expiry and by create-takeover past the soft limit).
  Status start_lease_recovery(FileId file);

  /// Primary datanode -> namenode: the replicas of `block` were reconciled
  /// and finalized at `length` on `holders`. Empty `holders` (or zero
  /// length) means no durable replica survived: the block is abandoned and
  /// the file truncated before it. Stale and duplicate commits are ignored.
  void commit_block_synchronization(BlockId block, Bytes length,
                                    const std::vector<NodeId>& holders);

  const LeaseManager& lease_manager() const { return leases_; }
  std::uint64_t lease_expiries() const { return lease_expiries_; }
  std::uint64_t uc_blocks_recovered() const { return uc_blocks_recovered_; }
  Bytes bytes_salvaged() const { return bytes_salvaged_; }
  std::uint64_t orphans_abandoned() const { return orphans_abandoned_; }
  std::uint64_t client_heartbeats() const { return client_heartbeats_; }

  // --- DatanodeProtocol ------------------------------------------------------
  /// A datanode finished (finalized) a replica of `block`.
  void block_received(NodeId dn, BlockId block, Bytes length);

  /// A heartbeat's block report from `dn`. The result is always that of
  /// calling block_received on every entry of `report.full` in order; when
  /// the report cursor proves all but the delta would be no-op re-inserts,
  /// only the delta is applied (DESIGN.md §13).
  void block_report(NodeId dn, const BlockReport& report);

  // --- SMARTH extension ------------------------------------------------------
  /// Clients report observed first-datanode transfer speeds with their
  /// heartbeats.
  void report_client_speeds(ClientId client,
                            const std::vector<SpeedRecord>& records);
  const SpeedBoard& speed_board() const { return speeds_; }

  // --- Introspection (tests, reports) ---------------------------------------
  const FileEntry* file(FileId id) const;
  const FileEntry* file_by_path(const std::string& path) const;
  const BlockRecord* block(BlockId id) const;
  std::size_t block_count() const { return blocks_.size(); }
  std::uint64_t heartbeats_received() const { return heartbeats_; }

 private:
  struct UcBlockPending {
    SimTime retry_at = 0;  ///< next primary (re-)election no earlier than this
    int attempts = 0;
  };
  struct LeaseRecoveryState {
    SimTime started_at = 0;
    std::map<BlockId, UcBlockPending> pending;  ///< blocks awaiting commit
  };

  /// Where `dn`'s heartbeat reports stand: the last one applied, the replica
  /// epoch after it, and whether its every entry was a plain insert (so
  /// replaying any of them now would be a no-op).
  struct ReportCursor {
    std::uint64_t seq = 0;
    std::uint64_t epoch = 0;
    bool clean = false;
  };

  /// The body of block_received; returns whether the entry took the plain
  /// insert branch (known block, replica not quarantined).
  bool apply_replica(NodeId dn, BlockId block, Bytes length);

  bool registered(NodeId dn) const {
    return dn.valid() &&
           static_cast<std::size_t>(dn.value()) < last_heartbeat_.size() &&
           last_heartbeat_[static_cast<std::size_t>(dn.value())] !=
               kUnregistered;
  }
  /// The alive index, rebuilt first if liveness may have changed since the
  /// last build (see alive_stale_ / alive_valid_until_).
  const AliveIndex& alive_index() const;
  PlacementContext make_context(Rng& rng,
                                const std::vector<NodeId>* deprioritized =
                                    nullptr) const;
  void scan_for_under_replication();
  int live_replica_count(const BlockRecord& record) const;
  void lease_scan();
  void issue_uc_recoveries(FileId file, LeaseRecoveryState& state);
  /// Drops entry.blocks[first_removed..] from the namespace (orphan blocks
  /// with no durable data — the consistent prefix ends before them).
  void truncate_file_blocks(FileId file, std::size_t first_removed);
  void maybe_close_recovered(FileId file);
  /// The one live mutation path: stamps `op` with now, applies it through
  /// apply_edit and appends it to the attached edit log.
  void commit(EditOp op);
  void renew_lease(ClientId client);
  /// Leaves automatic safe mode once safe_blocks_fraction() crosses the
  /// configured threshold; manual safe mode is never auto-exited.
  void maybe_exit_safe_mode();
  void enter_safe_mode();

  sim::Simulation& sim_;
  const net::Topology& topology_;
  const HdfsConfig& config_;
  NodeId self_;
  std::unique_ptr<PlacementPolicy> policy_;
  bool safe_mode_ = false;
  /// Safe mode entered automatically by restart (exits on replica threshold).
  bool safe_mode_auto_ = false;
  /// Datanodes registered before the last crash; safe mode holds until that
  /// many have re-registered (in addition to the replica threshold).
  std::size_t safe_mode_min_datanodes_ = 0;
  SimTime last_safe_mode_exit_ = -1;

  EditLog* edit_log_ = nullptr;
  bool crashed_ = false;
  std::uint64_t restarts_ = 0;
  /// Force-exits a safe mode that replica re-reports alone can never satisfy
  /// (e.g. a block whose every replica is gone for good).
  sim::EventHandle safe_mode_timeout_;

  /// Registered datanodes, in registration order.
  std::vector<NodeId> datanodes_;
  /// Last heartbeat (or registration) time by NodeId value; kUnregistered
  /// for hosts that are not registered datanodes.
  static constexpr SimTime kUnregistered = std::numeric_limits<SimTime>::min();
  std::vector<SimTime> last_heartbeat_;

  IdGenerator<FileId> file_ids_;
  IdGenerator<BlockId> block_ids_;
  std::unordered_map<FileId, FileEntry> files_;
  std::unordered_map<std::string, FileId> files_by_path_;
  std::unordered_map<BlockId, BlockRecord> blocks_;

  SpeedBoard speeds_;
  std::uint64_t heartbeats_ = 0;

  /// Heartbeat report cursors, by NodeId value.
  std::vector<ReportCursor> report_cursors_;
  /// Moves on every change to replica state that is not a datanode's own
  /// report (the epoch triggers, DESIGN.md §13). A cursor from an older
  /// epoch makes that datanode's next report apply in full.
  std::uint64_t replica_epoch_ = 0;
  /// nn.block_report.entries / .full and namenode.complete_calls, resolved
  /// on first use.
  metrics::Counter* report_entries_counter_ = nullptr;
  metrics::Counter* report_full_counter_ = nullptr;
  metrics::Counter* complete_calls_counter_ = nullptr;

  LeaseManager leases_;
  /// Reserved holder expired writers' files are reassigned to while the
  /// namenode recovers them (HDFS's NN_RECOVERY lease holder).
  static constexpr ClientId kRecoveryHolder{-2};
  UcRecoveryExecutor uc_recovery_executor_;
  std::unique_ptr<sim::PeriodicTask> lease_task_;
  std::map<FileId, LeaseRecoveryState> lease_recoveries_;  ///< deterministic
  // Durable salvage accounting: fsimage state, restored on replay. The live
  // increments also bump namenode.lease_recoveries, .uc_blocks_recovered,
  // .bytes_salvaged and .orphans_abandoned in the metrics registry.
  std::uint64_t lease_expiries_ = 0;
  std::uint64_t uc_blocks_recovered_ = 0;
  Bytes bytes_salvaged_ = 0;
  std::uint64_t orphans_abandoned_ = 0;
  std::uint64_t client_heartbeats_ = 0;

  InvalidationExecutor invalidation_executor_;
  std::uint64_t invalidations_issued_ = 0;

  /// Decaying slowness scores; volatile like liveness (dropped on restart —
  /// a rebooted namenode re-learns who is slow from fresh reports).
  SuspicionList suspicion_;

  ReplicationExecutor replication_executor_;
  std::unique_ptr<sim::PeriodicTask> rereplication_task_;
  /// Block -> deadline of its in-flight copy. A copy whose completion never
  /// arrives (partition, target crash) expires and the scan retries it.
  std::unordered_map<BlockId, SimTime> rereplication_pending_;
  std::uint64_t rereplications_scheduled_ = 0;
  std::uint64_t rereplications_completed_ = 0;

  // Cached alive index. It is exact until the earliest heartbeat deadline
  // among its nodes passes (alive_valid_until_), or until a registration, a
  // restart or a heartbeat from an expired node marks it stale.
  mutable AliveIndex alive_;
  mutable bool alive_stale_ = true;
  mutable SimTime alive_valid_until_ = 0;
  mutable std::vector<NodeId> alive_scratch_;  // rebuild buffer
  // Reused scratch vector for the suspicion snapshot handed to placement
  // contexts.
  mutable std::vector<NodeId> suspect_scratch_;
};

}  // namespace smarth::hdfs
