#include "hdfs/namenode.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "hdfs/edit_log.hpp"
#include "hdfs/fsimage.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace {

/// Instant on the shared "namenode" track; guarded so the disabled path costs
/// one branch.
void trace_nn(smarth::trace::Category cat, const char* name,
              smarth::trace::Args args) {
  if (smarth::trace::active()) {
    smarth::trace::recorder()->instant(cat, "namenode", name, std::move(args));
  }
}

}  // namespace

namespace smarth::hdfs {

void SpeedBoard::update(ClientId client, const SpeedRecord& record) {
  auto& board = boards_[client];
  auto [it, inserted] = board.try_emplace(record.datanode, record);
  if (!inserted && record.measured_at >= it->second.measured_at) {
    it->second = record;
  }
}

bool SpeedBoard::has_records(ClientId client) const {
  auto it = boards_.find(client);
  return it != boards_.end() && !it->second.empty();
}

std::optional<Bandwidth> SpeedBoard::speed(ClientId client,
                                           NodeId datanode) const {
  auto it = boards_.find(client);
  if (it == boards_.end()) return std::nullopt;
  auto jt = it->second.find(datanode);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second.speed;
}

const std::unordered_map<NodeId, SpeedRecord>* SpeedBoard::records(
    ClientId client) const {
  auto it = boards_.find(client);
  return it == boards_.end() ? nullptr : &it->second;
}

Namenode::Namenode(sim::Simulation& sim, const net::Topology& topology,
                   const HdfsConfig& config, NodeId self)
    : sim_(sim), topology_(topology), config_(config), self_(self),
      policy_(std::make_unique<DefaultPlacementPolicy>()),
      leases_(config.lease_soft_limit, config.lease_hard_limit),
      suspicion_(config.suspicion_half_life, config.suspicion_threshold) {}

void Namenode::set_placement_policy(std::unique_ptr<PlacementPolicy> policy) {
  SMARTH_CHECK(policy != nullptr);
  policy_ = std::move(policy);
}

void Namenode::register_datanode(NodeId dn) {
  // Registration into a crashed control plane is lost with it; the datanode
  // re-registers when a post-restore heartbeat comes back unrecognized.
  if (crashed_) return;
  // Idempotent: a crashed datanode that restarts re-registers (real HDFS
  // treats it as a fresh registration of a known storage id); the heartbeat
  // clock restarts so the node counts as alive again immediately.
  SMARTH_CHECK(dn.valid());
  if (registered(dn)) {
    metrics::global_registry().counter("namenode.reregistrations").add();
    // A re-registration announces a fresh process: whatever replica state its
    // previous incarnation reported is stale until the block report that
    // follows the registration re-asserts it. Dropping it here (instead of
    // merging) is what keeps re-registration idempotent — the old entries
    // cannot double-count live replicas or shadow replicas lost in the
    // restart. Quarantine entries stay: a condemned replica remains condemned
    // across its node's restarts.
    for (auto& [id, record] : blocks_) record.reported.erase(dn);
    ++replica_epoch_;
    SMARTH_INFO("namenode") << "datanode " << dn.value() << " re-registered";
  } else {
    datanodes_.push_back(dn);
    const auto slot = static_cast<std::size_t>(dn.value());
    if (last_heartbeat_.size() <= slot) {
      last_heartbeat_.resize(slot + 1, kUnregistered);
    }
  }
  last_heartbeat_[static_cast<std::size_t>(dn.value())] = sim_.now();
  alive_stale_ = true;
  // A returning datanode may be the one safe mode was waiting on.
  maybe_exit_safe_mode();
}

bool Namenode::handle_heartbeat(NodeId dn) {
  if (!registered(dn)) {
    // Unknown node — typically this namenode restarted and lost its
    // registration table. The datanode re-registers on seeing `false`.
    SMARTH_DEBUG("namenode") << "heartbeat from unregistered datanode "
                             << dn.value() << "; requesting re-registration";
    return false;
  }
  SimTime& last = last_heartbeat_[static_cast<std::size_t>(dn.value())];
  // A node back from expiry rejoins the alive index.
  if (sim_.now() - last > config_.datanode_dead_interval) alive_stale_ = true;
  last = sim_.now();
  ++heartbeats_;
  return true;
}

bool Namenode::is_alive(NodeId dn) const {
  if (!registered(dn)) return false;
  return sim_.now() - last_heartbeat_[static_cast<std::size_t>(dn.value())] <=
         config_.datanode_dead_interval;
}

const AliveIndex& Namenode::alive_index() const {
  if (!alive_stale_ && sim_.now() <= alive_valid_until_) return alive_;
  alive_scratch_.clear();
  alive_valid_until_ = std::numeric_limits<SimTime>::max();
  for (NodeId dn : datanodes_) {
    if (!is_alive(dn)) continue;
    alive_scratch_.push_back(dn);
    alive_valid_until_ = std::min(
        alive_valid_until_,
        last_heartbeat_[static_cast<std::size_t>(dn.value())] +
            config_.datanode_dead_interval);
  }
  alive_.assign(topology_, alive_scratch_);
  alive_stale_ = false;
  return alive_;
}

PlacementContext Namenode::make_context(
    Rng& rng, const std::vector<NodeId>* deprioritized) const {
  PlacementContext ctx{topology_, alive_index(), rng, &speeds_};
  if (deprioritized != nullptr && !deprioritized->empty()) {
    ctx.deprioritized = deprioritized;
  }
  suspect_scratch_ = suspicion_.suspects(sim_.now());
  if (!suspect_scratch_.empty()) ctx.suspects = &suspect_scratch_;
  return ctx;
}

Result<FileId> Namenode::create(const std::string& path, ClientId client,
                                bool overwrite) {
  // The namenode's pre-creation checks (paper §II step 1).
  if (safe_mode_) {
    return Error{"safe_mode", "namenode is in safe mode"};
  }
  if (path.empty() || path.front() != '/') {
    return Error{"invalid_path", "path must be absolute: " + path};
  }
  renew_lease(client);
  if (auto it = files_by_path_.find(path); it != files_by_path_.end()) {
    FileEntry& existing = files_.at(it->second);
    if (existing.state == FileState::kUnderConstruction) {
      if (existing.recovering) {
        return Error{"recovery_in_progress",
                     "lease recovery of " + path + " is in progress"};
      }
      if (existing.lease_holder == client) {
        // Retry of a create() whose response was lost: same client, file
        // still open — hand back the existing entry instead of failing.
        return existing.id;
      }
      if (leases_.soft_expired(existing.lease_holder, sim_.now())) {
        // The previous writer stopped renewing: recover the file now so the
        // new writer's retry finds it closed (HDFS recoverLeaseInternal).
        SMARTH_WARN("namenode")
            << "create(" << path << "): holder "
            << existing.lease_holder.to_string()
            << " soft-expired; starting lease recovery";
        start_lease_recovery(existing.id);
        return Error{"recovery_in_progress",
                     "lease recovery of " + path + " started"};
      }
      return Error{"file_exists",
                   "file is being written by another client: " + path};
    }
    if (!overwrite) {
      return Error{"file_exists", "file already exists: " + path};
    }
    EditOp op;
    op.type = EditOpType::kEraseFile;
    op.file = existing.id;
    commit(std::move(op));
  }
  const FileId id = file_ids_.next();
  EditOp op;
  op.type = EditOpType::kCreate;
  op.file = id;
  op.client = client;
  op.path = path;
  commit(std::move(op));
  SMARTH_DEBUG("namenode") << "created " << path << " as " << id.to_string();
  return id;
}

Result<LocatedBlock> Namenode::add_block(
    FileId file, ClientId client, NodeId client_node,
    const std::vector<NodeId>& excluded,
    const std::vector<NodeId>& deprioritized, std::int64_t block_index) {
  if (safe_mode_) {
    return Error{"safe_mode", "namenode is in safe mode"};
  }
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Error{"file_not_found", "unknown file " + file.to_string()};
  }
  FileEntry& entry = it->second;
  if (entry.state != FileState::kUnderConstruction) {
    return Error{"file_closed", "addBlock on closed file " + entry.path};
  }
  if (entry.recovering) {
    return Error{"recovery_in_progress",
                 "lease recovery of " + entry.path + " is in progress"};
  }
  if (entry.lease_holder != client) {
    return Error{"lease_mismatch", "client does not hold the lease on " +
                                       entry.path};
  }
  renew_lease(client);
  if (block_index >= 0 &&
      block_index < static_cast<std::int64_t>(entry.blocks.size())) {
    // Retry of an addBlock whose response was lost: return the allocation
    // already made for this index rather than leaking an orphan block that
    // would keep complete() failing forever.
    const BlockId existing = entry.blocks[static_cast<std::size_t>(
        block_index)];
    const BlockRecord& record = blocks_.at(existing);
    SMARTH_DEBUG("namenode") << "addBlock retry for index " << block_index
                             << "; returning " << existing.to_string();
    return LocatedBlock{existing, record.expected_targets};
  }

  PlacementRequest request;
  request.client = client;
  request.client_node = client_node;
  request.replication = config_.replication;
  request.excluded = excluded;
  request.deprioritized = deprioritized;
  std::vector<NodeId> targets = policy_->choose_targets(
      request, make_context(sim_.rng(), &request.deprioritized));
  if (static_cast<int>(targets.size()) < config_.replication) {
    return Error{"insufficient_datanodes",
                 "could only place " + std::to_string(targets.size()) +
                     " of " + std::to_string(config_.replication) +
                     " replicas"};
  }

  const BlockId block = block_ids_.next();
  EditOp op;
  op.type = EditOpType::kAddBlock;
  op.file = file;
  op.block = block;
  op.client = client;
  op.nodes = targets;
  commit(std::move(op));
  if (trace::active()) {
    std::string joined;
    for (NodeId t : targets) {
      if (!joined.empty()) joined += "+";
      joined += t.to_string();
    }
    trace_nn(trace::Category::kBlock, "addBlock",
             {{"block", block.to_string()},
              {"file", entry.path},
              {"targets", joined}});
  }
  return LocatedBlock{block, std::move(targets)};
}

Result<std::vector<NodeId>> Namenode::get_additional_datanodes(
    BlockId block, ClientId client, NodeId client_node,
    const std::vector<NodeId>& existing, const std::vector<NodeId>& excluded,
    int count, const std::vector<NodeId>& deprioritized) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    return Error{"block_not_found", "unknown block " + block.to_string()};
  }
  PlacementRequest request;
  request.client = client;
  request.client_node = client_node;
  request.replication = count;
  request.excluded = excluded;
  request.deprioritized = deprioritized;
  // Existing pipeline members must not be chosen again.
  request.excluded.insert(request.excluded.end(), existing.begin(),
                          existing.end());

  std::vector<NodeId> chosen;
  const PlacementContext ctx =
      make_context(sim_.rng(), &request.deprioritized);
  for (int i = 0; i < count; ++i) {
    NodeId pick = pick_random_node(ctx, chosen, request.excluded);
    if (!pick.valid()) break;
    chosen.push_back(pick);
  }
  return chosen;
}

Status Namenode::update_block_targets(BlockId block,
                                      std::vector<NodeId> targets) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    return make_error("block_not_found", "unknown block " + block.to_string());
  }
  EditOp op;
  op.type = EditOpType::kUpdateTargets;
  op.block = block;
  op.file = it->second.file;
  op.nodes = std::move(targets);
  commit(std::move(op));
  return Status::ok_status();
}

Result<bool> Namenode::complete(FileId file, ClientId client) {
  metrics::global_registry().counter("namenode.complete_calls").add();
  if (safe_mode_) {
    // Not an error: the replica reports complete() depends on are still
    // arriving. The client retries, exactly as for minimum-replication waits.
    return false;
  }
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Error{"file_not_found", "unknown file " + file.to_string()};
  }
  FileEntry& entry = it->second;
  if (entry.lease_holder != client) {
    return Error{"lease_mismatch",
                 "client does not hold the lease on " + entry.path};
  }
  if (entry.recovering) {
    return Error{"recovery_in_progress",
                 "lease recovery of " + entry.path + " is in progress"};
  }
  if (entry.state == FileState::kClosed) {
    if (entry.closed_by_recovery) {
      // The file was closed at a salvaged prefix after this writer's lease
      // expired; reporting idempotent success would claim the whole upload
      // landed when it did not.
      return Error{"lease_expired",
                   "lease on " + entry.path +
                       " expired; file was closed by recovery"};
    }
    return true;  // idempotent
  }
  renew_lease(client);
  for (BlockId block : entry.blocks) {
    const auto bt = blocks_.find(block);
    SMARTH_CHECK(bt != blocks_.end());
    if (bt->second.reported.empty()) {
      return false;  // minimum replication not yet reached; client retries
    }
  }
  EditOp op;
  op.type = EditOpType::kCompleteFile;
  op.file = file;
  op.client = client;
  commit(std::move(op));
  trace_nn(trace::Category::kRun, "complete", {{"file", entry.path}});
  SMARTH_DEBUG("namenode") << "completed " << entry.path;
  return true;
}

Result<std::vector<LocatedBlock>> Namenode::get_block_locations(
    const std::string& path, NodeId reader) const {
  const FileEntry* entry = file_by_path(path);
  if (entry == nullptr) {
    return Error{"file_not_found", "no such file: " + path};
  }
  std::vector<LocatedBlock> located;
  located.reserve(entry->blocks.size());
  for (BlockId block : entry->blocks) {
    const auto it = blocks_.find(block);
    SMARTH_CHECK(it != blocks_.end());
    LocatedBlock lb;
    lb.block = block;
    bool has_clean_holder = false;
    for (const auto& [dn, len] : it->second.reported) {
      // Quarantined replicas are erased from `reported` on report; this
      // check also covers a racing re-report that slipped back in.
      if (it->second.corrupt_replicas.count(dn) > 0) continue;
      has_clean_holder = true;
      if (is_alive(dn)) lb.targets.push_back(dn);
      lb.length = std::max(lb.length, len);
    }
    // Distinguish "every known replica rotted" from "holders temporarily
    // dead": only the former is a hard integrity failure for the reader.
    lb.all_replicas_corrupt = lb.targets.empty() && !has_clean_holder &&
                              !it->second.corrupt_replicas.empty();
    // Closest replica first (HDFS sorts by NetworkTopology distance);
    // stable order within a distance class keeps runs deterministic.
    std::sort(lb.targets.begin(), lb.targets.end(),
              [&](NodeId a, NodeId b) {
                const int da = topology_.distance(reader, a);
                const int db = topology_.distance(reader, b);
                if (da != db) return da < db;
                return a < b;
              });
    located.push_back(std::move(lb));
  }
  return located;
}

void Namenode::block_received(NodeId dn, BlockId block, Bytes length) {
  apply_replica(dn, block, length);
}

void Namenode::block_report(NodeId dn, const BlockReport& report) {
  const auto slot = static_cast<std::size_t>(dn.value());
  if (report_cursors_.size() <= slot) report_cursors_.resize(slot + 1);
  ReportCursor& cursor = report_cursors_[slot];
  // Applying only the delta is exact when replaying every full-report entry
  // outside it would be a no-op. Each such entry was already in report
  // seq - 1 (see BlockReport::delta), which was applied as plain inserts,
  // and no epoch trigger has touched replica state since. The delta entries
  // must be plain inserts too; they name distinct blocks, so their order
  // does not matter, and outside safe mode no insert can trigger an exit.
  bool incremental = !safe_mode_ && cursor.clean &&
                     report.seq == cursor.seq + 1 &&
                     cursor.epoch == replica_epoch_;
  for (std::size_t i = 0; incremental && i < report.delta.size(); ++i) {
    const auto it = blocks_.find(report.delta[i].first);
    incremental = it != blocks_.end() &&
                  it->second.corrupt_replicas.count(dn) == 0;
  }
  const std::vector<BlockReport::Entry>& entries =
      incremental ? report.delta : report.full->entries();
  bool clean = true;
  for (const auto& [block, length] : entries) {
    clean = apply_replica(dn, block, length) && clean;
  }
  cursor = ReportCursor{report.seq, replica_epoch_, clean};

  if (report_entries_counter_ == nullptr) {
    report_entries_counter_ =
        &metrics::global_registry().counter("nn.block_report.entries");
  }
  report_entries_counter_->add(entries.size());
  if (!incremental) {
    if (report_full_counter_ == nullptr) {
      report_full_counter_ =
          &metrics::global_registry().counter("nn.block_report.full");
    }
    report_full_counter_->add();
  }
}

bool Namenode::apply_replica(NodeId dn, BlockId block, Bytes length) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    SMARTH_WARN("namenode") << "blockReceived for unknown block "
                            << block.to_string();
    return false;
  }
  if (it->second.corrupt_replicas.count(dn) > 0) {
    // The quarantine outlives the report that caused it: an in-flight or
    // heartbeat-carried re-report from a condemned replica is ignored, and
    // the invalidation is re-issued in case the first one was lost.
    SMARTH_DEBUG("namenode") << "ignoring blockReceived for quarantined "
                             << block.to_string() << " from node "
                             << dn.value();
    // Safe mode defers invalidation decisions: the replica map is still
    // being rebuilt and commands issued against it would be guesses.
    if (invalidation_executor_ && !safe_mode_) {
      ++invalidations_issued_;
      invalidation_executor_(dn, block);
    }
    return false;
  }
  auto [rt, inserted] = it->second.reported.try_emplace(dn, length);
  if (!inserted && rt->second != length) {
    // A replayed report would set the old length back.
    rt->second = length;
    ++replica_epoch_;
  }
  maybe_exit_safe_mode();
  return true;
}

void Namenode::report_bad_replica(BlockId block, NodeId node) {
  metrics::global_registry().counter("namenode.bad_replica_reports").add();
  trace_nn(trace::Category::kScanner, "report bad replica",
           {{"block", block.to_string()}, {"node", node.to_string()}});
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return;  // stale report on a deleted block
  BlockRecord& record = it->second;
  // The replica leaves the volatile location map on every report; only the
  // first report's verdict is durable.
  record.reported.erase(node);
  ++replica_epoch_;
  if (record.corrupt_replicas.count(node) == 0) {
    EditOp op;
    op.type = EditOpType::kQuarantine;
    op.block = block;
    op.file = record.file;
    op.node = node;
    commit(std::move(op));
    SMARTH_WARN("namenode") << block.to_string() << " on node "
                            << node.value()
                            << " reported corrupt; quarantined ("
                            << record.corrupt_replicas.size()
                            << " bad replica(s), "
                            << live_replica_count(record) << " live good)";
  }
  // Invalidate even on duplicate reports: the previous command may have been
  // lost to RPC chaos or a crashed node that has since restarted. Safe mode
  // defers the command (the quarantine itself is durable and re-issues once
  // the replica map is rebuilt).
  if (invalidation_executor_ && !safe_mode_) {
    ++invalidations_issued_;
    invalidation_executor_(node, block);
  }
}

void Namenode::report_slow_datanode(NodeId node, double weight) {
  suspicion_.report(node, weight, sim_.now());
  metrics::global_registry().counter("namenode.slow_node_reports").add();
  trace_nn(trace::Category::kRecovery, "slow datanode report",
           {{"node", node.to_string()},
            {"score", std::to_string(suspicion_.score(node, sim_.now()))}});
  SMARTH_INFO("namenode") << "slow report for datanode " << node.value()
                          << ": suspicion "
                          << suspicion_.score(node, sim_.now());
}

void Namenode::report_client_speeds(ClientId client,
                                    const std::vector<SpeedRecord>& records) {
  for (const SpeedRecord& r : records) speeds_.update(client, r);
  // Fresh speed evidence is the fast path out of suspicion: a suspected node
  // measured at least half as fast as the quickest node on the same client's
  // board has demonstrably recovered — clear it now instead of waiting for
  // the score to decay through the threshold.
  for (const SpeedRecord& r : records) {
    if (suspicion_.score(r.datanode, sim_.now()) <= 0.0) continue;
    Bandwidth best = r.speed;
    for (const auto& [dn, board] : *speeds_.records(client)) {
      if (board.speed.bytes_per_second() > best.bytes_per_second()) {
        best = board.speed;
      }
    }
    if (r.speed.bytes_per_second() * 2 >= best.bytes_per_second()) {
      suspicion_.clear(r.datanode);
      SMARTH_INFO("namenode") << "datanode " << r.datanode.value()
                              << " measured fast again; suspicion cleared";
    }
  }
}

void Namenode::client_heartbeat(ClientId client,
                                const std::vector<SpeedRecord>& records) {
  renew_lease(client);
  ++client_heartbeats_;
  if (!records.empty()) report_client_speeds(client, records);
}

void Namenode::enable_lease_recovery(UcRecoveryExecutor executor,
                                     SimDuration scan_interval) {
  SMARTH_CHECK(static_cast<bool>(executor));
  uc_recovery_executor_ = std::move(executor);
  if (scan_interval <= 0) scan_interval = config_.lease_monitor_interval;
  lease_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, scan_interval, "nn.lease_scan", [this] { lease_scan(); });
  lease_task_->start();
}

void Namenode::lease_scan() {
  // No expiry or recovery decisions in safe mode: the replica map the
  // pending-block computation and primary election read is still being
  // rebuilt from block reports. Lease clocks were reset at restart, so
  // nothing can expire before safe mode has had a chance to exit anyway.
  if (safe_mode_) return;
  const SimTime now = sim_.now();
  for (const auto& [holder, file] : leases_.hard_expired_files(now)) {
    if (holder == kRecoveryHolder) continue;
    auto it = files_.find(file);
    if (it == files_.end() ||
        it->second.state != FileState::kUnderConstruction ||
        it->second.recovering) {
      continue;
    }
    SMARTH_WARN("namenode")
        << "lease of " << holder.to_string() << " on " << it->second.path
        << " passed the hard limit; recovering";
    trace_nn(trace::Category::kLease, "lease hard-expired",
             {{"holder", holder.to_string()}, {"file", it->second.path}});
    start_lease_recovery(file);
  }
  // Drive in-flight recoveries: re-elect primaries whose round deadline
  // lapsed, abandon blocks that exhausted their attempts. Snapshot the keys
  // first — issuing may close (and erase) a recovery.
  std::vector<FileId> active;
  active.reserve(lease_recoveries_.size());
  for (const auto& [file, state] : lease_recoveries_) active.push_back(file);
  for (FileId file : active) {
    auto rt = lease_recoveries_.find(file);
    if (rt == lease_recoveries_.end()) continue;
    issue_uc_recoveries(file, rt->second);
  }
}

Status Namenode::start_lease_recovery(FileId file) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return make_error("file_not_found", "unknown file " + file.to_string());
  }
  FileEntry& entry = it->second;
  if (entry.state != FileState::kUnderConstruction) {
    return make_error("file_closed", entry.path + " is not open");
  }
  if (entry.recovering) return Status::ok_status();  // already in progress

  // The pending set is computed from the volatile replica map, so replay
  // cannot rederive it: the explicit block list rides in the op.
  EditOp op;
  op.type = EditOpType::kLeaseRecoveryStart;
  op.file = file;
  op.client = entry.lease_holder;
  for (BlockId block : entry.blocks) {
    const BlockRecord& record = blocks_.at(block);
    // A block every expected target already reported finalized is durable
    // as-is; anything less gets a commitBlockSynchronization round.
    bool fully_reported = !record.expected_targets.empty();
    for (NodeId target : record.expected_targets) {
      if (record.reported.count(target) == 0) {
        fully_reported = false;
        break;
      }
    }
    if (fully_reported) continue;
    op.blocks.push_back(block);
  }
  const std::size_t pending = op.blocks.size();
  commit(std::move(op));
  metrics::global_registry().counter("namenode.lease_recoveries").add();
  trace_nn(trace::Category::kLease, "lease recovery start",
           {{"file", entry.path}});
  SMARTH_INFO("namenode") << "lease recovery of " << entry.path << ": "
                          << pending << " of " << entry.blocks.size()
                          << " blocks need synchronization";
  if (pending == 0) {
    maybe_close_recovered(file);
  } else {
    issue_uc_recoveries(file, lease_recoveries_.at(file));
  }
  return Status::ok_status();
}

void Namenode::issue_uc_recoveries(FileId file, LeaseRecoveryState& state) {
  FileEntry& entry = files_.at(file);
  BlockId abandon_at;  // lowest block that exhausted its recovery budget
  for (auto& [block, pending] : state.pending) {
    if (sim_.now() < pending.retry_at) continue;
    if (pending.attempts >= config_.lease_recovery_max_attempts) {
      if (!abandon_at.valid()) abandon_at = block;
      continue;
    }
    const BlockRecord& record = blocks_.at(block);
    // Candidate replicas: the expected pipeline first (its head usually has
    // the longest prefix), then any other reported holders.
    std::vector<NodeId> targets = record.expected_targets;
    std::vector<NodeId> extra;
    for (const auto& [dn, len] : record.reported) {
      if (std::find(targets.begin(), targets.end(), dn) == targets.end()) {
        extra.push_back(dn);
      }
    }
    std::sort(extra.begin(), extra.end());
    targets.insert(targets.end(), extra.begin(), extra.end());

    NodeId primary;
    for (NodeId t : targets) {
      if (is_alive(t)) {
        primary = t;
        break;
      }
    }
    EditOp op;
    op.type = EditOpType::kUcAttempt;
    op.file = file;
    op.block = block;
    commit(std::move(op));  // charges the attempt against `pending`
    if (!primary.valid() || !uc_recovery_executor_) {
      // No live replica candidate right now; the attempt still counts so a
      // permanently dead pipeline cannot wedge the file forever.
      continue;
    }
    UcRecoveryCommand cmd;
    cmd.block = block;
    cmd.targets = targets;
    cmd.tail = block == entry.blocks.back();
    SMARTH_INFO("namenode")
        << "commitBlockSynchronization round " << pending.attempts << " for "
        << block.to_string() << " via primary " << primary.value()
        << (cmd.tail ? " (tail)" : "");
    uc_recovery_executor_(primary, cmd);
  }
  if (abandon_at.valid()) {
    SMARTH_WARN("namenode") << abandon_at.to_string()
                            << " exhausted its recovery budget; abandoning";
    const auto pos = std::find(entry.blocks.begin(), entry.blocks.end(),
                               abandon_at);
    SMARTH_CHECK(pos != entry.blocks.end());
    truncate_file_blocks(
        file, static_cast<std::size_t>(pos - entry.blocks.begin()));
    maybe_close_recovered(file);
  }
}

void Namenode::commit_block_synchronization(BlockId block, Bytes length,
                                            const std::vector<NodeId>&
                                                holders) {
  auto bt = blocks_.find(block);
  if (bt == blocks_.end()) return;  // block already abandoned; stale commit
  BlockRecord& record = bt->second;
  const FileId file = record.file;
  auto ft = files_.find(file);
  SMARTH_CHECK(ft != files_.end());
  FileEntry& entry = ft->second;
  auto rt = lease_recoveries_.find(file);
  if (!entry.recovering || rt == lease_recoveries_.end()) return;  // stale
  if (rt->second.pending.count(block) == 0) return;  // duplicate commit

  const auto pos = std::find(entry.blocks.begin(), entry.blocks.end(), block);
  SMARTH_CHECK(pos != entry.blocks.end());
  const std::size_t index =
      static_cast<std::size_t>(pos - entry.blocks.begin());

  if (holders.empty() || length == 0) {
    SMARTH_WARN("namenode") << "no durable replica of " << block.to_string()
                            << "; truncating " << entry.path << " to "
                            << index << " blocks";
    truncate_file_blocks(file, index);
    maybe_close_recovered(file);
    return;
  }
  EditOp op;
  op.type = EditOpType::kCommitBlockSync;
  op.file = file;
  op.block = block;
  op.length = length;
  op.nodes = holders;
  commit(std::move(op));
  // Replica locations are volatile: the synchronized holders replace them.
  record.reported.clear();
  ++replica_epoch_;
  for (NodeId dn : holders) {
    if (record.corrupt_replicas.count(dn) > 0) continue;
    record.reported[dn] = length;
  }
  metrics::global_registry().counter("namenode.uc_blocks_recovered").add();
  metrics::global_registry()
      .counter("namenode.bytes_salvaged")
      .add(static_cast<std::uint64_t>(length));
  trace_nn(trace::Category::kRecovery, "commitBlockSynchronization",
           {{"block", block.to_string()},
            {"length", std::to_string(length)},
            {"holders", std::to_string(holders.size())}});
  SMARTH_INFO("namenode") << block.to_string() << " synchronized at "
                          << length << " bytes on " << holders.size()
                          << " replicas";
  if (index + 1 < entry.blocks.size() && length < config_.block_size) {
    // A short *middle* block would shift every later block's file offset;
    // the consistent prefix ends here (can only happen when a pipeline
    // head died mid-propagation under multi-pipeline writes).
    SMARTH_WARN("namenode") << block.to_string() << " is short mid-file; "
                            << "truncating " << entry.path << " after it";
    truncate_file_blocks(file, index + 1);
  }
  maybe_close_recovered(file);
}

void Namenode::truncate_file_blocks(FileId file, std::size_t first_removed) {
  const std::size_t count = files_.at(file).blocks.size();
  if (first_removed >= count) return;
  EditOp op;
  op.type = EditOpType::kTruncateBlocks;
  op.file = file;
  op.index = static_cast<std::int64_t>(first_removed);
  commit(std::move(op));
  metrics::global_registry()
      .counter("namenode.orphans_abandoned")
      .add(count - first_removed);
}

void Namenode::maybe_close_recovered(FileId file) {
  auto rt = lease_recoveries_.find(file);
  if (rt == lease_recoveries_.end() || !rt->second.pending.empty()) return;
  EditOp op;
  op.type = EditOpType::kCloseRecovered;
  op.file = file;
  commit(std::move(op));
  const FileEntry& entry = files_.at(file);
  Bytes prefix = 0;
  for (BlockId block : entry.blocks) {
    const BlockRecord& record = blocks_.at(block);
    Bytes len = 0;
    for (const auto& [dn, l] : record.reported) len = std::max(len, l);
    prefix += len;
  }
  SMARTH_INFO("namenode") << "lease recovery closed " << entry.path << " at "
                          << prefix << " bytes (" << entry.blocks.size()
                          << " blocks)";
}

int Namenode::live_replica_count(const BlockRecord& record) const {
  int live = 0;
  for (const auto& [dn, len] : record.reported) {
    if (record.corrupt_replicas.count(dn) > 0) continue;
    if (is_alive(dn)) ++live;
  }
  return live;
}

std::vector<BlockId> Namenode::under_replicated_blocks() const {
  std::vector<BlockId> out;
  for (const auto& [id, record] : blocks_) {
    const auto ft = files_.find(record.file);
    if (ft == files_.end() || ft->second.state != FileState::kClosed) continue;
    if (live_replica_count(record) < config_.replication) out.push_back(id);
  }
  return out;
}

void Namenode::enable_rereplication(ReplicationExecutor executor,
                                    SimDuration scan_interval) {
  SMARTH_CHECK(static_cast<bool>(executor));
  replication_executor_ = std::move(executor);
  rereplication_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, scan_interval, "nn.rereplication_scan",
      [this] { scan_for_under_replication(); });
  rereplication_task_->start();
}

void Namenode::scan_for_under_replication() {
  // Safe mode defers re-replication: a replica map mid-rebuild makes every
  // block look under-replicated and would trigger a pointless copy storm.
  if (safe_mode_) return;
  // Refresh the backlog/liveness gauges on the scan cadence so the flight
  // recorder sees re-replication pressure between its own samples.
  metrics::global_registry().gauge("nn.under_replicated").set(
      static_cast<double>(under_replicated_blocks().size()));
  metrics::global_registry().gauge("nn.live_datanodes").set(
      static_cast<double>(alive_datanodes().size()));
  for (auto& [id, record] : blocks_) {
    const auto ft = files_.find(record.file);
    // Open files are the writer's responsibility (pipeline recovery).
    if (ft == files_.end() || ft->second.state != FileState::kClosed) continue;
    if (const auto pending = rereplication_pending_.find(id);
        pending != rereplication_pending_.end()) {
      // A copy is in flight; retry only once its deadline lapses (it may
      // have been swallowed by a partition or a target crash).
      if (sim_.now() < pending->second) continue;
      rereplication_pending_.erase(pending);
    }
    if (live_replica_count(record) >= config_.replication) continue;

    // Source: any live holder; target: a fresh node, placed like a random
    // replica, excluding every current holder (dead ones included — they
    // may come back with the stale copy).
    NodeId source;
    Bytes length = 0;
    std::vector<NodeId> holders;
    for (const auto& [dn, len] : record.reported) {
      if (record.corrupt_replicas.count(dn) > 0) continue;
      holders.push_back(dn);
      if (!source.valid() && is_alive(dn)) {
        source = dn;
        length = len;
      }
    }
    // Nodes with a condemned copy of this block never receive it again
    // (their rot may be media-related) and are useless as sources.
    for (NodeId dn : record.corrupt_replicas) holders.push_back(dn);
    if (!source.valid()) continue;  // nothing to copy from; data loss

    const PlacementContext ctx = make_context(sim_.rng());
    const NodeId target = pick_random_node(ctx, {}, holders);
    if (!target.valid()) continue;  // cluster too small right now

    rereplication_pending_[id] = sim_.now() + seconds(60);
    ++rereplications_scheduled_;
    metrics::global_registry().counter("namenode.rereplications").add();
    trace_nn(trace::Category::kRecovery, "re-replicate",
             {{"block", id.to_string()},
              {"source", source.to_string()},
              {"target", target.to_string()}});
    SMARTH_INFO("namenode") << "re-replicating " << id.to_string() << " from "
                            << source.value() << " to " << target.value();
    replication_executor_(
        source, target, id, length, [this, id](bool success) {
          rereplication_pending_.erase(id);
          if (success) ++rereplications_completed_;
          // On failure the next scan retries with fresh liveness data.
        });
  }
}

const FileEntry* Namenode::file(FileId id) const {
  auto it = files_.find(id);
  return it == files_.end() ? nullptr : &it->second;
}

const FileEntry* Namenode::file_by_path(const std::string& path) const {
  auto it = files_by_path_.find(path);
  return it == files_by_path_.end() ? nullptr : file(it->second);
}

const BlockRecord* Namenode::block(BlockId id) const {
  auto it = blocks_.find(id);
  return it == blocks_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Durability: commit, fsimage capture/restore, replay, crash/restart
// ---------------------------------------------------------------------------

void Namenode::commit(EditOp op) {
  op.at = sim_.now();
  apply_edit(op);
  if (edit_log_ != nullptr) edit_log_->append(std::move(op));
}

void Namenode::renew_lease(ClientId client) {
  EditOp op;
  op.type = EditOpType::kLeaseRenew;
  op.client = client;
  commit(std::move(op));
}

NamenodeImage Namenode::capture_image() const {
  NamenodeImage image;
  image.files.reserve(files_.size());
  for (const auto& [id, entry] : files_) image.files.push_back(entry);
  std::sort(image.files.begin(), image.files.end(),
            [](const FileEntry& a, const FileEntry& b) { return a.id < b.id; });
  image.blocks.reserve(blocks_.size());
  for (const auto& [id, record] : blocks_) {
    BlockImage b;
    b.id = record.id;
    b.file = record.file;
    b.expected_targets = record.expected_targets;
    b.corrupt_replicas.assign(record.corrupt_replicas.begin(),
                              record.corrupt_replicas.end());
    image.blocks.push_back(std::move(b));
  }
  std::sort(
      image.blocks.begin(), image.blocks.end(),
      [](const BlockImage& a, const BlockImage& b) { return a.id < b.id; });
  image.leases = leases_.snapshot();
  for (const auto& [file, state] : lease_recoveries_) {
    RecoveryImage r;
    r.file = file;
    r.started_at = state.started_at;
    for (const auto& [block, pending] : state.pending) {
      r.pending.push_back(UcPendingImage{block, pending.retry_at,
                                         pending.attempts});
    }
    image.recoveries.push_back(std::move(r));
  }
  image.file_ids_issued = file_ids_.issued();
  image.block_ids_issued = block_ids_.issued();
  image.lease_expiries = lease_expiries_;
  image.uc_blocks_recovered = uc_blocks_recovered_;
  image.bytes_salvaged = bytes_salvaged_;
  image.orphans_abandoned = orphans_abandoned_;
  return image;
}

void Namenode::restore_image(const NamenodeImage& image) {
  files_.clear();
  files_by_path_.clear();
  blocks_.clear();
  ++replica_epoch_;
  lease_recoveries_.clear();
  for (const FileEntry& entry : image.files) {
    files_by_path_.emplace(entry.path, entry.id);
    files_.emplace(entry.id, entry);
  }
  for (const BlockImage& b : image.blocks) {
    BlockRecord record;
    record.id = b.id;
    record.file = b.file;
    record.expected_targets = b.expected_targets;
    record.corrupt_replicas.insert(b.corrupt_replicas.begin(),
                                   b.corrupt_replicas.end());
    blocks_.emplace(b.id, std::move(record));
  }
  leases_.restore(image.leases);
  for (const RecoveryImage& r : image.recoveries) {
    LeaseRecoveryState state;
    state.started_at = r.started_at;
    for (const UcPendingImage& p : r.pending) {
      state.pending.emplace(p.block,
                            UcBlockPending{p.retry_at, p.attempts});
    }
    lease_recoveries_.emplace(r.file, std::move(state));
  }
  file_ids_.ensure_at_least(image.file_ids_issued);
  block_ids_.ensure_at_least(image.block_ids_issued);
  lease_expiries_ = image.lease_expiries;
  uc_blocks_recovered_ = image.uc_blocks_recovered;
  bytes_salvaged_ = image.bytes_salvaged;
  orphans_abandoned_ = image.orphans_abandoned;
}

void Namenode::apply_edit(const EditOp& op) {
  // Pure state manipulation at the op's own timestamp: the same code runs
  // live (through commit), on restart replay and in the standby's tailer,
  // so it never journals and never invokes an executor.
  const auto drop_block = [this](BlockId block) {
    blocks_.erase(block);
    rereplication_pending_.erase(block);
    // A replayed report entry for the block now logs it as unknown.
    ++replica_epoch_;
  };
  switch (op.type) {
    case EditOpType::kLeaseRenew:
      leases_.renew(op.client, op.at);
      break;
    case EditOpType::kCreate: {
      file_ids_.ensure_at_least(op.file.value() + 1);
      FileEntry entry;
      entry.id = op.file;
      entry.path = op.path;
      entry.lease_holder = op.client;
      files_by_path_.insert_or_assign(op.path, op.file);
      files_.emplace(op.file, std::move(entry));
      leases_.add(op.client, op.file, op.at);
      break;
    }
    case EditOpType::kEraseFile: {
      auto it = files_.find(op.file);
      if (it == files_.end()) break;
      const FileEntry& entry = it->second;
      for (BlockId block : entry.blocks) drop_block(block);
      leases_.release(entry.lease_holder, entry.id);
      lease_recoveries_.erase(entry.id);
      files_by_path_.erase(entry.path);
      files_.erase(it);
      break;
    }
    case EditOpType::kAddBlock: {
      block_ids_.ensure_at_least(op.block.value() + 1);
      BlockRecord record;
      record.id = op.block;
      record.file = op.file;
      record.expected_targets = op.nodes;
      blocks_.emplace(op.block, std::move(record));
      files_.at(op.file).blocks.push_back(op.block);
      break;
    }
    case EditOpType::kUpdateTargets:
      blocks_.at(op.block).expected_targets = op.nodes;
      break;
    case EditOpType::kCompleteFile:
      files_.at(op.file).state = FileState::kClosed;
      leases_.release(op.client, op.file);
      break;
    case EditOpType::kLeaseRecoveryStart: {
      files_.at(op.file).recovering = true;
      ++lease_expiries_;
      leases_.reassign(op.file, op.client, kRecoveryHolder, op.at);
      LeaseRecoveryState state;
      state.started_at = op.at;
      for (BlockId block : op.blocks) {
        state.pending.emplace(block, UcBlockPending{});
      }
      lease_recoveries_.emplace(op.file, std::move(state));
      break;
    }
    case EditOpType::kUcAttempt: {
      UcBlockPending& pending =
          lease_recoveries_.at(op.file).pending.at(op.block);
      ++pending.attempts;
      pending.retry_at = op.at + config_.lease_recovery_retry_interval;
      break;
    }
    case EditOpType::kCommitBlockSync:
      // Only the durable outcome: the sealed target set and the salvage
      // accounting. The replica locations are the live caller's.
      blocks_.at(op.block).expected_targets = op.nodes;
      lease_recoveries_.at(op.file).pending.erase(op.block);
      ++uc_blocks_recovered_;
      bytes_salvaged_ += op.length;
      break;
    case EditOpType::kTruncateBlocks: {
      FileEntry& entry = files_.at(op.file);
      const auto first = static_cast<std::size_t>(op.index);
      auto rt = lease_recoveries_.find(op.file);
      for (std::size_t i = first; i < entry.blocks.size(); ++i) {
        drop_block(entry.blocks[i]);
        if (rt != lease_recoveries_.end()) {
          rt->second.pending.erase(entry.blocks[i]);
        }
        ++orphans_abandoned_;
      }
      entry.blocks.resize(first);
      break;
    }
    case EditOpType::kCloseRecovered: {
      FileEntry& entry = files_.at(op.file);
      entry.state = FileState::kClosed;
      entry.recovering = false;
      entry.closed_by_recovery = true;
      leases_.release(kRecoveryHolder, op.file);
      lease_recoveries_.erase(op.file);
      break;
    }
    case EditOpType::kQuarantine:
      if (auto it = blocks_.find(op.block); it != blocks_.end()) {
        it->second.corrupt_replicas.insert(op.node);
      }
      break;
  }
}

void Namenode::crash() {
  if (crashed_) return;
  crashed_ = true;
  safe_mode_timeout_.cancel();
  if (lease_task_) lease_task_->stop();
  if (rereplication_task_) rereplication_task_->stop();
  metrics::global_registry().counter("namenode.crashes").add();
  trace_nn(trace::Category::kFault, "namenode crash", {});
  SMARTH_WARN("namenode") << "control plane down (crash)";
}

std::size_t Namenode::restart(const NamenodeImage& image,
                              const std::vector<EditOp>& tail) {
  crashed_ = false;
  // The pre-crash registration count doubles as the include-list safe mode
  // waits on: a freshly restored namespace has no closed blocks yet (a young
  // cluster, or a restart mid-first-upload), and without this gate safe mode
  // would exit instantly while most datanodes are still unregistered —
  // handing the first addBlock an artificially tiny cluster. High-water, not
  // last-seen: a crash landing mid-way through the previous outage's
  // re-registration wave must not lower the bar.
  safe_mode_min_datanodes_ =
      std::max(safe_mode_min_datanodes_, datanodes_.size());
  // Volatile state died with the process: registrations, heartbeat clocks,
  // the replica location map (implicit in the restored blocks, which come
  // back with empty `reported`), speed observations, in-flight copy ledger.
  datanodes_.clear();
  last_heartbeat_.clear();
  alive_stale_ = true;
  speeds_ = SpeedBoard{};
  suspicion_ = SuspicionList(config_.suspicion_half_life,
                             config_.suspicion_threshold);
  rereplication_pending_.clear();

  restore_image(image);
  for (const EditOp& op : tail) apply_edit(op);
  // Renewal stamps measured the dead process's clock; a restarted namenode
  // cannot tell a writer that died mid-outage from one whose renewals were
  // lost with the process, so every expiry clock restarts now (as in HDFS,
  // where lease age effectively resets with the namenode).
  leases_.reset_renewals(sim_.now());

  ++restarts_;
  metrics::global_registry().counter("namenode.restarts").add();
  trace_nn(trace::Category::kFault, "namenode restart",
           {{"image_txid", std::to_string(image.last_txid)},
            {"replayed_ops", std::to_string(tail.size())}});
  SMARTH_INFO("namenode") << "restarted from fsimage txid " << image.last_txid
                          << " + " << tail.size() << " replayed ops ("
                          << files_.size() << " files, " << blocks_.size()
                          << " blocks)";

  enter_safe_mode();
  maybe_exit_safe_mode();  // an empty namespace has nothing to wait for
  if (safe_mode_) {
    safe_mode_timeout_.cancel();
    safe_mode_timeout_ = sim_.schedule_after(
        config_.safe_mode_max_wait, "nn.safe_mode_timeout", [this] {
          if (crashed_ || !safe_mode_ || !safe_mode_auto_) return;
          SMARTH_WARN("namenode")
              << "safe mode timed out at " << safe_blocks_fraction()
              << " replica coverage; exiting with what we have";
          safe_mode_ = false;
          safe_mode_auto_ = false;
          last_safe_mode_exit_ = sim_.now();
          metrics::global_registry().counter("namenode.safe_mode_exits").add();
          trace_nn(trace::Category::kFault, "safe mode timeout-exit", {});
        });
  }
  if (lease_task_ && !lease_task_->running()) lease_task_->start();
  if (rereplication_task_ && !rereplication_task_->running()) {
    rereplication_task_->start();
  }
  return tail.size();
}

void Namenode::enter_safe_mode() {
  safe_mode_ = true;
  safe_mode_auto_ = true;
  metrics::global_registry().counter("namenode.safe_mode_entries").add();
  trace_nn(trace::Category::kFault, "safe mode enter", {});
}

double Namenode::safe_blocks_fraction() const {
  std::size_t total = 0;
  std::size_t safe = 0;
  for (const auto& [id, record] : blocks_) {
    const auto ft = files_.find(record.file);
    // Only closed files' blocks gate safe mode (UC blocks are the writer's
    // and lease recovery's business, and their replica counts are in flux).
    if (ft == files_.end() || ft->second.state != FileState::kClosed) continue;
    ++total;
    for (const auto& [dn, len] : record.reported) {
      if (record.corrupt_replicas.count(dn) == 0) {
        ++safe;
        break;
      }
    }
  }
  if (total == 0) return 1.0;
  return static_cast<double>(safe) / static_cast<double>(total);
}

void Namenode::maybe_exit_safe_mode() {
  if (!safe_mode_ || !safe_mode_auto_) return;
  if (datanodes_.size() < safe_mode_min_datanodes_) return;
  const double fraction = safe_blocks_fraction();
  if (fraction + 1e-9 < config_.safe_mode_threshold) return;
  safe_mode_ = false;
  safe_mode_auto_ = false;
  last_safe_mode_exit_ = sim_.now();
  safe_mode_timeout_.cancel();
  metrics::global_registry().counter("namenode.safe_mode_exits").add();
  trace_nn(trace::Category::kFault, "safe mode exit",
           {{"fraction", std::to_string(fraction)}});
  SMARTH_INFO("namenode") << "leaving safe mode at " << fraction
                          << " replica coverage";
}

}  // namespace smarth::hdfs
