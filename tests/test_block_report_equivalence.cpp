// Differential test for heartbeat block reports. The reference namenode
// applies every heartbeat's full report through block_received, entry by
// entry, as every heartbeat did before reports carried a delta. The namenode
// under test receives the same reports through block_report, which applies
// only the delta when its report cursor allows. Both are driven by one seeded
// random sequence:
//  - datanode side, through the real BlockStore and BlockReporter: replica
//    finalizations, appends, removals, and truncates that reopen a finalized
//    replica before it is finalized again at a new length;
//  - delivery: heartbeats lost or shed (sequence gaps) and reordered, fresh
//    and stale explicit blockReceived calls, the stale ones carrying an
//    older length;
//  - namenode side: bad-replica reports, re-registration and datanode
//    restart, file erase (create with overwrite) and block truncation,
//    commitBlockSynchronization, crash and restart with the namenode left in
//    safe mode or forced out of it, manual safe-mode toggles, and time
//    passing (dead datanodes, safe-mode timeout).
// After every step both namenodes must agree on every block's replica map
// (contents and iteration order) and quarantine set, the invalidations
// issued (in order), safe mode, its exit time and exit count, and every log
// line emitted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "hdfs/block_report.hpp"
#include "hdfs/edit_log.hpp"
#include "hdfs/fsimage.hpp"
#include "hdfs/namenode.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "storage/block_store.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::hdfs {
namespace {

constexpr int kDatanodes = 5;
constexpr int kSteps = 1500;
constexpr std::uint64_t kSeeds = 24;
/// Steps per stretch; stretches alternate between all ops and calm ones.
constexpr int kStretch = 150;

/// One namenode and everything observable about it.
struct Side {
  Side(std::uint64_t seed, const net::Topology& topology,
       const HdfsConfig& config, NodeId self)
      : sim(seed), nn(sim, topology, config, self) {
    nn.set_invalidation_executor([this](NodeId node, BlockId block) {
      invalidations.emplace_back(node, block);
    });
  }

  sim::Simulation sim;
  Namenode nn;
  std::vector<std::pair<NodeId, BlockId>> invalidations;
  std::vector<std::string> log;
  std::uint64_t safe_mode_exits = 0;
};

struct DatanodeModel {
  NodeId id;
  storage::BlockStore store;
  BlockReporter reporter{store};
};

/// A control message on its way to the namenode: a heartbeat when
/// `report.full` is set, an explicit blockReceived otherwise.
struct Message {
  NodeId dn;
  BlockReport report;
  BlockId block;
  Bytes length = 0;
};

std::string describe(const BlockRecord& record) {
  std::ostringstream out;
  out << "reported {";
  for (const auto& [dn, length] : record.reported) {
    out << " " << dn.value() << ":" << length;
  }
  out << " } corrupt {";
  for (NodeId dn : record.corrupt_replicas) out << " " << dn.value();
  out << " }";
  return out.str();
}

class BlockReportEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::global_registry().reset();
    Logger::instance().set_sink([this](const std::string& line) {
      if (current_ != nullptr) current_->log.push_back(line);
    });
  }
  void TearDown() override { Logger::instance().reset_sink(); }

  /// Runs `fn` against the reference namenode, then the one under test,
  /// attributing log lines and safe-mode exits to each.
  void both(const std::function<void(Side&, bool incremental)>& fn) {
    for (Side* side : {ref_.get(), inc_.get()}) {
      const std::uint64_t exits0 =
          metrics::global_registry().counter_value("namenode.safe_mode_exits");
      current_ = side;
      fn(*side, side == inc_.get());
      current_ = nullptr;
      side->safe_mode_exits +=
          metrics::global_registry().counter_value(
              "namenode.safe_mode_exits") -
          exits0;
    }
  }

  /// The first difference between the two namenodes, or "".
  std::string difference() const {
    const Namenode& a = ref_->nn;
    const Namenode& b = inc_->nn;
    if (a.block_count() != b.block_count()) return "block count";
    for (std::int64_t id = 0; id <= max_block_; ++id) {
      const BlockRecord* ra = a.block(BlockId{id});
      const BlockRecord* rb = b.block(BlockId{id});
      if ((ra == nullptr) != (rb == nullptr)) {
        return "block " + std::to_string(id) + " present on one side";
      }
      if (ra == nullptr) continue;
      const std::string da = describe(*ra);
      const std::string db = describe(*rb);
      if (da != db) {
        return "block " + std::to_string(id) + ": " + da + " vs " + db;
      }
    }
    if (ref_->invalidations != inc_->invalidations) return "invalidations";
    if (a.safe_mode() != b.safe_mode()) return "safe_mode()";
    if (a.last_safe_mode_exit() != b.last_safe_mode_exit()) {
      return "last_safe_mode_exit()";
    }
    if (ref_->safe_mode_exits != inc_->safe_mode_exits) {
      return "safe-mode exit count";
    }
    if (ref_->log != inc_->log) {
      return "log lines: " + std::to_string(ref_->log.size()) + " vs " +
             std::to_string(inc_->log.size());
    }
    return "";
  }

  DatanodeModel& datanode(NodeId id) {
    for (auto& dn : datanodes_) {
      if (dn->id == id) return *dn;
    }
    ADD_FAILURE() << "unknown datanode " << id.value();
    return *datanodes_.front();
  }

  /// A random replica of `dn` in `state` (any state when null); invalid
  /// when there is none.
  BlockId random_replica(DatanodeModel& dn, const storage::ReplicaState* state) {
    std::vector<BlockId> candidates;
    for (const auto& replica : dn.store.all_replicas()) {
      if (state == nullptr || replica.state == *state) {
        candidates.push_back(replica.block);
      }
    }
    if (candidates.empty()) return BlockId{};
    std::sort(candidates.begin(), candidates.end());
    return candidates[rng_.index(candidates.size())];
  }

  /// Files of the reference namenode matching `pred`, by id.
  std::vector<FileId> files_where(
      const std::function<bool(const FileEntry&)>& pred) const {
    std::vector<FileId> out;
    for (FileId id : files_) {
      const FileEntry* entry = ref_->nn.file(id);
      if (entry != nullptr && pred(*entry)) out.push_back(id);
    }
    return out;
  }

  void deliver(const Message& msg) {
    both([&](Side& side, bool incremental) {
      if (msg.report.full == nullptr) {
        side.nn.block_received(msg.dn, msg.block, msg.length);
        return;
      }
      if (!side.nn.handle_heartbeat(msg.dn)) {
        side.nn.register_datanode(msg.dn);
      }
      if (incremental) {
        side.nn.block_report(msg.dn, msg.report);
      } else {
        for (const auto& [block, length] : msg.report.full->entries()) {
          side.nn.block_received(msg.dn, block, length);
        }
      }
    });
    if (msg.report.full != nullptr) ++reports_delivered_;
  }

  static Message heartbeat(DatanodeModel& dn) {
    return Message{dn.id, dn.reporter.next(), {}, 0};
  }

  void finalize(DatanodeModel& dn, BlockId block) {
    const auto length = dn.store.finalize(block);
    ASSERT_TRUE(length.ok());
    dn.reporter.finalized(block);
    if (rng_.uniform() < 0.7) {
      Message msg{dn.id, {}, block, length.value()};
      in_flight_.push_back(msg);
      received_.push_back(msg);
    }
  }

  /// Creates `path` on both namenodes; invalid on failure.
  FileId create_file(const std::string& path) {
    FileId file;
    both([&](Side& side, bool) {
      const auto id = side.nn.create(path, client_);
      if (id.ok()) file = id.value();
    });
    if (file.valid()) files_.push_back(file);
    return file;
  }

  /// Allocates the next block of `file` on both namenodes and opens a
  /// replica on each target; invalid when allocation fails.
  BlockId add_block_to(FileId file) {
    std::vector<Result<LocatedBlock>> located;
    both([&](Side& side, bool) {
      located.push_back(side.nn.add_block(file, client_, client_node_, {}));
    });
    EXPECT_EQ(located[0].ok(), located[1].ok());
    if (!located[0].ok() || !located[1].ok()) return BlockId{};
    EXPECT_EQ(located[0].value().block, located[1].value().block);
    EXPECT_EQ(located[0].value().targets, located[1].value().targets);
    const BlockId block = located[0].value().block;
    max_block_ = std::max(max_block_, block.value());
    for (NodeId target : located[0].value().targets) {
      DatanodeModel& dn = datanode(target);
      EXPECT_TRUE(dn.store.create_replica(block).ok());
      EXPECT_TRUE(dn.store.append(block, rng_.uniform_int(1, 4096)).ok());
    }
    return block;
  }

  void add_block() {
    std::vector<FileId> open = files_where([&](const FileEntry& e) {
      return e.state == FileState::kUnderConstruction && !e.recovering &&
             e.lease_holder == client_;
    });
    FileId file;
    if (open.empty() || rng_.uniform() < 0.3) {
      file = create_file("/f" + std::to_string(next_path_++));
      if (!file.valid()) return;
    } else {
      file = open[rng_.index(open.size())];
    }
    add_block_to(file);
  }

  /// Drops `dn`'s open replicas and re-registers it, re-reporting its
  /// finalized ones explicitly (Datanode::restart).
  void restart_datanode(DatanodeModel& dn) {
    for (const auto& replica : dn.store.all_replicas()) {
      if (replica.state != storage::ReplicaState::kFinalized) {
        ASSERT_TRUE(dn.store.remove(replica.block).ok());
      }
    }
    both([&](Side& side, bool) { side.nn.register_datanode(dn.id); });
    for (const auto& replica : dn.store.all_replicas()) {
      in_flight_.push_back(Message{dn.id, {}, replica.block, replica.bytes});
    }
  }

  void commit_sync() {
    std::vector<FileId> recovering =
        files_where([](const FileEntry& e) { return e.recovering; });
    if (recovering.empty()) return;
    const FileEntry* entry =
        ref_->nn.file(recovering[rng_.index(recovering.size())]);
    if (entry->blocks.empty()) return;
    const BlockId block = entry->blocks[rng_.index(entry->blocks.size())];
    Bytes length = 0;
    std::vector<NodeId> holders;
    if (rng_.uniform() >= 0.15) {
      // A random subset of the datanodes holding the block, committed at a
      // length one of them holds.
      for (auto& dn : datanodes_) {
        const auto info = dn->store.replica(block);
        if (info.ok() && rng_.uniform() < 0.7) {
          holders.push_back(dn->id);
          length = std::max(length, info.value().bytes);
        }
      }
    }
    both([&](Side& side, bool) {
      side.nn.commit_block_synchronization(block, length, holders);
    });
  }

  void restart_namenode(bool force_out) {
    both([&](Side& side, bool) {
      const NamenodeImage image = side.nn.capture_image();
      side.nn.crash();
      side.nn.restart(image, {});
      if (force_out) side.nn.set_safe_mode(false);
    });
  }

  /// Sends the step's new invalidations to their datanodes, losing some.
  void apply_invalidations() {
    for (; invalidations_applied_ < ref_->invalidations.size();
         ++invalidations_applied_) {
      const auto& [node, block] = ref_->invalidations[invalidations_applied_];
      DatanodeModel& dn = datanode(node);
      if (rng_.uniform() < 0.7 && dn.store.has_replica(block)) {
        ASSERT_TRUE(dn.store.remove(block).ok());
      }
    }
  }

  /// Re-delivers an explicit blockReceived sent earlier, preferring one
  /// whose length is older than its replica's current finalized length.
  void stale_received() {
    std::vector<const Message*> older;
    for (const Message& msg : received_) {
      const auto info = datanode(msg.dn).store.replica(msg.block);
      if (info.ok() &&
          info.value().state == storage::ReplicaState::kFinalized &&
          info.value().bytes != msg.length) {
        older.push_back(&msg);
      }
    }
    if (!older.empty()) {
      deliver(*older[rng_.index(older.size())]);
    } else if (!received_.empty()) {
      deliver(received_[rng_.index(received_.size())]);
    }
  }

  /// Removes `dn`'s replicas of blocks the namenode has dropped or
  /// quarantined on it. Until then every report from `dn` is applied in
  /// full: replaying such an entry logs or invalidates again.
  void remove_orphans(DatanodeModel& dn) {
    for (const auto& replica : dn.store.all_replicas()) {
      const BlockRecord* record = ref_->nn.block(replica.block);
      if (record == nullptr || record->corrupt_replicas.count(dn.id) > 0) {
        ASSERT_TRUE(dn.store.remove(replica.block).ok());
      }
    }
  }

  enum class Op {
    kAddBlock,
    kAppend,
    kFinalize,
    kTruncate,
    kRemoveReplica,
    kRemoveOrphans,
    kHeartbeat,
    kDeliver,
    kLose,
    kStaleReceived,
    kBadReplica,
    kReregister,
    kDatanodeRestart,
    kComplete,
    kEraseFile,
    kLeaseRecovery,
    kCommitSync,
    kNamenodeRestart,
    kSafeMode,
    kAdvance,
  };
  struct WeightedOp {
    Op op;
    const char* name;
    double weight;
    /// Not drawn in calm stretches. These ops mostly force the next
    /// reports into full application; calm stretches let the cursors catch
    /// up, so the delta path gets exercised too.
    bool disruptive;
  };
  static constexpr WeightedOp kOps[] = {
      {Op::kAddBlock, "addBlock", 9, false},
      {Op::kAppend, "append", 4, false},
      {Op::kFinalize, "finalize", 11, false},
      {Op::kTruncate, "truncate", 3, false},
      {Op::kRemoveReplica, "remove replica", 1.5, false},
      {Op::kRemoveOrphans, "remove orphans", 3, false},
      {Op::kHeartbeat, "heartbeat", 16, false},
      {Op::kDeliver, "deliver", 30, false},
      {Op::kLose, "lose message", 2, true},
      {Op::kStaleReceived, "stale blockReceived", 1.5, false},
      {Op::kBadReplica, "report bad replica", 1, true},
      {Op::kReregister, "re-register", 0.6, true},
      {Op::kDatanodeRestart, "datanode restart", 0.6, true},
      {Op::kComplete, "complete", 3, false},
      {Op::kEraseFile, "erase file", 1, true},
      {Op::kLeaseRecovery, "lease recovery", 1, true},
      {Op::kCommitSync, "commitBlockSynchronization", 2, true},
      {Op::kNamenodeRestart, "namenode restart", 0.5, true},
      {Op::kSafeMode, "set safe mode", 0.4, true},
      {Op::kAdvance, "advance time", 8, false},
  };

  /// One random step; returns its name.
  const char* step() {
    const auto weight = [this](const WeightedOp& w) {
      return calm_ && w.disruptive ? 0.0 : w.weight;
    };
    double total = 0;
    for (const WeightedOp& w : kOps) total += weight(w);
    double pick = rng_.uniform() * total;
    const WeightedOp* chosen = &kOps[0];
    for (const WeightedOp& w : kOps) {
      if (weight(w) == 0.0) continue;
      chosen = &w;
      if (pick < weight(w)) break;
      pick -= weight(w);
    }
    DatanodeModel& dn = *datanodes_[rng_.index(datanodes_.size())];
    const storage::ReplicaState open = storage::ReplicaState::kBeingWritten;
    switch (chosen->op) {
      case Op::kAddBlock:
        add_block();
        break;
      case Op::kAppend:
        if (const BlockId block = random_replica(dn, &open); block.valid()) {
          EXPECT_TRUE(dn.store.append(block, rng_.uniform_int(1, 4096)).ok());
        }
        break;
      case Op::kFinalize:
        if (const BlockId block = random_replica(dn, &open); block.valid()) {
          finalize(dn, block);
        }
        break;
      case Op::kTruncate:
        // Reopens a finalized replica; a later finalize closes it again at
        // whatever length it then has.
        if (const BlockId block = random_replica(dn, nullptr); block.valid()) {
          const Bytes bytes = dn.store.replica(block).value().bytes;
          EXPECT_TRUE(
              dn.store.truncate(block, rng_.uniform_int(0, bytes)).ok());
        }
        break;
      case Op::kRemoveReplica:
        if (const BlockId block = random_replica(dn, nullptr); block.valid()) {
          EXPECT_TRUE(dn.store.remove(block).ok());
        }
        break;
      case Op::kRemoveOrphans:
        remove_orphans(dn);
        break;
      case Op::kHeartbeat:
        in_flight_.push_back(heartbeat(dn));
        break;
      case Op::kDeliver:
        if (!in_flight_.empty()) {
          // Mostly in order; sometimes a later message overtakes.
          const std::size_t i =
              rng_.uniform() < 0.9 ? 0 : rng_.index(in_flight_.size());
          const Message msg = in_flight_[i];
          in_flight_.erase(in_flight_.begin() +
                           static_cast<std::ptrdiff_t>(i));
          deliver(msg);
        }
        break;
      case Op::kLose:
        if (!in_flight_.empty()) {
          in_flight_.erase(in_flight_.begin() +
                           static_cast<std::ptrdiff_t>(
                               rng_.index(in_flight_.size())));
        }
        break;
      case Op::kStaleReceived:
        stale_received();
        break;
      case Op::kBadReplica: {
        BlockId block = random_replica(dn, nullptr);
        if (!block.valid()) block = BlockId{rng_.uniform_int(0, max_block_)};
        both([&](Side& side, bool) {
          side.nn.report_bad_replica(block, dn.id);
        });
        break;
      }
      case Op::kReregister:
        both([&](Side& side, bool) { side.nn.register_datanode(dn.id); });
        break;
      case Op::kDatanodeRestart:
        restart_datanode(dn);
        break;
      case Op::kComplete: {
        const std::vector<FileId> files = files_where([](const FileEntry& e) {
          return e.state == FileState::kUnderConstruction;
        });
        if (!files.empty()) {
          const FileId file = files[rng_.index(files.size())];
          both([&](Side& side, bool) {
            (void)side.nn.complete(file, client_);
          });
        }
        break;
      }
      case Op::kEraseFile: {
        const std::vector<FileId> closed = files_where(
            [](const FileEntry& e) { return e.state == FileState::kClosed; });
        if (!closed.empty()) {
          const std::string path =
              ref_->nn.file(closed[rng_.index(closed.size())])->path;
          FileId created;
          both([&](Side& side, bool) {
            const auto id = side.nn.create(path, client_, /*overwrite=*/true);
            if (id.ok()) created = id.value();
          });
          if (created.valid()) files_.push_back(created);
        }
        break;
      }
      case Op::kLeaseRecovery: {
        const std::vector<FileId> files = files_where([](const FileEntry& e) {
          return e.state == FileState::kUnderConstruction && !e.recovering;
        });
        if (!files.empty()) {
          const FileId file = files[rng_.index(files.size())];
          both([&](Side& side, bool) {
            (void)side.nn.start_lease_recovery(file);
          });
        }
        break;
      }
      case Op::kCommitSync:
        commit_sync();
        break;
      case Op::kNamenodeRestart:
        restart_namenode(/*force_out=*/rng_.uniform() < 0.4);
        break;
      case Op::kSafeMode: {
        const bool on = rng_.uniform() < 0.3;
        both([&](Side& side, bool) { side.nn.set_safe_mode(on); });
        break;
      }
      case Op::kAdvance: {
        // Now and then long enough for datanodes to be declared dead and
        // for safe mode to time out.
        const SimDuration dt = rng_.uniform() < 0.1
                                   ? rng_.uniform_int(seconds(10), seconds(70))
                                   : rng_.uniform_int(0, seconds(3));
        both([&](Side& side, bool) {
          side.sim.run_until(side.sim.now() + dt);
        });
        break;
      }
    }
    return chosen->name;
  }

  /// Fresh namenodes and datanodes, every datanode registered.
  void start(std::uint64_t seed) {
    rng_ = Rng(seed);
    ref_ = std::make_unique<Side>(seed, topology_, config_, nn_node_);
    inc_ = std::make_unique<Side>(seed, topology_, config_, nn_node_);
    datanodes_.clear();
    for (NodeId id : dn_nodes_) {
      datanodes_.push_back(std::make_unique<DatanodeModel>());
      datanodes_.back()->id = id;
      both([&](Side& side, bool) { side.nn.register_datanode(id); });
    }
    in_flight_.clear();
    received_.clear();
    files_.clear();
    max_block_ = 0;
    invalidations_applied_ = 0;
  }

  void run_seed(std::uint64_t seed) {
    start(seed);
    for (int i = 0; i < kSteps; ++i) {
      calm_ = (i / kStretch) % 2 == 1;
      if (calm_ && i % kStretch == 0) {
        for (auto& dn : datanodes_) remove_orphans(*dn);
      }
      const char* name = step();
      ASSERT_FALSE(HasFatalFailure()) << "seed " << seed << " step " << i;
      ASSERT_EQ(difference(), "")
          << "seed " << seed << " step " << i << " (" << name << ")";
      apply_invalidations();
    }
  }

  BlockReportEquivalence() {
    nn_node_ = topology_.add_host("nn", "/rack0");
    for (int i = 0; i < kDatanodes; ++i) {
      dn_nodes_.push_back(topology_.add_host(
          "dn" + std::to_string(i), i % 2 == 0 ? "/rack0" : "/rack1"));
    }
    client_node_ = topology_.add_host("client", "/rack1");
  }

  net::Topology topology_;
  HdfsConfig config_;
  NodeId nn_node_;
  NodeId client_node_;
  std::vector<NodeId> dn_nodes_;
  ClientId client_{0};

  Rng rng_;
  std::unique_ptr<Side> ref_;
  std::unique_ptr<Side> inc_;
  Side* current_ = nullptr;
  std::vector<std::unique_ptr<DatanodeModel>> datanodes_;
  std::vector<Message> in_flight_;
  std::vector<Message> received_;  ///< every explicit blockReceived sent
  std::vector<FileId> files_;
  std::int64_t max_block_ = 0;
  std::size_t invalidations_applied_ = 0;
  int next_path_ = 0;
  bool calm_ = false;
  std::uint64_t reports_delivered_ = 0;
};

TEST(BlockReporter, SnapshotsAreSharedAndNeverChangeInFlight) {
  storage::BlockStore store;
  BlockReporter reporter(store);
  const auto finalize = [&](std::int64_t id, Bytes bytes) {
    ASSERT_TRUE(store.create_replica(BlockId{id}).ok());
    ASSERT_TRUE(store.append(BlockId{id}, bytes).ok());
    ASSERT_TRUE(store.finalize(BlockId{id}).ok());
    reporter.finalized(BlockId{id});
  };
  finalize(1, 100);
  ASSERT_TRUE(store.create_replica(BlockId{2}).ok());  // open: not reported
  const BlockReport first = reporter.next();
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.full->entries(),
            (std::vector<BlockReport::Entry>{{BlockId{1}, 100}}));
  EXPECT_EQ(first.delta, first.full->entries());

  // Nothing changed: the same list, shared, and an empty delta.
  const BlockReport second = reporter.next();
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(second.full, first.full);
  EXPECT_TRUE(second.delta.empty());

  // A rebuild while earlier reports are in flight leaves theirs intact.
  finalize(3, 300);
  const BlockReport third = reporter.next();
  EXPECT_NE(third.full, first.full);
  EXPECT_EQ(first.full->entries().size(), 1u);
  EXPECT_EQ(third.full->entries().size(), 2u);
  EXPECT_EQ(third.delta,
            (std::vector<BlockReport::Entry>{{BlockId{3}, 300}}));

  // A replica finalized, then reopened before the next report, is in
  // neither list; finalized twice, it appears once.
  ASSERT_TRUE(store.append(BlockId{2}, 50).ok());
  ASSERT_TRUE(store.finalize(BlockId{2}).ok());
  reporter.finalized(BlockId{2});
  ASSERT_TRUE(store.truncate(BlockId{2}, 10).ok());
  ASSERT_TRUE(store.finalize(BlockId{3}).ok());
  reporter.finalized(BlockId{3});
  reporter.finalized(BlockId{3});
  const BlockReport fourth = reporter.next();
  EXPECT_EQ(fourth.delta,
            (std::vector<BlockReport::Entry>{{BlockId{3}, 300}}));
  EXPECT_EQ(fourth.full->entries().size(), 2u);
  // Lists handed out before those changes still read as they were built.
  EXPECT_EQ(first.full->entries(),
            (std::vector<BlockReport::Entry>{{BlockId{1}, 100}}));
  EXPECT_EQ(third.full->entries().size(), 2u);
}

/// What a report built now must read: all_replicas() filtered to the
/// finalized ones, in the store's order.
std::vector<BlockReport::Entry> finalized_now(const storage::BlockStore& store) {
  std::vector<BlockReport::Entry> out;
  for (const auto& replica : store.all_replicas()) {
    if (replica.state == storage::ReplicaState::kFinalized) {
      out.emplace_back(replica.block, replica.bytes);
    }
  }
  return out;
}

// Reports are read only after every change below: each must still read the
// store as it was when the report was built, whatever changed since.
TEST(BlockReporter, HeldReportsReadTheStoreAsBuilt) {
  storage::BlockStore store;
  BlockReporter reporter(store);
  struct Held {
    BlockReport report;
    std::vector<BlockReport::Entry> expected;
    const char* after;
  };
  std::vector<Held> held;
  const auto hold = [&](const char* after) {
    held.push_back({reporter.next(), finalized_now(store), after});
  };
  for (std::int64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(store.create_replica(BlockId{id}).ok());
    ASSERT_TRUE(store.append(BlockId{id}, 100 * id).ok());
    if (id % 2 == 1) {
      ASSERT_TRUE(store.finalize(BlockId{id}).ok());
    }
  }
  hold("setup");
  // Creates that cross rehashes, one report after each.
  for (std::int64_t id = 100; id < 300; ++id) {
    ASSERT_TRUE(store.create_replica(BlockId{id * 7919}).ok());
    hold("create");
  }
  // The creates reordered iteration: the first report's blocks, read in
  // today's order, differ from the order it was built with.
  std::vector<BlockReport::Entry> reordered;
  for (const auto& entry : finalized_now(store)) {
    if (std::find(held[0].expected.begin(), held[0].expected.end(), entry) !=
        held[0].expected.end()) {
      reordered.push_back(entry);
    }
  }
  ASSERT_NE(reordered, held[0].expected) << "no rehash reordered the store";
  ASSERT_TRUE(store.finalize(BlockId{2}).ok());
  hold("finalize");
  ASSERT_TRUE(store.truncate(BlockId{3}, 50).ok());  // reopens it
  hold("truncate");
  ASSERT_TRUE(store.finalize(BlockId{3}).ok());
  hold("finalize at the new length");
  ASSERT_TRUE(store.remove(BlockId{5}).ok());
  hold("remove");
  ASSERT_TRUE(store.remove(BlockId{2}).ok());
  for (const Held& h : held) {
    EXPECT_EQ(h.report.full->entries(), h.expected)
        << "report " << h.report.seq << " built after " << h.after;
  }
}

TEST(BlockReporter, AReportOutlivesItsStore) {
  BlockReport report;
  std::vector<BlockReport::Entry> expected;
  {
    storage::BlockStore store;
    BlockReporter reporter(store);
    for (std::int64_t id = 1; id <= 4; ++id) {
      ASSERT_TRUE(store.create_replica(BlockId{id}).ok());
      ASSERT_TRUE(store.append(BlockId{id}, 10 * id).ok());
      ASSERT_TRUE(store.finalize(BlockId{id}).ok());
    }
    report = reporter.next();
    expected = finalized_now(store);
  }
  EXPECT_EQ(report.full->entries(), expected);
  EXPECT_EQ(expected.size(), 4u);
}

// The safe-mode guard: a file closed by lease recovery can lift the safe
// fraction over the threshold without touching any replica state, and the
// next report must then exit safe mode at its first entry, as a full replay
// does. (It takes 1000 closing blocks against one missing one.)
TEST_F(BlockReportEquivalence, SafeModeExitAfterCloseWaitsForAReport) {
  start(7);
  const FileId lost = create_file("/lost");
  const BlockId lost_block = add_block_to(lost);
  const FileId bulk = create_file("/bulk");
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(add_block_to(bulk).valid());
  for (auto& dn : datanodes_) {
    const storage::ReplicaState open = storage::ReplicaState::kBeingWritten;
    for (BlockId b = random_replica(*dn, &open); b.valid();
         b = random_replica(*dn, &open)) {
      finalize(*dn, b);
    }
    deliver(heartbeat(*dn));
  }
  both([&](Side& side, bool) {
    ASSERT_TRUE(side.nn.complete(lost, client_).value());
  });
  // The closed file's only block loses every replica.
  for (auto& dn : datanodes_) {
    if (dn->store.has_replica(lost_block)) {
      ASSERT_TRUE(dn->store.remove(lost_block).ok());
    }
  }
  restart_namenode(/*force_out=*/false);
  for (auto& dn : datanodes_) deliver(heartbeat(*dn));
  ASSERT_TRUE(inc_->nn.safe_mode());
  both([&](Side& side, bool) {
    ASSERT_TRUE(side.nn.start_lease_recovery(bulk).ok());
  });
  ASSERT_EQ(inc_->nn.file(bulk)->state, FileState::kClosed);
  ASSERT_TRUE(inc_->nn.safe_mode());
  deliver(heartbeat(*datanodes_[0]));
  EXPECT_EQ(difference(), "");
  EXPECT_FALSE(inc_->nn.safe_mode());
}

// The delta check: blocks dropped by the namenode before the previous
// report and finalized since come back in a delta, and the log lines (or
// invalidations) they cause must follow the full list's order, not the
// delta's.
TEST_F(BlockReportEquivalence, DroppedBlocksInADeltaKeepTheFullOrder) {
  start(11);
  DatanodeModel& dn = *datanodes_[0];
  const FileId file = create_file("/f");
  std::vector<BlockId> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(add_block_to(file));
  for (BlockId b : blocks) {
    if (!dn.store.has_replica(b)) {
      ASSERT_TRUE(dn.store.create_replica(b).ok());
    }
  }
  finalize(dn, blocks[0]);
  deliver(heartbeat(dn));
  // Truncate the file after its first block.
  both([&](Side& side, bool) {
    ASSERT_TRUE(side.nn.start_lease_recovery(file).ok());
    side.nn.commit_block_synchronization(blocks[1], 0, {});
  });
  deliver(heartbeat(dn));
  ASSERT_EQ(difference(), "");
  for (std::size_t i = 1; i < blocks.size(); ++i) finalize(dn, blocks[i]);
  const Message report = heartbeat(dn);
  std::vector<BlockId> full_order;
  for (const auto& [block, length] : report.report.full->entries()) {
    if (block != blocks[0]) full_order.push_back(block);
  }
  std::vector<BlockId> delta_order;
  for (const auto& [block, length] : report.report.delta) {
    delta_order.push_back(block);
  }
  ASSERT_NE(full_order, delta_order) << "the orders must differ to test this";
  const std::size_t lines = inc_->log.size();
  deliver(report);
  EXPECT_EQ(difference(), "");
  EXPECT_EQ(inc_->log.size() - lines, blocks.size() - 1);  // one per block
}

TEST_F(BlockReportEquivalence, DeltaReportsMatchFullReplay) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    run_seed(seed);
    if (HasFatalFailure()) return;
  }
  // The incremental path must actually carry the load, or the equality
  // above proves nothing.
  const metrics::Registry& reg = metrics::global_registry();
  const std::uint64_t full = reg.counter_value("nn.block_report.full");
  EXPECT_GT(reports_delivered_, 1000u);
  EXPECT_GT((reports_delivered_ - full) * 3, reports_delivered_)
      << full << " of " << reports_delivered_ << " reports applied in full";
}

}  // namespace
}  // namespace smarth::hdfs
