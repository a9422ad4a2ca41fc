// The namenode's durable write-ahead journal. Every namespace mutation the
// namenode survives a restart with is appended here as a typed op; replaying
// the ops in txid order against an empty (or checkpointed) namespace
// reconstructs FileEntry/BlockRecord/lease/UC/quarantine state exactly. The
// ops are applied by Namenode::apply_edit on restart, by the standby's
// tailer and by every live mutation, so replay runs the code the live
// namenode ran.
//
// What is deliberately NOT journaled — mirroring HDFS — is the replica
// location map (BlockRecord::reported): locations are soft state rebuilt from
// post-restart datanode block reports, which is why the restart path enters
// safe mode until enough replicas have been re-reported.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace smarth::hdfs {

enum class EditOpType : std::uint8_t {
  kLeaseRenew,          ///< client touched its lease (create/addBlock/...)
  kCreate,              ///< file created: file, path, client
  kEraseFile,           ///< file dropped (overwrite of an abandoned file)
  kAddBlock,            ///< block allocated: file, block, nodes = targets
  kUpdateTargets,       ///< pipeline shrank: block, nodes = surviving targets
  kCompleteFile,        ///< writer closed the file: file, client
  kLeaseRecoveryStart,  ///< takeover: file, client = old holder,
                        ///< blocks = UC blocks needing sync (computed from
                        ///< volatile replica state, so it must be journaled)
  kUcAttempt,           ///< one recovery round charged against: file, block
  kCommitBlockSync,     ///< block sealed: block, file, length, nodes = holders
  kTruncateBlocks,      ///< unrecoverable tail dropped: file, index = first
                        ///< removed block position
  kCloseRecovered,      ///< recovery finished; file closed on writer's behalf
  kQuarantine,          ///< replica condemned: block, node
};

const char* to_string(EditOpType type);

/// One journaled namespace mutation. Fields are a union-of-needs across op
/// types; unused fields keep their defaults. `at` is the simulation time the
/// op was applied live — replay uses it so reconstructed timestamps (lease
/// renewals, recovery retry deadlines) are bit-identical.
struct EditOp {
  EditOpType type = EditOpType::kLeaseRenew;
  std::int64_t txid = 0;  ///< assigned by EditLog::append, dense from 1
  SimTime at = 0;

  FileId file;
  BlockId block;
  ClientId client;
  NodeId node;
  std::string path;
  Bytes length = 0;
  std::int64_t index = -1;
  std::vector<NodeId> nodes;
  std::vector<BlockId> blocks;
};

/// Append-only op journal with checkpoint truncation. The sim models the log
/// as always-durable shared storage (HDFS's QJM/shared-edits dir): the active
/// namenode appends, the standby tails, and restart replays the suffix past
/// the last checkpoint.
class EditLog {
 public:
  /// Appends `op`, assigning the next txid; returns that txid.
  std::int64_t append(EditOp op);

  /// Highest txid ever assigned (0 when nothing was logged).
  std::int64_t last_txid() const { return next_txid_ - 1; }
  /// Ops retained in memory (post-truncation suffix).
  std::size_t size() const { return ops_.size(); }
  /// Total ops ever appended (monotone; survives truncation).
  std::uint64_t appended() const { return appended_; }

  /// All retained ops with txid > `after_txid`, in txid order. CHECK-fails if
  /// truncation already dropped ops in that range — callers must keep their
  /// floor registered with the checkpointer.
  std::vector<EditOp> tail(std::int64_t after_txid) const;

  /// Drops ops with txid <= `txid` (checkpoint made them redundant).
  void truncate_through(std::int64_t txid);

  /// JSON array of retained ops — exported next to failing-seed traces so a
  /// chaos failure ships its own replayable journal.
  std::string to_json() const;

 private:
  std::deque<EditOp> ops_;
  std::int64_t next_txid_ = 1;
  std::uint64_t appended_ = 0;
};

}  // namespace smarth::hdfs
