// Heartbeat block reports: what a datanode tells the namenode about its
// finalized replicas on every heartbeat. Each report carries the full list
// (the self-healing contract: a lost blockReceived is re-asserted on the
// next beat) and the delta since the previous report, so a namenode that
// provably holds everything else already applies only the delta
// (Namenode::block_report). The full list is the store's FinalizedList:
// shared by every report built while the store is unchanged, and filled
// only when the namenode reads it or just before the store next changes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "storage/block_store.hpp"

namespace smarth::hdfs {

struct BlockReport {
  using Entry = storage::FinalizedList::Entry;  ///< finalized block, length

  /// 1 for a datanode's first report, then +1 per heartbeat built (lost,
  /// shed and reordered heartbeats show up as gaps at the namenode).
  std::uint64_t seq = 0;
  /// Every finalized replica, in the store's iteration order, as of when
  /// the report was built.
  std::shared_ptr<const storage::FinalizedList> full;
  /// The replicas finalized since report seq - 1 was built that are still
  /// finalized, with their current lengths; a subset of `full`.
  std::vector<Entry> delta;
};

/// Builds one datanode's reports from its BlockStore.
class BlockReporter {
 public:
  explicit BlockReporter(const storage::BlockStore& store) : store_(store) {}

  /// Records that `block` was just finalized; every successful
  /// BlockStore::finalize must be followed by this call.
  void finalized(BlockId block) { finalized_.push_back(block); }

  /// The next heartbeat's report.
  BlockReport next();

 private:
  const storage::BlockStore& store_;
  std::uint64_t seq_ = 0;
  /// Blocks finalized since the last next(), possibly repeated.
  std::vector<BlockId> finalized_;
};

}  // namespace smarth::hdfs
