#include "hdfs/block_report.hpp"

#include <algorithm>

namespace smarth::hdfs {

BlockReport BlockReporter::next() {
  BlockReport report;
  report.seq = ++seq_;
  if (snapshot_ == nullptr || store_.version() != snapshot_version_) {
    // Reports still in flight share the old list; refill it in place only
    // when none does.
    if (snapshot_ == nullptr || snapshot_.use_count() > 1) {
      snapshot_ = std::make_shared<std::vector<BlockReport::Entry>>();
    }
    snapshot_->clear();
    for (const auto& replica : store_.all_replicas()) {
      if (replica.state == storage::ReplicaState::kFinalized) {
        snapshot_->emplace_back(replica.block, replica.bytes);
      }
    }
    snapshot_version_ = store_.version();
  }
  report.full = snapshot_;
  std::sort(finalized_.begin(), finalized_.end());
  finalized_.erase(std::unique(finalized_.begin(), finalized_.end()),
                   finalized_.end());
  for (BlockId block : finalized_) {
    // A replica reopened or removed since it was finalized is not in the
    // full list either.
    if (!store_.has_replica(block)) continue;
    const storage::ReplicaInfo info = store_.replica(block).value();
    if (info.state == storage::ReplicaState::kFinalized) {
      report.delta.emplace_back(block, info.bytes);
    }
  }
  finalized_.clear();
  return report;
}

}  // namespace smarth::hdfs
