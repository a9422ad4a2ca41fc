#include "hdfs/block_report.hpp"

#include <algorithm>

namespace smarth::hdfs {

BlockReport BlockReporter::next() {
  BlockReport report;
  report.seq = ++seq_;
  report.full = store_.finalized_list();
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
