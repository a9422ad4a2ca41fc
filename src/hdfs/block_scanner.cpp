#include "hdfs/block_scanner.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::hdfs {

BlockScanner::BlockScanner(sim::Simulation& sim, storage::DiskDevice& disk,
                           const storage::BlockStore& store,
                           const HdfsConfig& config,
                           std::function<void(BlockId)> report_bad_replica)
    : sim_(sim), disk_(disk), store_(store), config_(config),
      report_bad_replica_(std::move(report_bad_replica)) {}

void BlockScanner::start() {
  if (config_.scanner_bytes_per_second <= 0 || running_) return;
  running_ = true;
  if (!task_) {
    task_ = std::make_unique<sim::PeriodicTask>(
        sim_, config_.scanner_interval, "dn.block_scan", [this] { tick(); });
  }
  task_->start_with_delay(config_.scanner_interval);
}

void BlockScanner::stop() {
  running_ = false;
  scanning_ = false;
  ++epoch_;  // orphan any disk read still in flight
  budget_ = 0;
  if (task_) task_->stop();
}

void BlockScanner::tick() {
  if (!running_) return;
  // Fresh budget each wake-up; unspent budget does not accumulate, so a
  // scanner idled by an empty store cannot later burst past its rate.
  budget_ = static_cast<Bytes>(static_cast<double>(
                                   config_.scanner_bytes_per_second) *
                               to_seconds(config_.scanner_interval));
  if (!scanning_) scan_next();
}

bool BlockScanner::next_target(Cursor& out) const {
  // Deterministic iteration order over the unordered replica map: sort the
  // finalized replicas by block id and resume at/after the cursor.
  std::vector<std::int64_t> blocks;
  for (const auto& replica : store_.all_replicas()) {
    if (replica.state != storage::ReplicaState::kFinalized) continue;
    if (store_.chunk_count(replica.block) == 0) continue;
    blocks.push_back(replica.block.value());
  }
  std::sort(blocks.begin(), blocks.end());
  for (std::int64_t value : blocks) {
    if (value < cursor_.block) continue;
    if (value == cursor_.block) {
      if (cursor_.chunk < store_.chunk_count(BlockId{value})) {
        out = Cursor{value, cursor_.chunk};
        return true;
      }
      continue;  // cursor past this block's tail; move on
    }
    out = Cursor{value, 0};
    return true;
  }
  return false;
}

void BlockScanner::scan_next() {
  scanning_ = false;
  if (!running_) return;
  Cursor target;
  if (!next_target(target)) {
    // Pass complete: wrap, forget this pass's reports (a replica that
    // survived invalidation gets re-reported next pass), resume next tick.
    if (cursor_.block != 0 || cursor_.chunk != 0) {
      ++scan_passes_;
      metrics::global_registry().counter("scanner.passes").add();
      if (trace::active()) {
        trace::recorder()->instant(
            trace::Category::kScanner, "scanner", "scan pass complete",
            {{"bytes_scanned", std::to_string(bytes_scanned_)},
             {"chunks_scanned", std::to_string(chunks_scanned_)}});
      }
    }
    cursor_ = Cursor{};
    reported_.clear();
    return;
  }
  const BlockId block{target.block};
  const Bytes bytes = store_.chunk_bytes(block, target.chunk);
  if (bytes <= 0) {
    cursor_ = Cursor{target.block, target.chunk + 1};
    scan_next();
    return;
  }
  if (budget_ < bytes) return;  // out of budget; next tick continues here
  budget_ -= bytes;
  scanning_ = true;
  const std::uint64_t epoch = epoch_;
  disk_.read(bytes, [this, epoch, target, block, bytes] {
    if (epoch != epoch_ || !running_) return;
    bytes_scanned_ += bytes;
    metrics::global_registry()
        .counter("scanner.bytes_scanned")
        .add(static_cast<std::uint64_t>(bytes));
    ++chunks_scanned_;
    if (!store_.chunk_ok(block, target.chunk)) {
      ++rot_detected_;
      metrics::global_registry().counter("scanner.rot_detected").add();
      if (trace::active()) {
        trace::recorder()->instant(
            trace::Category::kScanner, "scanner", "rot detected",
            {{"block", block.to_string()},
             {"chunk", std::to_string(target.chunk)}});
      }
      SMARTH_WARN("scanner") << "scrub found rot in " << block.to_string()
                             << " chunk " << target.chunk;
      if (reported_.insert(target.block).second && report_bad_replica_) {
        report_bad_replica_(block);
      }
      // The whole replica is condemned; no point scrubbing its other chunks.
      cursor_ = Cursor{target.block + 1, 0};
    } else {
      cursor_ = Cursor{target.block, target.chunk + 1};
    }
    scan_next();
  });
}

}  // namespace smarth::hdfs
