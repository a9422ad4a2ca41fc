#include "hdfs/fsimage.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "hdfs/edit_log.hpp"
#include "sim/periodic_task.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::hdfs {

namespace {

template <typename Id>
void append_id_array(std::string& out, const char* key,
                     const std::vector<Id>& ids) {
  out += "\"";
  out += key;
  out += "\": [";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(ids[i].value());
  }
  out += "]";
}

}  // namespace

std::string NamenodeImage::to_json() const {
  std::string out = "{\n";
  out += "  \"last_txid\": " + std::to_string(last_txid) + ",\n";
  out += "  \"file_ids_issued\": " + std::to_string(file_ids_issued) + ",\n";
  out += "  \"block_ids_issued\": " + std::to_string(block_ids_issued) + ",\n";
  out += "  \"lease_expiries\": " + std::to_string(lease_expiries) + ",\n";
  out +=
      "  \"uc_blocks_recovered\": " + std::to_string(uc_blocks_recovered) +
      ",\n";
  out += "  \"bytes_salvaged\": " + std::to_string(bytes_salvaged) + ",\n";
  out += "  \"orphans_abandoned\": " + std::to_string(orphans_abandoned) +
         ",\n";
  out += "  \"files\": [";
  bool first = true;
  for (const FileEntry& f : files) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"id\": " + std::to_string(f.id.value()) + ", \"path\": \"" +
           trace::json_escape(f.path) + "\"";
    out += ", \"holder\": " + std::to_string(f.lease_holder.value());
    out += std::string(", \"state\": \"") +
           (f.state == FileState::kClosed ? "closed" : "uc") + "\"";
    out += std::string(", \"recovering\": ") +
           (f.recovering ? "true" : "false");
    out += std::string(", \"closed_by_recovery\": ") +
           (f.closed_by_recovery ? "true" : "false") + ", ";
    append_id_array(out, "blocks", f.blocks);
    out += "}";
  }
  out += "],\n  \"blocks\": [";
  first = true;
  for (const BlockImage& b : blocks) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"id\": " + std::to_string(b.id.value()) +
           ", \"file\": " + std::to_string(b.file.value()) + ", ";
    append_id_array(out, "expected_targets", b.expected_targets);
    out += ", ";
    append_id_array(out, "corrupt_replicas", b.corrupt_replicas);
    out += "}";
  }
  out += "],\n  \"leases\": [";
  first = true;
  for (const LeaseImage& l : leases) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"holder\": " + std::to_string(l.holder.value()) +
           ", \"last_renewal_ns\": " + std::to_string(l.last_renewal) + ", ";
    append_id_array(out, "files", l.files);
    out += "}";
  }
  out += "],\n  \"recoveries\": [";
  first = true;
  for (const RecoveryImage& r : recoveries) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"file\": " + std::to_string(r.file.value()) +
           ", \"started_at_ns\": " + std::to_string(r.started_at) +
           ", \"pending\": [";
    for (std::size_t i = 0; i < r.pending.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"block\": " + std::to_string(r.pending[i].block.value()) +
             ", \"retry_at_ns\": " + std::to_string(r.pending[i].retry_at) +
             ", \"attempts\": " + std::to_string(r.pending[i].attempts) + "}";
    }
    out += "]}";
  }
  out += "]\n}\n";
  return out;
}

FsImageCheckpointer::FsImageCheckpointer(sim::Simulation& sim,
                                         Namenode& namenode, EditLog& log,
                                         SimDuration interval)
    : sim_(sim), namenode_(namenode), log_(log), interval_(interval) {}

void FsImageCheckpointer::start() {
  if (interval_ <= 0) return;
  if (task_ == nullptr) {
    task_ = std::make_unique<sim::PeriodicTask>(
        sim_, interval_, "nn.checkpoint", [this] { checkpoint_now(); });
  }
  if (!task_->running()) task_->start();
}

void FsImageCheckpointer::stop() {
  if (task_ != nullptr) task_->stop();
}

void FsImageCheckpointer::checkpoint_now() {
  if (namenode_.crashed()) return;
  image_ = namenode_.capture_image();
  image_.last_txid = log_.last_txid();
  ++checkpoints_;
  std::int64_t floor = image_.last_txid;
  if (truncate_floor_) floor = std::min(floor, truncate_floor_());
  log_.truncate_through(floor);
  metrics::global_registry().counter("namenode.checkpoints").add();
  SMARTH_DEBUG("fsimage") << "checkpoint #" << checkpoints_ << " at txid "
                          << image_.last_txid << " (log retains "
                          << log_.size() << " ops past txid " << floor << ")";
}

}  // namespace smarth::hdfs
