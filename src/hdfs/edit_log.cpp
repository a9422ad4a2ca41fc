#include "hdfs/edit_log.hpp"

#include <utility>

#include "common/check.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::hdfs {

const char* to_string(EditOpType type) {
  switch (type) {
    case EditOpType::kLeaseRenew: return "lease_renew";
    case EditOpType::kCreate: return "create";
    case EditOpType::kEraseFile: return "erase_file";
    case EditOpType::kAddBlock: return "add_block";
    case EditOpType::kUpdateTargets: return "update_targets";
    case EditOpType::kCompleteFile: return "complete_file";
    case EditOpType::kLeaseRecoveryStart: return "lease_recovery_start";
    case EditOpType::kUcAttempt: return "uc_attempt";
    case EditOpType::kCommitBlockSync: return "commit_block_sync";
    case EditOpType::kTruncateBlocks: return "truncate_blocks";
    case EditOpType::kCloseRecovered: return "close_recovered";
    case EditOpType::kQuarantine: return "quarantine";
  }
  return "unknown";
}

std::int64_t EditLog::append(EditOp op) {
  op.txid = next_txid_++;
  ++appended_;
  metrics::cached_counter(ops_logged_, "namenode.edit_ops_logged").add();
  ops_.push_back(std::move(op));
  return ops_.back().txid;
}

std::vector<EditOp> EditLog::tail(std::int64_t after_txid) const {
  std::vector<EditOp> out;
  if (ops_.empty()) {
    SMARTH_CHECK_MSG(after_txid >= last_txid(),
                     "edit log tail request below truncation point");
    return out;
  }
  // The requested suffix must still be retained in full.
  SMARTH_CHECK_MSG(after_txid >= ops_.front().txid - 1,
                   "edit log tail request below truncation point");
  for (const EditOp& op : ops_) {
    if (op.txid > after_txid) out.push_back(op);
  }
  return out;
}

void EditLog::truncate_through(std::int64_t txid) {
  while (!ops_.empty() && ops_.front().txid <= txid) ops_.pop_front();
}

std::string EditLog::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const EditOp& op : ops_) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"txid\": " + std::to_string(op.txid);
    out += ", \"op\": \"" + std::string(to_string(op.type)) + "\"";
    out += ", \"at_ns\": " + std::to_string(op.at);
    if (op.file.valid()) out += ", \"file\": " + std::to_string(op.file.value());
    if (op.block.valid()) {
      out += ", \"block\": " + std::to_string(op.block.value());
    }
    if (op.client.valid()) {
      out += ", \"client\": " + std::to_string(op.client.value());
    }
    if (op.node.valid()) out += ", \"node\": " + std::to_string(op.node.value());
    if (!op.path.empty()) {
      out += ", \"path\": \"" + trace::json_escape(op.path) + "\"";
    }
    if (op.length > 0) out += ", \"length\": " + std::to_string(op.length);
    if (op.index >= 0) out += ", \"index\": " + std::to_string(op.index);
    if (!op.nodes.empty()) {
      out += ", \"nodes\": [";
      for (std::size_t i = 0; i < op.nodes.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(op.nodes[i].value());
      }
      out += "]";
    }
    if (!op.blocks.empty()) {
      out += ", \"blocks\": [";
      for (std::size_t i = 0; i < op.blocks.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(op.blocks[i].value());
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace smarth::hdfs
