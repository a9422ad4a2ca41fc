#include "hdfs/types.hpp"

namespace smarth::hdfs {

SimDuration lease_recovery_wait(const HdfsConfig& config) {
  return 2 * config.lease_hard_limit + config.lease_monitor_interval +
         (config.lease_recovery_retry_interval +
          config.lease_monitor_interval) *
             config.lease_recovery_max_attempts;
}

std::string to_string(AckStatus status) {
  switch (status) {
    case AckStatus::kSuccess: return "success";
    case AckStatus::kChecksumError: return "checksum_error";
    case AckStatus::kNodeError: return "node_error";
  }
  return "?";
}

}  // namespace smarth::hdfs
