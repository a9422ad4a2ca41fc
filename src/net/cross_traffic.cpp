#include "net/cross_traffic.hpp"

#include "common/check.hpp"

namespace smarth::net {

CrossTraffic::CrossTraffic(Network& network, NodeId src, NodeId dst,
                           Config config)
    : network_(network), src_(src), dst_(dst), config_(config) {
  SMARTH_CHECK_MSG(src != dst, "cross traffic requires distinct endpoints");
  SMARTH_CHECK(config_.concurrency > 0);
  SMARTH_CHECK(config_.message_size > 0);
}

void CrossTraffic::start() {
  if (running_) return;
  running_ = true;
  for (int i = 0; i < config_.concurrency; ++i) send_one();
}

void CrossTraffic::send_one() {
  if (!running_) return;
  bytes_sent_ += config_.message_size;
  ++messages_sent_;
  network_.send(src_, dst_, config_.message_size, [this] {
    if (!running_) return;
    if (config_.think_time > 0) {
      network_.simulation().schedule_after(
          config_.think_time, "net.cross_traffic", [this] { send_one(); });
    } else {
      send_one();
    }
  });
}

}  // namespace smarth::net
