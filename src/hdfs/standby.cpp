#include "hdfs/standby.hpp"

#include "common/log.hpp"
#include "hdfs/edit_log.hpp"
#include "sim/periodic_task.hpp"

namespace smarth::hdfs {

StandbyNamenode::StandbyNamenode(sim::Simulation& sim,
                                 const net::Topology& topology,
                                 const HdfsConfig& config, NodeId node,
                                 const EditLog& log)
    : nn_(sim, topology, config, node),
      log_(log),
      tail_interval_(config.standby_tail_interval),
      task_(std::make_unique<sim::PeriodicTask>(
          sim, tail_interval_, "nn.standby_tail", [this] { catch_up(); })) {}

void StandbyNamenode::bootstrap(const NamenodeImage& image,
                                std::int64_t applied_txid) {
  nn_.restore_image(image);
  applied_txid_ = applied_txid;
}

void StandbyNamenode::start() {
  if (!task_->running()) task_->start();
}

void StandbyNamenode::stop() { task_->stop(); }

void StandbyNamenode::catch_up() {
  const std::size_t before = ops_applied_;
  for (const EditOp& op : log_.tail(applied_txid_)) {
    nn_.apply_edit(op);
    applied_txid_ = op.txid;
    ++ops_applied_;
  }
  if (ops_applied_ != before) {
    SMARTH_DEBUG("standby") << "tailed " << (ops_applied_ - before)
                            << " ops; at txid " << applied_txid_;
  }
}

NamenodeImage StandbyNamenode::image() const {
  NamenodeImage image = nn_.capture_image();
  image.last_txid = applied_txid_;
  return image;
}

}  // namespace smarth::hdfs
