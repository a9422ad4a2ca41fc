#include "cluster/cluster.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "model/cost_model.hpp"
#include "smarth/global_optimizer.hpp"
#include "smarth/smarth_stream.hpp"

namespace smarth::cluster {

const char* protocol_name(Protocol protocol) {
  return protocol == Protocol::kHdfs ? "HDFS" : "SMARTH";
}

Cluster::Cluster(ClusterSpec spec) : spec_(std::move(spec)) {
  // Block fidelity: derive the macro-transfer unit from the analytic skew
  // bound unless the spec pinned one explicitly. Replication depth is the
  // store-and-forward pipeline depth the coarsening must stay honest across.
  if (spec_.hdfs.fidelity == hdfs::DataFidelity::kBlock &&
      spec_.hdfs.block_transfer_unit <= 0) {
    spec_.hdfs.block_transfer_unit = model::coalesced_transfer_unit(
        spec_.hdfs.block_size, spec_.hdfs.packet_payload,
        spec_.hdfs.replication, spec_.hdfs.block_fidelity_tolerance,
        spec_.hdfs.max_outstanding_packets);
  }
  sim_ = std::make_unique<sim::Simulation>(spec_.seed);
  network_ = std::make_unique<net::Network>(*sim_, spec_.network);

  // Hosts. The namenode goes first so its NodeId is stable, then datanodes,
  // then client hosts.
  const NodeId nn_node = network_->add_node(
      spec_.namenode.name, spec_.namenode.rack, spec_.namenode.profile.network);

  rpc_ = std::make_unique<rpc::RpcBus>(*network_);

  hdfs::SinkResolver resolver;
  resolver.packet_sink = [this](NodeId node) -> hdfs::PacketSink* {
    return resolve_datanode(node);
  };
  resolver.ack_sink = [this](NodeId node, PipelineId pipeline) {
    return resolve_ack_sink(node, pipeline);
  };
  resolver.read_sink = [this](NodeId node, hdfs::ReadId read) {
    return resolve_read_sink(node, read);
  };
  transport_ = std::make_unique<hdfs::Transport>(*network_, spec_.hdfs,
                                                 std::move(resolver));

  namenode_ = std::make_unique<hdfs::Namenode>(*sim_, network_->topology(),
                                               spec_.hdfs, nn_node);

  // Control-plane capacity model: when enabled, namenode RPCs serialize
  // through a ServiceQueue at per-op cost (admission control adds bounded
  // depth, priorities, shedding, batching). Installed before any datanode
  // starts so the very first heartbeats already ride the queue.
  if (spec_.hdfs.nn_service_model || spec_.hdfs.nn_admission_control) {
    rpc::ServiceQueue::Config qc;
    qc.admission_control = spec_.hdfs.nn_admission_control;
    qc.cost_heartbeat = spec_.hdfs.nn_cost_heartbeat;
    qc.cost_meta = spec_.hdfs.nn_cost_meta;
    qc.cost_add_block = spec_.hdfs.nn_cost_add_block;
    qc.queue_capacity = spec_.hdfs.nn_queue_capacity;
    qc.heartbeat_batch_max = spec_.hdfs.nn_heartbeat_batch_max;
    qc.per_tenant_addblock_cap = spec_.hdfs.nn_client_addblock_cap;
    nn_service_queue_ = std::make_unique<rpc::ServiceQueue>(*sim_, qc);
    rpc_->set_service_queue(nn_node, nn_service_queue_.get());
  }

  // Durability: every namespace mutation journals into the edit log, and the
  // checkpointer periodically snapshots the namenode into an fsimage and
  // truncates the log. Restart replays fsimage + tail; see restart_namenode().
  edit_log_ = std::make_unique<hdfs::EditLog>();
  namenode_->attach_edit_log(edit_log_.get());
  checkpointer_ = std::make_unique<hdfs::FsImageCheckpointer>(
      *sim_, *namenode_, *edit_log_, spec_.hdfs.checkpoint_interval);
  checkpointer_->start();

  for (const NodeSpec& node_spec : spec_.datanodes) {
    const NodeId node = network_->add_node(node_spec.name, node_spec.rack,
                                           node_spec.profile.network);
    hdfs::Datanode::Options options;
    options.disk_write_bandwidth = node_spec.profile.disk_write;
    options.disk_op_overhead = node_spec.profile.disk_op_overhead;
    auto dn = std::make_unique<hdfs::Datanode>(*sim_, *transport_, *rpc_,
                                               *namenode_, spec_.hdfs, node,
                                               options);
    dn->set_peer_resolver(
        [this](NodeId peer) { return resolve_datanode(peer); });
    dn->start();
    const auto slot = static_cast<std::size_t>(node.value());
    if (datanode_by_node_.size() <= slot) {
      datanode_by_node_.resize(slot + 1, nullptr);
    }
    datanode_by_node_[slot] = dn.get();
    datanode_ids_.push_back(node);
    datanodes_.push_back(std::move(dn));
  }

  add_client(spec_.client.rack, spec_.client.profile);

  // Lease recovery is part of the namenode's normal duty cycle, not an
  // opt-in: a writer crash must never leave a file under-construction
  // forever. The executor routes the recovery command to the elected
  // primary datanode as an RPC, mirroring the re-replication wiring.
  namenode_->enable_lease_recovery(
      [this](NodeId primary, const hdfs::UcRecoveryCommand& cmd) {
        hdfs::Datanode* dn = resolve_datanode(primary);
        if (dn == nullptr || dn->crashed()) return false;
        rpc_->notify(namenode_->node_id(), primary,
                     [dn, cmd] { dn->recover_uc_block(cmd); });
        return true;
      });

  // Corrupt-replica invalidation is likewise always on: when a bad replica
  // is reported the namenode commands the owner to drop it. The notify to a
  // crashed host is dropped by the bus; the heartbeat's block report then
  // re-surfaces the replica (a quarantined entry keeps that datanode's
  // reports applied in full) and the namenode re-invalidates.
  namenode_->set_invalidation_executor([this](NodeId node, BlockId block) {
    hdfs::Datanode* dn = resolve_datanode(node);
    if (dn == nullptr) return;
    rpc_->notify(namenode_->node_id(), node,
                 [dn, block] { dn->invalidate_replica(block); });
  });

  // Flight recorder: when a recorder is installed on this thread, drive its
  // sampler from this cluster's simulated clock. With no recorder (the
  // default) nothing is scheduled and the event timeline is untouched; with
  // one, sampling only *reads* state, so the timeline shifts for no seed.
  if (metrics::flight_active()) {
    metrics::FlightRecorder* rec = metrics::flight_recorder();
    rec->set_pending_summary_provider(
        [this] { return sim_->pending_category_summary(); });
    flight_sampler_ = std::make_unique<sim::PeriodicTask>(
        *sim_, rec->sample_interval(), "trace.flight_sample", [this, rec] {
          update_flight_gauges();
          rec->sample(sim_->now());
        });
    flight_sampler_->start_with_delay(0);
  }
}

Cluster::~Cluster() {
  // The backlog this world ends with, for the robustness table of the run
  // that is finishing.
  metrics::global_registry()
      .gauge("namenode.under_replicated_blocks")
      .set(static_cast<double>(namenode_->under_replicated_blocks().size()));
  // The watchdog dump provider captures this cluster's simulation; a
  // recorder outliving the cluster (the normal case) must not call into a
  // dead object.
  if (metrics::flight_active()) {
    metrics::flight_recorder()->set_pending_summary_provider(nullptr);
  }
}

void Cluster::update_flight_gauges() {
  metrics::Registry& reg = metrics::global_registry();
  // Client-side state, readable while the namenode is down.
  std::size_t pipelines = 0;
  for (const auto& stream : streams_) {
    if (!stream->finished()) pipelines += stream->active_pipeline_count();
  }
  reg.gauge("client.pipelines_open").set(static_cast<double>(pipelines));
  if (namenode_crashed_) {
    // The process is down: liveness is zero by definition, and the replica
    // map is unreadable, so the backlog gauge keeps its last value.
    reg.gauge("nn.live_datanodes").set(0.0);
    return;
  }
  reg.gauge("nn.live_datanodes").set(
      static_cast<double>(namenode_->alive_datanodes().size()));
  if (!namenode_->safe_mode()) {
    reg.gauge("nn.under_replicated").set(
        static_cast<double>(namenode_->under_replicated_blocks().size()));
  }
}

std::size_t Cluster::add_client(const std::string& rack,
                                const InstanceProfile& profile) {
  const std::size_t index = clients_.size();
  const std::string name =
      index == 0 ? spec_.client.name : "client" + std::to_string(index);
  const NodeId node = network_->add_node(name, rack, profile.network);
  ClientRuntime runtime;
  runtime.node = node;
  runtime.tracker = std::make_unique<core::SpeedTracker>();
  runtime.quarantine = std::make_unique<hdfs::QuarantineList>(
      *sim_, spec_.hdfs.quarantine_duration);
  runtime.dfs = std::make_unique<hdfs::DfsClient>(
      *sim_, *rpc_, *namenode_, spec_.hdfs, client_ids_.next(), node);
  core::SpeedTracker* tracker = runtime.tracker.get();
  runtime.dfs->start_heartbeat(
      [tracker] { return tracker->heartbeat_records(); });
  clients_.push_back(std::move(runtime));
  return index;
}

hdfs::Datanode& Cluster::datanode(std::size_t index) {
  SMARTH_CHECK(index < datanodes_.size());
  return *datanodes_[index];
}

NodeId Cluster::datanode_id(std::size_t index) const {
  SMARTH_CHECK(index < datanode_ids_.size());
  return datanode_ids_[index];
}

NodeId Cluster::client_node(std::size_t client_index) const {
  SMARTH_CHECK(client_index < clients_.size());
  return clients_[client_index].node;
}

hdfs::DfsClient& Cluster::client(std::size_t client_index) {
  SMARTH_CHECK(client_index < clients_.size());
  return *clients_[client_index].dfs;
}

core::SpeedTracker& Cluster::speed_tracker(std::size_t client_index) {
  SMARTH_CHECK(client_index < clients_.size());
  return *clients_[client_index].tracker;
}

hdfs::Datanode* Cluster::resolve_datanode(NodeId node) {
  const auto slot = static_cast<std::size_t>(node.value());
  return node.valid() && slot < datanode_by_node_.size()
             ? datanode_by_node_[slot]
             : nullptr;
}

hdfs::AckSink* Cluster::resolve_ack_sink(NodeId node, PipelineId pipeline) {
  for (auto& stream : streams_) {
    if (stream->client_node() == node && stream->owns_pipeline(pipeline)) {
      return stream.get();
    }
  }
  return nullptr;
}

hdfs::ReadSink* Cluster::resolve_read_sink(NodeId node, hdfs::ReadId read) {
  for (auto& reader : readers_) {
    if (reader->client_node() == node && reader->owns_read(read)) {
      return reader.get();
    }
  }
  return nullptr;
}

void Cluster::throttle_cross_rack(Bandwidth bw) {
  network_->set_cross_rack_throttle(bw);
}

void Cluster::throttle_datanode(std::size_t index, Bandwidth bw) {
  network_->set_node_nic(datanode_id(index), bw);
}

void Cluster::crash_client(std::size_t index) {
  SMARTH_CHECK(index < clients_.size());
  ClientRuntime& runtime = clients_[index];
  if (runtime.crashed) return;
  runtime.crashed = true;
  // Order matters: stop the heartbeat first so no renewal is in flight,
  // then sever the host. The lease keeps its last renewal timestamp and
  // ages toward the soft/hard limits from there.
  runtime.dfs->stop_heartbeat();
  rpc_->set_host_down(runtime.node, true);
  network_->set_node_isolated(runtime.node, true);
  for (auto& stream : streams_) {
    if (stream->client_node() == runtime.node && !stream->finished()) {
      stream->abort("client crashed");
    }
  }
  SMARTH_WARN("cluster") << "client " << index << " crashed";
}

void Cluster::restart_client(std::size_t index) {
  SMARTH_CHECK(index < clients_.size());
  ClientRuntime& runtime = clients_[index];
  if (!runtime.crashed) return;
  runtime.crashed = false;
  rpc_->set_host_down(runtime.node, false);
  network_->set_node_isolated(runtime.node, false);
  // A rebooted host is a fresh writer process: old streams are gone (they
  // were aborted at crash time), and the process carries a new client
  // identity so its heartbeat does not renew the dead process's leases —
  // those must expire so the lease monitor recovers the files it left
  // under construction.
  runtime.dfs->reincarnate(client_ids_.next());
  runtime.dfs->resume_heartbeat();
  SMARTH_INFO("cluster") << "client " << index << " restarted";
}

bool Cluster::client_crashed(std::size_t index) const {
  SMARTH_CHECK(index < clients_.size());
  return clients_[index].crashed;
}

hdfs::QuarantineList& Cluster::quarantine(std::size_t client_index) {
  SMARTH_CHECK(client_index < clients_.size());
  return *clients_[client_index].quarantine;
}

void Cluster::crash_namenode() {
  if (namenode_crashed_) return;
  namenode_crashed_ = true;
  nn_crashed_at_ = sim_->now();
  namenode_->crash();
  // Client calls to a down host fall into rpc::call_with_retry backoff;
  // heartbeats and blockReceived notifies are dropped outright.
  rpc_->set_host_down(namenode_->node_id(), true);
  network_->set_node_isolated(namenode_->node_id(), true);
  SMARTH_WARN("cluster") << "namenode crashed";
}

void Cluster::restart_namenode() {
  SMARTH_CHECK_MSG(namenode_crashed_,
                   "restart_namenode: namenode is not down");
  // The recovery inputs are fixed at initiation: nothing journals while the
  // process is dead, so image + tail cannot move under the scheduled replay.
  const hdfs::NamenodeImage image = checkpointer_->latest();
  std::vector<hdfs::EditOp> tail = edit_log_->tail(image.last_txid);
  const SimDuration delay =
      spec_.hdfs.nn_restart_process_delay +
      spec_.hdfs.edit_replay_op_cost * static_cast<std::int64_t>(tail.size());
  sim_->schedule_after(delay, "nn-restart", [this, image,
                                             tail = std::move(tail)] {
    complete_namenode_recovery(image, tail, /*failover=*/false);
  });
}

void Cluster::failover_namenode() {
  SMARTH_CHECK_MSG(namenode_crashed_,
                   "failover_namenode: namenode is not down");
  SMARTH_CHECK_MSG(standby_ != nullptr,
                   "failover_namenode: enable_standby() was never called");
  // Promote the standby: only the ops past its tail position need replaying,
  // so the downtime is strictly below a cold restart from the fsimage.
  standby_->stop();
  const hdfs::NamenodeImage image = standby_->image();
  std::vector<hdfs::EditOp> tail = edit_log_->tail(image.last_txid);
  const SimDuration delay =
      spec_.hdfs.nn_failover_delay +
      spec_.hdfs.edit_replay_op_cost * static_cast<std::int64_t>(tail.size());
  sim_->schedule_after(delay, "nn-failover", [this, image,
                                              tail = std::move(tail)] {
    complete_namenode_recovery(image, tail, /*failover=*/true);
  });
}

void Cluster::complete_namenode_recovery(const hdfs::NamenodeImage& image,
                                         const std::vector<hdfs::EditOp>& tail,
                                         bool failover) {
  namenode_->restart(image, tail);
  namenode_crashed_ = false;
  rpc_->set_host_down(namenode_->node_id(), false);
  network_->set_node_isolated(namenode_->node_id(), false);
  last_nn_downtime_ = sim_->now() - nn_crashed_at_;
  metrics::global_registry()
      .histogram("namenode.downtime_ns")
      .observe(static_cast<double>(last_nn_downtime_));
  nn_crashed_at_ = -1;
  // The standby stays consistent across the outage — it tails the same log
  // the revived active journals into — so it just resumes tailing.
  if (standby_ != nullptr) standby_->start();
  SMARTH_INFO("cluster") << "namenode "
                         << (failover ? "failover" : "restart")
                         << " complete after "
                         << last_nn_downtime_ / 1'000'000 << " ms downtime ("
                         << tail.size() << " ops replayed)";
}

void Cluster::enable_standby() {
  if (standby_ != nullptr) return;
  SMARTH_CHECK_MSG(!namenode_crashed_,
                   "enable_standby: active namenode is down");
  standby_ = std::make_unique<hdfs::StandbyNamenode>(
      *sim_, network_->topology(), spec_.hdfs, namenode_->node_id(),
      *edit_log_);
  standby_->bootstrap(namenode_->capture_image(), edit_log_->last_txid());
  standby_->start();
  // Checkpoints must never truncate ops the standby has not applied yet.
  checkpointer_->set_truncate_floor(
      [this] { return standby_->applied_txid(); });
}

void Cluster::enable_rereplication(SimDuration scan_interval) {
  namenode_->enable_rereplication(
      [this](NodeId source, NodeId target, BlockId block, Bytes length,
             std::function<void(bool)> done) {
        hdfs::Datanode* source_dn = resolve_datanode(source);
        if (source_dn == nullptr || source_dn->crashed()) {
          done(false);
          return;
        }
        // The namenode's copy command travels as an RPC to the source,
        // which streams the replica to the target and finalizes it there.
        rpc_->call_async<bool>(
            namenode_->node_id(), source,
            [source_dn, block, target, length](
                std::function<void(bool)> respond) {
              source_dn->transfer_replica(block, target, length,
                                          std::move(respond),
                                          /*finalize_at_dest=*/true);
            },
            std::move(done));
      },
      scan_interval);
}

hdfs::StreamDeps Cluster::make_stream_deps(std::size_t client_index) {
  return hdfs::StreamDeps{
      *sim_,
      *transport_,
      *rpc_,
      *namenode_,
      spec_.hdfs,
      pipeline_ids_,
      [this](NodeId node) { return resolve_datanode(node); },
      *clients_[client_index].quarantine};
}

void Cluster::apply_placement_policy(Protocol protocol) {
  if (active_policy_ == protocol) return;
  active_policy_ = protocol;
  if (protocol == Protocol::kSmarth && spec_.hdfs.smarth_global_opt) {
    namenode_->set_placement_policy(
        std::make_unique<core::GlobalOptimizerPolicy>());
  } else {
    namenode_->set_placement_policy(
        std::make_unique<hdfs::DefaultPlacementPolicy>());
  }
}

void Cluster::prune_finished_endpoints() {
  // Finished streams/readers cancel their pending events and drop late RPC
  // responses via liveness tokens, so removing them here is safe; workloads
  // that loop over thousands of transfers would otherwise accumulate them.
  // An endpoint whose completion callback is running (that callback started
  // this transfer) stays until a later prune: its finish() and the
  // callback's captures are still in use.
  const auto prunable = [this](const auto& endpoint) {
    return endpoint->finished() &&
           std::find(completing_.begin(), completing_.end(),
                     &endpoint->stats()) == completing_.end();
  };
  std::erase_if(streams_, prunable);
  std::erase_if(readers_, prunable);
}

void Cluster::upload(const std::string& path, Bytes size, Protocol protocol,
                     UploadCallback on_done, std::size_t client_index) {
  SMARTH_CHECK(client_index < clients_.size());
  prune_finished_endpoints();
  apply_placement_policy(protocol);
  ClientRuntime& runtime = clients_[client_index];
  hdfs::DfsClient* dfs = runtime.dfs.get();
  core::SpeedTracker* tracker = runtime.tracker.get();

  // Every upload's outcome is counted here, once: a stream's completion, or
  // the synthesised failure of a create() that never got a stream.
  UploadCallback counted = [this, on_done = std::move(on_done)](
                               const hdfs::StreamStats& stats) {
    metrics::cached_counter(counters_.uploads, "write.uploads").add();
    if (stats.failed) {
      metrics::cached_counter(counters_.failed_uploads, "write.failed_uploads")
          .add();
    }
    if (!on_done) return;
    completing_.push_back(&stats);
    on_done(stats);
    completing_.pop_back();
  };
  dfs->create_file(path, [this, path, size, protocol, dfs, tracker,
                          client_index, started = sim_->now(),
                          on_done = std::move(counted)](
                             Result<FileId> result) mutable {
    if (!result.ok()) {
      hdfs::StreamStats stats;
      stats.client = dfs->id();
      stats.file_size = size;
      stats.started_at = started;
      stats.finished_at = sim_->now();
      stats.failed = true;
      stats.failure_reason = "create failed: " + result.error().to_string();
      if (on_done) on_done(stats);
      return;
    }
    auto stream = std::make_unique<core::SmarthOutputStream>(
        make_stream_deps(client_index), protocol, dfs->id(), dfs->node(),
        result.value(), size, *tracker, std::move(on_done));
    core::SmarthOutputStream* raw = stream.get();
    streams_.push_back(std::move(stream));
    raw->start();
  });
}

hdfs::StreamStats Cluster::run_upload(const std::string& path, Bytes size,
                                      Protocol protocol,
                                      std::size_t client_index) {
  std::optional<hdfs::StreamStats> stats;
  upload(path, size, protocol,
         [&stats](const hdfs::StreamStats& s) { stats = s; }, client_index);
  // A generous simulated-time ceiling turns protocol hangs into loud
  // failures instead of spins.
  SMARTH_CHECK_MSG(
      sim_->run_until_done([&stats] { return stats.has_value(); },
                           sim_->now() + seconds(100'000)),
      "upload did not complete within the simulated-time ceiling — protocol "
      "hang");
  return *stats;
}

hdfs::DfsInputStream::Deps Cluster::make_read_deps() {
  return hdfs::DfsInputStream::Deps{
      *sim_, *transport_, *rpc_, *namenode_, spec_.hdfs, read_ids_,
      [this](NodeId node) { return resolve_datanode(node); }};
}

void Cluster::download(const std::string& path, DownloadCallback on_done,
                       std::size_t client_index) {
  SMARTH_CHECK(client_index < clients_.size());
  prune_finished_endpoints();
  ClientRuntime& runtime = clients_[client_index];
  // Every read's outcome is counted here, once: a reader's completion, or
  // the synthesised failure of a read on a crashed client.
  DownloadCallback counted = [this, on_done = std::move(on_done)](
                                 const hdfs::ReadStats& stats) {
    metrics::cached_counter(counters_.reads, "read.reads").add();
    if (stats.failed) {
      metrics::cached_counter(counters_.failed_reads, "read.failed_reads")
          .add();
    }
    if (!on_done) return;
    completing_.push_back(&stats);
    on_done(stats);
    completing_.pop_back();
  };
  if (runtime.crashed) {
    // The bus drops a dead host's RPCs, so a reader there would wait for
    // its block locations forever. Fail the read from an event instead.
    hdfs::ReadStats stats;
    stats.client = runtime.dfs->id();
    stats.path = path;
    stats.started_at = stats.finished_at = sim_->now();
    stats.failed = true;
    stats.failure_reason = "client crashed";
    sim_->post_now("read.client_crashed",
                   [counted = std::move(counted), stats = std::move(stats)] {
                     counted(stats);
                   });
    return;
  }
  auto reader = std::make_unique<hdfs::DfsInputStream>(
      make_read_deps(), runtime.dfs->id(), runtime.node, path,
      std::move(counted));
  hdfs::DfsInputStream* raw = reader.get();
  readers_.push_back(std::move(reader));
  raw->start();
}

hdfs::ReadStats Cluster::run_download(const std::string& path,
                                      std::size_t client_index) {
  std::optional<hdfs::ReadStats> stats;
  download(path, [&stats](const hdfs::ReadStats& s) { stats = s; },
           client_index);
  SMARTH_CHECK_MSG(
      sim_->run_until_done([&stats] { return stats.has_value(); },
                           sim_->now() + seconds(100'000)),
      "download hang");
  return *stats;
}

Bytes Cluster::total_finalized_replica_bytes() const {
  Bytes total = 0;
  for (const auto& dn : datanodes_) {
    for (const auto& replica : dn->block_store().all_replicas()) {
      if (replica.state == storage::ReplicaState::kFinalized) {
        total += replica.bytes;
      }
    }
  }
  return total;
}

bool Cluster::file_fully_replicated(const std::string& path) const {
  const hdfs::FileEntry* entry = namenode_->file_by_path(path);
  if (entry == nullptr) return false;
  for (BlockId block : entry->blocks) {
    int finalized = 0;
    for (const auto& dn : datanodes_) {
      const storage::ReplicaInfo* replica = dn->block_store().find(block);
      if (replica != nullptr &&
          replica->state == storage::ReplicaState::kFinalized) {
        ++finalized;
      }
    }
    if (finalized < spec_.hdfs.replication) return false;
  }
  return true;
}

}  // namespace smarth::cluster
