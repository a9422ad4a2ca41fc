#include "hdfs/dfs_client.hpp"

#include "hdfs/output_stream.hpp"

namespace smarth::hdfs {

DfsClient::DfsClient(sim::Simulation& sim, rpc::RpcBus& rpc,
                     Namenode& namenode, const HdfsConfig& config, ClientId id,
                     NodeId node)
    : sim_(sim), rpc_(rpc), namenode_(namenode), config_(config), id_(id),
      node_(node) {}

DfsClient::~DfsClient() = default;

void DfsClient::create_file(const std::string& path,
                            std::function<void(Result<FileId>)> cb,
                            bool overwrite) {
  create_file_attempt(path, std::move(cb), overwrite, sim_.now());
}

void DfsClient::create_file_attempt(const std::string& path,
                                    std::function<void(Result<FileId>)> cb,
                                    bool overwrite, SimTime started_at) {
  Namenode& nn = namenode_;
  auto shared_cb =
      std::make_shared<std::function<void(Result<FileId>)>>(std::move(cb));
  call_namenode<FileId>(
      rpc_, sim_, node_, nn.node_id(),
      [&nn, path, client = id_, overwrite] {
        return nn.create(path, client, overwrite);
      },
      [this, shared_cb, path, overwrite, started_at](Result<FileId> result) {
        if (!result.ok()) {
          SimDuration budget = 0;
          SimDuration interval = 0;
          if (result.error().code == "recovery_in_progress") {
            // The previous writer's lease is being recovered; the file will
            // be closed at its consistent prefix within a bounded number of
            // monitor rounds. Wait one round and retry, up to a budget far
            // past the worst-case recovery time.
            budget = config_.lease_hard_limit +
                     config_.lease_recovery_retry_interval *
                         (config_.lease_recovery_max_attempts + 1);
            interval = config_.lease_monitor_interval;
          } else if (result.error().code == "overloaded") {
            // The namenode shed the call even after RPC-level backoff; keep
            // polling at the overload interval under the overload budget,
            // then fail cleanly.
            budget = config_.overload_retry_budget;
            interval = config_.overload_retry_interval;
          }
          const SimDuration waited = sim_.now() - started_at;
          if (budget > 0 && waited < budget) {
            sim_.schedule_after(
                interval, "client.create_retry",
                [this, path, shared_cb, overwrite, started_at] {
                  create_file_attempt(path, *shared_cb, overwrite, started_at);
                });
            return;
          }
        }
        (*shared_cb)(std::move(result));
      },
      [shared_cb, path] {
        (*shared_cb)(Error{"rpc_timeout",
                           "create(" + path +
                               ") gave up after repeated timeouts"});
      },
      "create", {rpc::ServiceClass::kMeta}, "create(" + path + ")");
}

void DfsClient::start_heartbeat(
    std::function<std::vector<SpeedRecord>()> speed_source) {
  speed_source_ = std::move(speed_source);
  if (heartbeat_) return;
  heartbeat_ = std::make_unique<sim::PeriodicTask>(
      sim_, config_.heartbeat_interval, "client.heartbeat", [this] {
        ++heartbeats_sent_;
        std::vector<SpeedRecord> records;
        if (speed_source_) records = speed_source_();
        Namenode& nn = namenode_;
        // Every heartbeat renews this client's lease on its open files;
        // speed records ride along in SMARTH mode.
        rpc_.notify(node_, nn.node_id(),
                    [&nn, client = id_, records = std::move(records)] {
                      nn.client_heartbeat(client, records);
                    },
                    {rpc::ServiceClass::kHeartbeat});
      });
  const auto jitter = static_cast<SimDuration>(
      sim_.rng().uniform_int(0, config_.heartbeat_interval - 1));
  heartbeat_->start_with_delay(jitter);
}

void DfsClient::resume_heartbeat() {
  if (!heartbeat_ || heartbeat_->running()) return;
  const auto jitter = static_cast<SimDuration>(
      sim_.rng().uniform_int(0, config_.heartbeat_interval - 1));
  heartbeat_->start_with_delay(jitter);
}

void DfsClient::stop_heartbeat() {
  if (heartbeat_) heartbeat_->stop();
}

}  // namespace smarth::hdfs
