// The types the client write path shares: the write engine
// (core::SmarthOutputStream, which runs both protocols), pipeline recovery
// (hdfs::BlockRecovery), the client's namenode calls and the metrics layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/quarantine.hpp"
#include "hdfs/transport.hpp"
#include "hdfs/types.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {

/// The write protocols. They differ only in the pipeline schedule (paper
/// §III-A), so one engine runs both.
enum class Protocol { kHdfs, kSmarth };

/// Everything a client-side stream needs from its environment.
struct StreamDeps {
  sim::Simulation& sim;
  Transport& transport;
  rpc::RpcBus& rpc;
  Namenode& namenode;
  const HdfsConfig& config;
  /// Cluster-wide pipeline id source: datanodes key pipeline state by id, so
  /// ids must be unique across every client and stream.
  IdGenerator<PipelineId>& pipeline_ids;
  /// Resolves datanode RPC endpoints (installed by the cluster wiring).
  std::function<Datanode*(NodeId)> datanode_resolver;
  /// Per-client quarantine list: recovery feeds failures into it;
  /// placement requests deprioritize its members.
  QuarantineList& quarantine;
};

/// A client -> namenode call_with_retry under the default RetryPolicy, for
/// an op admission control may shed. A shed call comes back as the typed
/// rejection Error{"overloaded", "namenode shed <what>"}, where <what> is
/// `describe()` (a callable returning the op's std::string description,
/// built only when the op is shed) or, without one, `label`; an `overloaded`
/// response is retried with backoff while attempts remain.
template <typename T, typename Handler, typename OnResponse, typename OnGiveUp,
          typename Describe = std::nullptr_t>
void call_namenode(rpc::RpcBus& bus, sim::Simulation& sim, NodeId client,
                   NodeId namenode, Handler&& handler, OnResponse&& on_response,
                   OnGiveUp&& on_give_up, const char* label,
                   rpc::CallOptions options, Describe describe = nullptr) {
  rpc::call_with_retry<Result<T>>(
      bus, sim, rpc::RetryPolicy{}, client, namenode,
      std::forward<Handler>(handler), std::forward<OnResponse>(on_response),
      std::forward<OnGiveUp>(on_give_up), label, options,
      [label, describe = std::move(describe)]() mutable {
        std::string op;
        if constexpr (std::is_null_pointer_v<Describe>) {
          op = label;
        } else {
          op = describe();
        }
        return Result<T>(Error{"overloaded", "namenode shed " + op});
      },
      [](const Result<T>& r) {
        return !r.ok() && r.error().code == "overloaded";
      });
}

/// A packet produced by the client but not yet bound to a block id (binding
/// happens when it is handed to a pipeline).
struct ProducedPacket {
  std::int64_t block_index = 0;
  std::int64_t seq_in_block = 0;
  Bytes payload = 0;
  bool last_in_block = false;
};

/// Final statistics of one upload, consumed by the metrics layer.
struct StreamStats {
  ClientId client;
  Bytes file_size = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  std::int64_t blocks = 0;
  std::int64_t packets = 0;
  int pipelines_created = 0;
  int max_concurrent_pipelines = 0;
  int recoveries = 0;
  bool failed = false;
  std::string failure_reason;

  SimDuration elapsed() const { return finished_at - started_at; }
  Bandwidth throughput() const { return throughput_of(file_size, elapsed()); }
};

}  // namespace smarth::hdfs
