// A datanode's local disk, modelled as a FIFO write queue with a sustained
// write bandwidth and a fixed per-operation overhead. The per-packet store
// time this produces is the paper's `Tw`. Reads share the queue at 1.2 times
// the current write rate, so a fail-slow window that throttles writes slows
// reads alike.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "sim/simulation.hpp"
#include "sim/slab_pool.hpp"

namespace smarth::storage {

class DiskDevice {
 public:
  /// Captures up to 64 bytes live inline in the pooled request record.
  using WriteCallback = sim::Simulation::Callback;

  DiskDevice(sim::Simulation& sim, std::string name, Bandwidth write_bandwidth,
             SimDuration per_op_overhead);

  DiskDevice(const DiskDevice&) = delete;
  DiskDevice& operator=(const DiskDevice&) = delete;

  const std::string& name() const { return name_; }
  Bandwidth write_bandwidth() const { return write_bandwidth_; }
  void set_write_bandwidth(Bandwidth bw) { write_bandwidth_ = bw; }
  /// A fixed multiple (1.2) of the current write bandwidth.
  Bandwidth read_bandwidth() const;

  /// Enqueues a write of `size` bytes; `on_done` fires when it is durable.
  void write(Bytes size, WriteCallback on_done);
  /// Coalesced write representing `ops` logical operations: pays the per-op
  /// overhead `ops` times (block-fidelity parity with packet-granularity
  /// writes) and advances ops_completed() by `ops`.
  void write(Bytes size, std::uint64_t ops, WriteCallback on_done);

  /// Enqueues a read of `size` bytes; reads and writes share the same FIFO
  /// (one head), so concurrent readers contend with the write path — the
  /// I/O-interference effect block reads cause on ingesting datanodes.
  void read(Bytes size, WriteCallback on_done);
  void read(Bytes size, std::uint64_t ops, WriteCallback on_done);

  /// Expected service time for one write of `size` (used by the analytic
  /// model to derive Tw).
  SimDuration service_time(Bytes size) const;

  // --- Statistics -----------------------------------------------------------
  bool busy() const { return current_ != nullptr; }
  std::size_t queue_depth() const { return queued_; }
  Bytes bytes_written() const { return bytes_written_; }
  Bytes bytes_read() const { return bytes_read_; }
  std::uint64_t ops_completed() const { return ops_completed_; }
  SimDuration busy_time() const;

 private:
  /// One queued or in-service request, pooled; `next` links the FIFO.
  struct Request {
    Request* next = nullptr;
    Bytes size = 0;
    std::uint64_t ops = 1;
    bool is_read = false;
    WriteCallback on_done;
  };

  void enqueue(Bytes size, std::uint64_t ops, bool is_read,
               WriteCallback on_done);
  void start_next();
  void finish_current();

  sim::Simulation& sim_;
  std::string name_;
  Bandwidth write_bandwidth_;
  SimDuration per_op_overhead_;

  /// Request records; an idle disk holds no slab.
  sim::SlabPool<Request, 16> requests_;
  Request* head_ = nullptr;  ///< FIFO of requests waiting for the head
  Request* tail_ = nullptr;
  std::size_t queued_ = 0;
  Request* current_ = nullptr;  ///< the request being serviced
  Bytes bytes_written_ = 0;
  Bytes bytes_read_ = 0;
  std::uint64_t ops_completed_ = 0;
  SimDuration busy_accum_ = 0;
  SimTime busy_since_ = 0;
};

}  // namespace smarth::storage
