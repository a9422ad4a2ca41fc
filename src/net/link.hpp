// A store-and-forward serializing link: the unit resource of the network
// model. A message of S bytes occupies the link for S / capacity, then
// arrives after the propagation latency. Concurrent senders share the link by
// FIFO queueing — which is how tc-shaped TCP flows share a shaped device at
// the packet granularity we simulate.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "sim/simulation.hpp"
#include "sim/slab_pool.hpp"

namespace smarth::net {

/// Scheduling class for a message. Real NICs interleave flows at MTU
/// granularity, so a 64-byte ACK never waits behind a megabyte of queued
/// bulk data; we model that by letting control messages bypass the bulk
/// queue (they still wait for the in-flight message to finish serializing).
enum class LinkPriority { kBulk, kControl };

/// Tag identifying which transport flow a bulk message belongs to. Bulk
/// messages of different flows share the link round-robin (approximating
/// per-connection TCP fairness) instead of strict FIFO, so a reader's
/// packets are not pinned behind another flow's whole-block backlog.
using FlowKey = std::uint64_t;
inline constexpr FlowKey kDefaultFlow = 0;

/// Fired once a message has arrived. Captures up to 64 bytes (a typed
/// protocol message plus a couple of pointers) live inline in the message
/// record, like event callbacks.
using DeliveryCallback = sim::Simulation::Callback;

/// Longest store-and-forward route: egress, cross-rack shaper, rack uplink,
/// cross-rack shaper, ingress.
inline constexpr std::size_t kMaxHops = 5;

class Link;
class Network;

/// One message in flight: a pooled record owned by its sender (the Network,
/// or a Link for its direct transmit()) from send to arrival. A message waits
/// in at most one link queue at a time, so the record is its own queue node
/// and no hop, queue or delivery allocates.
struct Message {
  Message* next = nullptr;       ///< link-queue successor; pool freelist link
  Message* next_flow = nullptr;  ///< bulk ring: next active flow's head
  Message* flow_tail = nullptr;  ///< bulk ring: last queued message of this
                                 ///< flow (kept on the flow's head only)
  Bytes size = 0;
  FlowKey flow = kDefaultFlow;
  LinkPriority priority = LinkPriority::kBulk;
  std::uint8_t hop = 0;        ///< index into `route` of the current link
  std::uint8_t hop_count = 0;
  std::array<Link*, kMaxHops> route{};
  SimDuration propagation = 0;    ///< paid once, after the last hop
  Network* network = nullptr;     ///< null for a direct Link::transmit
  DeliveryCallback on_delivered;
};

class Link {
 public:
  Link(sim::Simulation& sim, std::string name, Bandwidth capacity,
       SimDuration latency);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  const std::string& name() const { return name_; }
  Bandwidth capacity() const { return capacity_; }
  SimDuration latency() const { return latency_; }

  /// Changes the capacity; applies to transmissions that start afterwards
  /// (matching `tc qdisc change` semantics).
  void set_capacity(Bandwidth capacity) {
    capacity_ = capacity;
    memo_size_ = -1;
  }

  /// Enqueues a message; `on_delivered` fires once it is fully serialized and
  /// has propagated. Zero-size messages still pay the latency. Bulk messages
  /// with distinct `flow` keys share the link round-robin.
  void transmit(Bytes size, DeliveryCallback on_delivered,
                LinkPriority priority = LinkPriority::kBulk,
                FlowKey flow = kDefaultFlow);

  /// Flow control: while paused the link finishes the in-flight message but
  /// starts no new one. Used to model receive-window backpressure.
  void pause();
  void resume();
  bool paused() const { return paused_; }

  // --- Introspection / statistics ------------------------------------------
  bool busy() const { return current_ != nullptr; }
  std::size_t queued_count() const { return bulk_queued_ + control_queued_; }
  Bytes queued_bytes() const { return queued_bytes_; }
  Bytes bytes_transmitted() const { return bytes_transmitted_; }
  std::uint64_t messages_transmitted() const { return messages_transmitted_; }
  /// Total time the link spent serializing (for utilization reports).
  SimDuration busy_time() const;

 private:
  friend class Network;

  /// Queues `msg` (size, priority and flow set) and starts it if idle. When
  /// it has serialized and propagated, the link hands it back to
  /// msg->network, or, for a direct transmit, fires and recycles it.
  void enqueue(Message* msg);
  /// Appends a flow, represented by its head message, to the bulk ring.
  void join_ring(Message* head);
  /// Unlinks the next message to serve: control first, then the head of the
  /// bulk ring's front flow. Null when both lanes are empty.
  Message* pop_next();
  void try_start_next();
  /// capacity_.transmit_time(size), memoized for the last size asked: most
  /// messages on a link share one size (a full packet, or an ACK).
  SimDuration transmit_time(Bytes size);
  void finish_current();
  void deliver(Message* msg);

  sim::Simulation& sim_;
  std::string name_;
  Bandwidth capacity_;
  SimDuration latency_;
  /// One-entry transmit_time memo; a size of -1 marks it empty.
  Bytes memo_size_ = -1;
  SimDuration memo_time_ = 0;

  /// The message being serialized; null when idle.
  Message* current_ = nullptr;
  /// Control lane: one FIFO (bypasses bulk).
  Message* control_head_ = nullptr;
  Message* control_tail_ = nullptr;
  /// Bulk lane: one FIFO per flow, serviced round-robin. The ring links each
  /// active flow's head message in service order; a flow leaves the ring when
  /// its queue drains and rejoins at the back when a message arrives.
  Message* ring_head_ = nullptr;
  Message* ring_tail_ = nullptr;
  std::size_t control_queued_ = 0;
  std::size_t bulk_queued_ = 0;
  Bytes queued_bytes_ = 0;
  bool paused_ = false;

  /// Records for direct transmit() calls; messages routed by a Network come
  /// from the Network's pool.
  sim::SlabPool<Message, 16> direct_pool_;

  Bytes bytes_transmitted_ = 0;
  std::uint64_t messages_transmitted_ = 0;
  SimDuration busy_accum_ = 0;
  SimTime busy_since_ = 0;
};

}  // namespace smarth::net
