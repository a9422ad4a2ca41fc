#include "net/link.hpp"

#include "common/check.hpp"
#include "net/network.hpp"

namespace smarth::net {

Link::Link(sim::Simulation& sim, std::string name, Bandwidth capacity,
           SimDuration latency)
    : sim_(sim), name_(std::move(name)), capacity_(capacity),
      latency_(latency) {
  SMARTH_CHECK_MSG(latency_ >= 0, "negative link latency on " << name_);
}

void Link::transmit(Bytes size, DeliveryCallback on_delivered,
                    LinkPriority priority, FlowKey flow) {
  SMARTH_CHECK_MSG(size >= 0, "negative message size on " << name_);
  SMARTH_CHECK(static_cast<bool>(on_delivered));
  Message* msg = direct_pool_.acquire();
  msg->size = size;
  msg->priority = priority;
  msg->flow = flow;
  msg->network = nullptr;
  msg->on_delivered = std::move(on_delivered);
  enqueue(msg);
}

void Link::enqueue(Message* msg) {
  msg->next = nullptr;
  if (msg->priority == LinkPriority::kControl) {
    if (control_tail_ != nullptr) {
      control_tail_->next = msg;
    } else {
      control_head_ = msg;
    }
    control_tail_ = msg;
    ++control_queued_;
  } else {
    // Active flows per link are few (one per pipeline or read crossing it),
    // so a scan of the ring is cheaper than any keyed lookup.
    Message* head = ring_head_;
    while (head != nullptr && head->flow != msg->flow) head = head->next_flow;
    if (head != nullptr) {
      head->flow_tail->next = msg;
      head->flow_tail = msg;
    } else {
      msg->flow_tail = msg;
      join_ring(msg);
    }
    ++bulk_queued_;
  }
  queued_bytes_ += msg->size;
  try_start_next();
}

void Link::join_ring(Message* head) {
  head->next_flow = nullptr;
  if (ring_tail_ != nullptr) {
    ring_tail_->next_flow = head;
  } else {
    ring_head_ = head;
  }
  ring_tail_ = head;
}

void Link::pause() { paused_ = true; }

void Link::resume() {
  if (!paused_) return;
  paused_ = false;
  try_start_next();
}

Message* Link::pop_next() {
  if (Message* msg = control_head_) {
    control_head_ = msg->next;
    if (control_head_ == nullptr) control_tail_ = nullptr;
    --control_queued_;
    return msg;
  }
  Message* msg = ring_head_;
  if (msg == nullptr) return nullptr;
  // Round-robin over flows with queued bulk messages: the front flow sends
  // one message and, if it has more, goes to the back of the ring.
  ring_head_ = msg->next_flow;
  if (ring_head_ == nullptr) ring_tail_ = nullptr;
  if (Message* successor = msg->next) {
    successor->flow_tail = msg->flow_tail;
    join_ring(successor);
  }
  --bulk_queued_;
  return msg;
}

void Link::try_start_next() {
  if (current_ != nullptr || paused_) return;
  Message* msg = pop_next();
  if (msg == nullptr) return;
  current_ = msg;
  queued_bytes_ -= msg->size;
  busy_since_ = sim_.now();
  // Serialization completes after the transmit time; the message then
  // propagates for `latency_` without occupying the link (cut-through for
  // the wire).
  sim_.post_after(transmit_time(msg->size), "link.serialize",
                  [this] { finish_current(); });
}

SimDuration Link::transmit_time(Bytes size) {
  if (size != memo_size_) {
    memo_size_ = size;
    memo_time_ = capacity_.transmit_time(size);
  }
  return memo_time_;
}

void Link::finish_current() {
  Message* msg = current_;
  current_ = nullptr;
  busy_accum_ += sim_.now() - busy_since_;
  bytes_transmitted_ += msg->size;
  ++messages_transmitted_;
  // With no latency and nothing else due now, the queued deliver would be
  // the next event to run: hand the message on in place instead, as this
  // event's last act. Asked before try_start_next(), which may post a
  // zero-size successor's serialize at now(); that event still runs after
  // the delivery, as it would behind the queued one.
  const bool in_place = latency_ == 0 && sim_.may_run_in_place();
  if (!in_place) {
    sim_.post_after(latency_, "link.deliver", [this, msg] { deliver(msg); });
  }
  try_start_next();
  if (in_place) {
    sim_.count_in_place();
    deliver(msg);
  }
}

void Link::deliver(Message* msg) {
  if (msg->network != nullptr) {
    msg->network->forward(msg);
    return;
  }
  // A direct transmit: recycle the record before firing, so the callback may
  // transmit again (or destroy this link) freely.
  DeliveryCallback cb = std::move(msg->on_delivered);
  direct_pool_.release(msg);
  cb();
}

SimDuration Link::busy_time() const {
  SimDuration t = busy_accum_;
  if (busy()) t += sim_.now() - busy_since_;
  return t;
}

}  // namespace smarth::net
