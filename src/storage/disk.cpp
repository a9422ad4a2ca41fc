#include "storage/disk.hpp"

#include "common/check.hpp"

namespace smarth::storage {

namespace {
/// Rotational media read somewhat faster than they write.
constexpr double kReadRatio = 1.2;
}  // namespace

DiskDevice::DiskDevice(sim::Simulation& sim, std::string name,
                       Bandwidth write_bandwidth, SimDuration per_op_overhead)
    : sim_(sim), name_(std::move(name)), write_bandwidth_(write_bandwidth),
      per_op_overhead_(per_op_overhead) {
  SMARTH_CHECK(per_op_overhead_ >= 0);
}

Bandwidth DiskDevice::read_bandwidth() const {
  return Bandwidth::bits_per_second(write_bandwidth_.bits_per_second() *
                                    kReadRatio);
}

SimDuration DiskDevice::service_time(Bytes size) const {
  return per_op_overhead_ + write_bandwidth_.transmit_time(size);
}

void DiskDevice::write(Bytes size, WriteCallback on_done) {
  enqueue(size, /*ops=*/1, /*is_read=*/false, std::move(on_done));
}

void DiskDevice::write(Bytes size, std::uint64_t ops, WriteCallback on_done) {
  enqueue(size, ops, /*is_read=*/false, std::move(on_done));
}

void DiskDevice::read(Bytes size, WriteCallback on_done) {
  enqueue(size, /*ops=*/1, /*is_read=*/true, std::move(on_done));
}

void DiskDevice::read(Bytes size, std::uint64_t ops, WriteCallback on_done) {
  enqueue(size, ops, /*is_read=*/true, std::move(on_done));
}

void DiskDevice::enqueue(Bytes size, std::uint64_t ops, bool is_read,
                         WriteCallback on_done) {
  SMARTH_CHECK_MSG(size >= 0, "negative op size on " << name_);
  SMARTH_CHECK(ops >= 1);
  SMARTH_CHECK(static_cast<bool>(on_done));
  Request* req = requests_.acquire();
  req->size = size;
  req->ops = ops;
  req->is_read = is_read;
  req->on_done = std::move(on_done);
  if (tail_ != nullptr) {
    tail_->next = req;
  } else {
    head_ = req;
  }
  tail_ = req;
  ++queued_;
  if (!busy()) start_next();
}

void DiskDevice::start_next() {
  Request* req = head_;
  if (req == nullptr) return;
  head_ = req->next;
  if (head_ == nullptr) tail_ = nullptr;
  --queued_;
  current_ = req;
  busy_since_ = sim_.now();
  // A coalesced request (ops > 1) pays the per-op overhead once per logical
  // operation so block-fidelity runs charge the same seek/syscall budget a
  // packet-granularity run would.
  const SimDuration per_op =
      static_cast<SimDuration>(req->ops) * per_op_overhead_;
  const SimDuration service =
      per_op + (req->is_read ? read_bandwidth() : write_bandwidth_)
                   .transmit_time(req->size);
  sim_.post_after(service, "disk.io", [this] { finish_current(); });
}

void DiskDevice::finish_current() {
  Request* req = current_;
  current_ = nullptr;
  busy_accum_ += sim_.now() - busy_since_;
  if (req->is_read) {
    bytes_read_ += req->size;
  } else {
    bytes_written_ += req->size;
  }
  ops_completed_ += req->ops;
  // The callback may queue more I/O, which starts at once on the idle head.
  req->on_done();
  req->on_done = nullptr;
  requests_.release(req);
  if (!busy()) start_next();
}

SimDuration DiskDevice::busy_time() const {
  SimDuration t = busy_accum_;
  if (busy()) t += sim_.now() - busy_since_;
  return t;
}

}  // namespace smarth::storage
