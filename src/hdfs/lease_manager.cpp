#include "hdfs/lease_manager.hpp"

namespace smarth::hdfs {

void LeaseManager::add(ClientId holder, FileId file, SimTime now) {
  Lease& lease = leases_[holder];
  lease.last_renewal = now;
  lease.files.insert(file);
  ++renewals_;
}

void LeaseManager::renew(ClientId holder, SimTime now) {
  leases_[holder].last_renewal = now;
  ++renewals_;
}

void LeaseManager::release(ClientId holder, FileId file) {
  auto it = leases_.find(holder);
  if (it == leases_.end()) return;
  it->second.files.erase(file);
}

void LeaseManager::reassign(FileId file, ClientId from, ClientId to,
                            SimTime now) {
  release(from, file);
  add(to, file, now);
}

bool LeaseManager::holds(ClientId holder, FileId file) const {
  auto it = leases_.find(holder);
  return it != leases_.end() && it->second.files.count(file) > 0;
}

bool LeaseManager::soft_expired(ClientId holder, SimTime now) const {
  auto it = leases_.find(holder);
  if (it == leases_.end()) return true;
  return now - it->second.last_renewal > soft_limit_;
}

bool LeaseManager::hard_expired(ClientId holder, SimTime now) const {
  auto it = leases_.find(holder);
  if (it == leases_.end()) return true;
  return now - it->second.last_renewal > hard_limit_;
}

std::vector<std::pair<ClientId, FileId>> LeaseManager::hard_expired_files(
    SimTime now) const {
  std::vector<std::pair<ClientId, FileId>> expired;
  for (const auto& [holder, lease] : leases_) {
    if (lease.files.empty()) continue;
    if (now - lease.last_renewal <= hard_limit_) continue;
    for (FileId file : lease.files) expired.emplace_back(holder, file);
  }
  return expired;
}

void LeaseManager::snapshot(std::vector<LeaseImage>& out) const {
  out.resize(leases_.size());
  std::size_t i = 0;
  for (const auto& [holder, lease] : leases_) {
    LeaseImage& image = out[i++];
    image.holder = holder;
    image.last_renewal = lease.last_renewal;
    image.files.assign(lease.files.begin(), lease.files.end());
  }
}

void LeaseManager::restore(const std::vector<LeaseImage>& leases) {
  leases_.clear();
  for (const LeaseImage& image : leases) {
    Lease& lease = leases_[image.holder];
    lease.last_renewal = image.last_renewal;
    lease.files.insert(image.files.begin(), image.files.end());
  }
}

void LeaseManager::reset_renewals(SimTime now) {
  for (auto& [holder, lease] : leases_) lease.last_renewal = now;
}

std::size_t LeaseManager::active_lease_count() const {
  std::size_t count = 0;
  for (const auto& [holder, lease] : leases_) {
    if (!lease.files.empty()) ++count;
  }
  return count;
}

}  // namespace smarth::hdfs
