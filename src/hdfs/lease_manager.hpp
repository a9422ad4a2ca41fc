// Write leases, HDFS-style. Every file under construction is covered by a
// lease held by its writer; the lease is renewed implicitly by every namenode
// RPC the client makes and explicitly by its heartbeat. Past the *soft* limit
// another client may force recovery of the file (create-takeover); past the
// *hard* limit the namenode's lease monitor recovers it unprompted. The
// manager is pure bookkeeping — all policy (when to scan, how to recover)
// lives in the namenode, which passes the current simulation time in.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace smarth::hdfs {

/// One client's lease in durable form: holder, last renewal stamp, held
/// files (sorted). Snapshotted into the fsimage and compared bit-for-bit by
/// the replay-equivalence property test.
struct LeaseImage {
  ClientId holder;
  SimTime last_renewal = 0;
  std::vector<FileId> files;

  friend bool operator==(const LeaseImage&, const LeaseImage&) = default;
};

class LeaseManager {
 public:
  LeaseManager(SimDuration soft_limit, SimDuration hard_limit)
      : soft_limit_(soft_limit), hard_limit_(hard_limit) {}

  /// Registers `file` under `holder`'s lease (creating the lease if this is
  /// the holder's first file) and renews it.
  void add(ClientId holder, FileId file, SimTime now);

  /// Renews `holder`'s lease. Creates an empty lease for a previously
  /// unknown holder so liveness is tracked from the first heartbeat on.
  void renew(ClientId holder, SimTime now);

  /// Drops `file` from `holder`'s lease (file closed or abandoned). The
  /// holder's renewal record survives; an empty lease expires no files.
  void release(ClientId holder, FileId file);

  /// Moves `file` from `from`'s lease to `to`'s, renewing `to`. Used when
  /// recovery hands an expired writer's file to the namenode (or when a
  /// takeover hands it to a new writer).
  void reassign(FileId file, ClientId from, ClientId to, SimTime now);

  /// True if `holder` currently leases `file`.
  bool holds(ClientId holder, FileId file) const;

  /// True when the holder has not renewed within the soft limit — or has no
  /// lease at all (an unknown holder guards nothing).
  bool soft_expired(ClientId holder, SimTime now) const;
  bool hard_expired(ClientId holder, SimTime now) const;

  /// Every (holder, file) pair past the hard limit, in deterministic
  /// (holder, file) order — the lease monitor's scan input.
  std::vector<std::pair<ClientId, FileId>> hard_expired_files(
      SimTime now) const;

  /// Leases that guard at least one file.
  std::size_t active_lease_count() const;
  std::uint64_t renewals() const { return renewals_; }

  SimDuration soft_limit() const { return soft_limit_; }
  SimDuration hard_limit() const { return hard_limit_; }

  // --- durability -----------------------------------------------------------
  /// Writes all leases (including empty heartbeat-only ones), sorted by
  /// holder, into `out`, reusing its elements' storage.
  void snapshot(std::vector<LeaseImage>& out) const;
  /// Replaces the lease table with `leases` (fsimage restore). The renewal
  /// counter is telemetry, not namespace state, and is left untouched.
  void restore(const std::vector<LeaseImage>& leases);
  /// Stamps every lease as renewed at `now`. A restarted namenode cannot
  /// distinguish "writer died during the outage" from "renewals were lost
  /// with the process", so — like HDFS — expiry clocks restart with it.
  void reset_renewals(SimTime now);

 private:
  struct Lease {
    SimTime last_renewal = 0;
    std::set<FileId> files;
  };

  // Ordered maps: the lease monitor iterates these and its decisions must be
  // reproducible run-to-run.
  std::map<ClientId, Lease> leases_;
  SimDuration soft_limit_;
  SimDuration hard_limit_;
  std::uint64_t renewals_ = 0;
};

}  // namespace smarth::hdfs
