#include "hdfs/input_stream.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "hdfs/datanode.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::hdfs {

DfsInputStream::DfsInputStream(Deps deps, ClientId client, NodeId client_node,
                               std::string path, DoneCallback on_done)
    : deps_(std::move(deps)), client_(client), client_node_(client_node),
      path_(std::move(path)), on_done_(std::move(on_done)) {
  stats_.client = client_;
  stats_.path = path_;
}

DfsInputStream::~DfsInputStream() {
  watchdog_.cancel();
  hedge_timer_.cancel();
  cold_start_deadline_.cancel();
  *alive_ = false;
}

void DfsInputStream::start() {
  stats_.started_at = deps_.sim.now();
  metrics::global_registry().gauge("client.reads_open").add(1.0);
  if (trace::active()) {
    read_span_ = trace::recorder()->begin_span(
        trace::Category::kRead, "read", "read " + path_,
        {{"client", std::to_string(client_.value())}, {"path", path_}});
  }
  fetch_locations();
}

void DfsInputStream::fetch_locations() {
  Namenode& nn = deps_.namenode;
  deps_.rpc.call<Result<std::vector<LocatedBlock>>>(
      client_node_, nn.node_id(),
      [&nn, path = path_, reader = client_node_] {
        return nn.get_block_locations(path, reader);
      },
      [this, alive = alive_](Result<std::vector<LocatedBlock>> result) {
        if (!*alive || finished_) return;
        if (!result.ok()) {
          finish(true, "getBlockLocations failed: " +
                           result.error().to_string());
          return;
        }
        blocks_ = result.value();
        block_sizes_.clear();
        for (const LocatedBlock& block : blocks_) {
          block_sizes_.push_back(block.length);
        }
        stats_.blocks = static_cast<std::int64_t>(blocks_.size());
        if (blocks_.empty()) {
          finish(true, "file has no blocks: " + path_);
          return;
        }
        start_block(0);
      });
}

void DfsInputStream::start_block(std::size_t block_index) {
  if (block_index >= blocks_.size()) {
    finish(false, "");
    return;
  }
  current_block_ = block_index;
  block_bytes_received_ = 0;
  primary_.reset();
  hedge_.reset();
  failed_replicas_.clear();
  checksum_failed_replicas_.clear();
  request_from_replica();
}

void DfsInputStream::request_from_replica() {
  const LocatedBlock& block = blocks_[current_block_];
  if (block.targets.empty() && block.all_replicas_corrupt) {
    // The namenode already quarantined every known replica: fail fast with
    // the distinct integrity error rather than a liveness timeout.
    finish(true, "all_replicas_corrupt: no uncorrupted replica of " +
                     block.block.to_string());
    return;
  }
  // Replicas arrive distance-sorted from the namenode; take the first one
  // not yet marked bad for this block, preferring replicas that have not
  // lost a hedge race during this read.
  NodeId pick;
  for (NodeId replica : block.targets) {
    if (failed_replicas_.count(replica.value()) != 0) continue;
    if (slow_replicas_.count(replica.value()) != 0) continue;
    pick = replica;
    break;
  }
  if (!pick.valid()) {
    for (NodeId replica : block.targets) {
      if (failed_replicas_.count(replica.value()) != 0) continue;
      pick = replica;
      break;
    }
  }
  if (!pick.valid()) {
    if (!failed_replicas_.empty() &&
        checksum_failed_replicas_.size() == failed_replicas_.size()) {
      // Every replica we tried was rotted — a pure integrity failure, not a
      // liveness one. Surface it distinctly and never retry in a loop: the
      // namenode has been told about each bad copy already.
      finish(true, "all_replicas_corrupt: every replica of " +
                       block.block.to_string() +
                       " failed checksum verification");
      return;
    }
    finish(true, "no live replica left for " + block.block.to_string());
    return;
  }
  if (trace::active()) {
    block_span_ = trace::recorder()->begin_span(
        trace::Category::kRead, "read",
        "block " + std::to_string(current_block_) + " from " +
            pick.to_string(),
        {{"block", block.block.to_string()},
         {"replica", pick.to_string()},
         {"offset", std::to_string(block_bytes_received_)}});
  }
  SMARTH_DEBUG("read") << path_ << " block " << current_block_
                       << ": reading from " << pick.to_string() << " at "
                       << block_bytes_received_;
  send_attempt(primary_, pick);
  arm_watchdog();
  arm_hedge_timer();
  arm_cold_start_deadline();
}

void DfsInputStream::arm_cold_start_deadline() {
  cold_start_deadline_.cancel();
  if (finished_ || !deps_.config.hedged_reads || hedge_.active()) return;
  const auto* gaps = metrics::global_registry().find_histogram("read.gap_ns");
  if (gaps != nullptr && gaps->count() >= deps_.config.hedge_min_samples) {
    return;  // warm: the pace trigger owns slowness detection now
  }
  cold_start_deadline_ = deps_.sim.schedule_after(
      deps_.config.hedge_static_threshold, "read.cold_start_hedge", [this] {
        if (finished_) return;
        launch_hedge("cold start");
      });
}

void DfsInputStream::send_attempt(ReadAttempt& attempt, NodeId replica) {
  attempt.read = deps_.read_ids.next();
  attempt.replica = replica;
  attempt.start_offset = block_bytes_received_;
  attempt.bytes = 0;
  attempt.expected_seq = 0;
  ReadRequest request;
  request.read = attempt.read;
  request.block = blocks_[current_block_].block;
  request.offset = attempt.start_offset;  // resume after failover / hedge
  request.length = block_sizes_[current_block_] - attempt.start_offset;
  request.reader_node = client_node_;
  deps_.transport.send_read_request(client_node_, replica, request);
}

SimDuration DfsInputStream::hedge_threshold(NodeId replica) const {
  const auto* hist = metrics::global_registry().find_histogram(
      "datanode." + replica.to_string() + ".ack_ns");
  if (hist != nullptr && hist->count() >= deps_.config.hedge_min_samples) {
    const double p95 = hist->quantile(0.95);
    const auto derived = static_cast<SimDuration>(
        p95 * deps_.config.hedge_timer_multiplier);
    if (derived > 0) return derived;
  }
  return deps_.config.hedge_static_threshold;
}

void DfsInputStream::arm_hedge_timer() {
  hedge_timer_.cancel();
  if (finished_ || !deps_.config.hedged_reads || hedge_.active()) return;
  hedge_timer_ = deps_.sim.schedule_after(hedge_threshold(primary_.replica),
                                          "read.hedge_timer", [this] {
                                            if (finished_) return;
                                            on_hedge_timer();
                                          });
}

NodeId DfsInputStream::pick_hedge_replica(NodeId avoid) const {
  const LocatedBlock& block = blocks_[current_block_];
  NodeId fallback;
  for (NodeId replica : block.targets) {
    if (replica == avoid) continue;
    if (failed_replicas_.count(replica.value()) != 0) continue;
    if (slow_replicas_.count(replica.value()) != 0) {
      if (!fallback.valid()) fallback = replica;
      continue;
    }
    return replica;
  }
  return fallback;
}

void DfsInputStream::set_hedges_in_flight(int delta) {
  auto& gauge = metrics::global_registry().gauge("read.hedges_in_flight");
  gauge.set(gauge.value() + delta);
}

void DfsInputStream::on_hedge_timer() { launch_hedge("stalled"); }

void DfsInputStream::maybe_hedge_on_pace() {
  if (finished_ || !deps_.config.hedged_reads || hedge_.active() ||
      !primary_.active()) {
    return;
  }
  // Enough gaps from this attempt to call its pace a pattern?
  if (primary_.packets <=
      static_cast<std::int64_t>(deps_.config.hedge_min_samples)) {
    return;
  }
  const auto* gaps =
      metrics::global_registry().find_histogram("read.gap_ns");
  if (gaps == nullptr || gaps->count() < deps_.config.hedge_min_samples) {
    return;
  }
  // Lower quartile: with one gray node among many, most recorded gaps are
  // healthy, so p25 stays a healthy baseline even though the slow replica's
  // own gaps land in the same histogram.
  const double baseline = gaps->quantile(0.25);
  if (baseline <= 0.0) return;
  if (primary_.mean_gap() > deps_.config.hedge_pace_factor * baseline) {
    launch_hedge("slow pace");
  }
}

void DfsInputStream::launch_hedge(const char* why) {
  if (finished_ || hedge_.active() || !primary_.active()) return;
  auto& registry = metrics::global_registry();
  const auto in_flight =
      static_cast<int>(registry.gauge("read.hedges_in_flight").value());
  NodeId replica = pick_hedge_replica(primary_.replica);
  if (hedges_this_read_ >= deps_.config.hedge_per_read_cap ||
      in_flight >= deps_.config.hedge_max_in_flight || !replica.valid()) {
    ++stats_.hedges_denied;
    registry.counter("read.hedges_denied").add();
    // Budget exhausted (or no second replica): the watchdog remains the only
    // defense for this block. Do not re-arm — re-arming would spin the timer.
    return;
  }
  ++stats_.hedged_reads;
  ++hedges_this_read_;
  registry.counter("read.hedges").add();
  set_hedges_in_flight(+1);
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kRead, "read", "hedge launched",
        {{"block", blocks_[current_block_].block.to_string()},
         {"slow", primary_.replica.to_string()},
         {"hedge", replica.to_string()},
         {"why", why},
         {"offset", std::to_string(block_bytes_received_)}});
  }
  SMARTH_INFO("read") << path_ << " block " << current_block_ << ": "
                      << primary_.replica.to_string() << " " << why
                      << "; hedging to " << replica.to_string();
  cold_start_deadline_.cancel();
  send_attempt(hedge_, replica);
}

void DfsInputStream::cancel_attempt(ReadAttempt& attempt, bool lost_race) {
  if (!attempt.active()) return;
  if (lost_race && deps_.resolve_datanode) {
    if (Datanode* dn = deps_.resolve_datanode(attempt.replica)) {
      deps_.rpc.notify(client_node_, attempt.replica,
                       [dn, read = attempt.read] { dn->cancel_read(read); });
    }
  }
  if (&attempt == &hedge_) set_hedges_in_flight(-1);
  attempt.reset();
}

void DfsInputStream::deliver_read_packet(const ReadPacket& packet) {
  if (finished_) return;
  ReadAttempt* attempt = nullptr;
  if (primary_.active() && packet.read == primary_.read) {
    attempt = &primary_;
  } else if (hedge_.active() && packet.read == hedge_.read) {
    attempt = &hedge_;
  }
  if (attempt == nullptr) return;  // late packet from a cancelled attempt
  if (packet.corrupt) {
    on_attempt_corrupt(*attempt);
    return;
  }
  if (packet.error) {
    on_attempt_failed(*attempt, "replica refused read");
    return;
  }
  SMARTH_CHECK_MSG(packet.seq == attempt->expected_seq,
                   "out-of-order read packet: got " << packet.seq << " want "
                                                    << attempt->expected_seq);
  ++attempt->expected_seq;
  attempt->bytes += packet.payload;
  // Packet-gap pacing: every observed gap feeds the cluster-wide baseline
  // histogram, and the attempt keeps enough to compute its own mean gap.
  const SimTime arrival = deps_.sim.now();
  if (attempt->packets == 0) {
    attempt->first_packet_at = arrival;
  } else if (deps_.config.hedged_reads) {
    metrics::global_registry()
        .histogram("read.gap_ns")
        .observe(static_cast<double>(arrival - attempt->last_packet_at));
  }
  attempt->last_packet_at = arrival;
  ++attempt->packets;
  // Watermark accounting: a hedge race delivers overlapping byte ranges, but
  // the application-visible read advances only when the high-water mark does.
  const Bytes progress = attempt->progress();
  if (progress > block_bytes_received_) {
    stats_.bytes_read += progress - block_bytes_received_;
    block_bytes_received_ = progress;
  } else {
    stats_.hedge_wasted_bytes += packet.payload;
    metrics::global_registry()
        .counter("read.hedge_wasted_bytes")
        .add(static_cast<std::uint64_t>(packet.payload));
  }
  arm_watchdog();
  arm_hedge_timer();
  if (packet.last) {
    SMARTH_CHECK_MSG(attempt->progress() == block_sizes_[current_block_],
                     "short read: " << attempt->progress() << " of "
                                    << block_sizes_[current_block_]);
    on_attempt_won(*attempt);
    return;
  }
  if (attempt == &primary_) maybe_hedge_on_pace();
}

void DfsInputStream::on_attempt_won(ReadAttempt& winner) {
  const bool hedge_won = &winner == &hedge_;
  ReadAttempt& loser = hedge_won ? primary_ : hedge_;
  if (hedge_won) {
    ++stats_.hedge_wins;
    metrics::global_registry().counter("read.hedge_wins").add();
    // A hedge launched mid-block starts at the watermark with less left to
    // stream, so finishing first alone is not gray evidence — a cold-start
    // hedge against a healthy primary "wins" too. Only a loser that was also
    // pacing decisively slower than the winner gets reported and avoided.
    const double loser_gap = loser.mean_gap();
    const double winner_gap = winner.mean_gap();
    const bool decisive =
        loser_gap > 0.0 && winner_gap > 0.0 &&
        loser_gap > deps_.config.hedge_pace_factor * winner_gap;
    if (decisive) {
      slow_replicas_.insert(loser.replica.value());
      Namenode& nn = deps_.namenode;
      deps_.rpc.notify(client_node_, nn.node_id(),
                       [&nn, node = loser.replica,
                        weight = deps_.config.suspicion_hedge_weight] {
                         nn.report_slow_datanode(node, weight);
                       });
    }
    if (trace::active()) {
      trace::recorder()->instant(
          trace::Category::kRead, "read", "hedge won",
          {{"block", blocks_[current_block_].block.to_string()},
           {"slow", loser.replica.to_string()},
           {"hedge", winner.replica.to_string()},
           {"decisive", decisive ? "true" : "false"}});
    }
  }
  cancel_attempt(loser, /*lost_race=*/true);
  if (hedge_won) {
    // The winner occupied the hedge slot; release it and clear the attempt,
    // or finish() would settle the already-complete hedge a second time when
    // this was the file's last block.
    set_hedges_in_flight(-1);
    hedge_.reset();
  }
  on_block_done();
}

void DfsInputStream::on_block_done() {
  watchdog_.cancel();
  hedge_timer_.cancel();
  cold_start_deadline_.cancel();
  if (trace::active()) {
    trace::recorder()->end_span(block_span_, {{"outcome", "ok"}});
  }
  start_block(current_block_ + 1);
}

void DfsInputStream::on_attempt_corrupt(ReadAttempt& attempt) {
  if (finished_) return;
  ++stats_.checksum_mismatches;
  metrics::global_registry().counter("read.checksum_mismatches").add();
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kRead, "read", "replica corrupt",
        {{"block", blocks_[current_block_].block.to_string()},
         {"replica", attempt.replica.to_string()}});
  }
  checksum_failed_replicas_.insert(attempt.replica.value());
  // Tell the namenode so it quarantines + invalidates the replica and queues
  // the block for re-replication from a good copy (HDFS reportBadBlocks).
  ++stats_.bad_replica_reports;
  Namenode& nn = deps_.namenode;
  deps_.rpc.notify(client_node_, nn.node_id(),
                   [&nn, block = blocks_[current_block_].block,
                    node = attempt.replica] {
                     nn.report_bad_replica(block, node);
                   });
  on_attempt_failed(attempt, "checksum mismatch from " +
                                 attempt.replica.to_string());
}

void DfsInputStream::on_attempt_failed(ReadAttempt& attempt,
                                       const std::string& reason) {
  if (finished_) return;
  SMARTH_WARN("read") << path_ << " block " << current_block_ << ": "
                      << reason << "; failing over";
  ++stats_.failovers;
  metrics::global_registry().counter("read.failovers").add();
  failed_replicas_.insert(attempt.replica.value());
  ReadAttempt& other = &attempt == &primary_ ? hedge_ : primary_;
  if (other.active()) {
    // The race partner keeps streaming: promote it to sole attempt instead
    // of restarting the block.
    if (trace::active()) {
      trace::recorder()->instant(
          trace::Category::kRead, "read", "attempt failed mid-race",
          {{"replica", attempt.replica.to_string()}, {"reason", reason}});
    }
    const bool failed_primary = &attempt == &primary_;
    if (&attempt == &hedge_) set_hedges_in_flight(-1);
    attempt.reset();
    if (failed_primary) {
      // The hedge becomes the primary; its slot frees for a future hedge.
      primary_ = hedge_;
      hedge_.reset();
      set_hedges_in_flight(-1);
    }
    arm_watchdog();
    arm_hedge_timer();
    return;
  }
  if (trace::active()) {
    trace::recorder()->end_span(block_span_,
                                {{"outcome", "failover"}, {"reason", reason}});
  }
  attempt.reset();
  request_from_replica();
}

void DfsInputStream::arm_watchdog() {
  watchdog_.cancel();
  if (finished_) return;
  watchdog_ = deps_.sim.schedule_after(
      deps_.config.ack_timeout, "read.watchdog", [this] {
        if (finished_) return;
        // No byte from either attempt within the timeout: fail the primary.
        // If a hedge is racing it gets promoted and inherits a fresh
        // watchdog.
        if (primary_.active()) {
          on_attempt_failed(primary_, "read timed out");
        } else if (hedge_.active()) {
          on_attempt_failed(hedge_, "read timed out");
        }
      });
}

void DfsInputStream::finish(bool failed, const std::string& reason) {
  if (finished_) return;
  watchdog_.cancel();
  hedge_timer_.cancel();
  cold_start_deadline_.cancel();
  if (hedge_.active()) {
    cancel_attempt(hedge_, /*lost_race=*/true);
  }
  finished_ = true;
  metrics::global_registry().gauge("client.reads_open").add(-1.0);
  stats_.finished_at = deps_.sim.now();
  stats_.failed = failed;
  stats_.failure_reason = reason;
  if (trace::active()) {
    if (failed) {
      trace::recorder()->end_span(block_span_, {{"outcome", "failed"}});
    }
    trace::recorder()->end_span(
        read_span_, {{"failed", failed ? "true" : "false"},
                     {"reason", reason},
                     {"bytes", std::to_string(stats_.bytes_read)}});
  }
  if (failed) {
    SMARTH_ERROR("read") << path_ << " failed: " << reason;
  }
  if (on_done_) on_done_(stats_);
}

}  // namespace smarth::hdfs
