#include "workload/open_loop.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "common/log.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586;
/// Fixed salt for the generator's dedicated RNG stream.
constexpr std::uint64_t kOpenLoopRngSalt = 0x9e3779b97f4a7c15ULL;

}  // namespace

double OpenLoopResult::goodput_mibps() const {
  const double elapsed = to_seconds(finished_at - started_at);
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(bytes_completed) / static_cast<double>(kMiB) /
         elapsed;
}

double OpenLoopResult::latency_quantile(double q) const {
  if (latencies_s.empty()) return 0.0;
  std::vector<double> sorted = latencies_s;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

OpenLoopWorkload::OpenLoopWorkload(cluster::Protocol protocol,
                                   OpenLoopConfig config)
    : protocol_(protocol), config_(std::move(config)) {
  SMARTH_CHECK(config_.clients > 0);
  SMARTH_CHECK(config_.arrival_rate > 0.0);
  SMARTH_CHECK(config_.zipf_s > 0.0);
  SMARTH_CHECK(config_.min_file_size > 0);
  SMARTH_CHECK(config_.size_ranks >= 1);
  SMARTH_CHECK(config_.duration > 0);
  SMARTH_CHECK(config_.diurnal_amplitude >= 0.0 &&
               config_.diurnal_amplitude <= 1.0);
}

std::vector<OpenLoopWorkload::Arrival> OpenLoopWorkload::generate_arrivals(
    Rng& rng, std::size_t client_base, std::size_t client_count) const {
  // Zipf rank ladder: rank k (1-based) with weight k^-s, size doubling per
  // rank. Cumulative weights make each draw one uniform + one scan.
  std::vector<double> cumulative(static_cast<std::size_t>(config_.size_ranks));
  double total = 0.0;
  for (int k = 1; k <= config_.size_ranks; ++k) {
    total += std::pow(static_cast<double>(k), -config_.zipf_s);
    cumulative[static_cast<std::size_t>(k - 1)] = total;
  }

  // Poisson arrivals via exponential gaps at the peak rate, thinned down to
  // the (possibly diurnal) instantaneous rate.
  const double peak_rate =
      config_.arrival_rate * (1.0 + config_.diurnal_amplitude);
  std::vector<Arrival> arrivals;
  double t_seconds = 0.0;
  const double horizon = to_seconds(config_.duration);
  while (true) {
    const double gap = -std::log(1.0 - rng.uniform()) / peak_rate;
    t_seconds += gap;
    if (t_seconds >= horizon) break;
    if (config_.diurnal_amplitude > 0.0) {
      const double rate_t =
          config_.arrival_rate *
          (1.0 + config_.diurnal_amplitude *
                     std::sin(kTwoPi * t_seconds * kSecond /
                              static_cast<double>(config_.diurnal_period)));
      if (rng.uniform() >= rate_t / peak_rate) continue;  // thinned out
    }
    Arrival a;
    a.at = static_cast<SimDuration>(t_seconds * kSecond);
    const double u = rng.uniform() * total;
    int rank = config_.size_ranks;
    for (int k = 1; k <= config_.size_ranks; ++k) {
      if (u < cumulative[static_cast<std::size_t>(k - 1)]) {
        rank = k;
        break;
      }
    }
    a.size = config_.min_file_size << (rank - 1);
    a.client_index = client_base + rng.index(client_count);
    arrivals.push_back(a);
  }
  return arrivals;
}

OpenLoopResult OpenLoopWorkload::run(cluster::Cluster& cluster) {
  SMARTH_CHECK_MSG(!ran_, "OpenLoopWorkload::run may only be called once");
  ran_ = true;

  // Tenants: fresh client hosts, round-robin over the datanode racks so the
  // load is rack-spread like production ingest, not one hot edge.
  std::vector<std::string> racks;
  for (const auto& dn : cluster.spec().datanodes) {
    if (std::find(racks.begin(), racks.end(), dn.rack) == racks.end()) {
      racks.push_back(dn.rack);
    }
  }
  if (racks.empty()) racks.push_back(cluster.spec().client.rack);
  const std::size_t client_base = cluster.client_count();
  for (int i = 0; i < config_.clients; ++i) {
    cluster.add_client(racks[static_cast<std::size_t>(i) % racks.size()],
                       cluster.spec().client.profile);
  }

  // Dedicated stream: cluster seed XOR fixed salt. Never touches the
  // simulation RNG, so chaos timelines are unaffected by this workload.
  Rng rng(cluster.spec().seed ^ kOpenLoopRngSalt);
  const std::vector<Arrival> arrivals =
      generate_arrivals(rng, client_base, static_cast<std::size_t>(config_.clients));

  auto result = std::make_shared<OpenLoopResult>();
  auto pending = std::make_shared<int>(static_cast<int>(arrivals.size()));
  result->jobs = static_cast<int>(arrivals.size());
  const SimTime start = cluster.sim().now();
  result->started_at = start;

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    result->bytes_offered += a.size;
    const std::string path = config_.path_prefix + std::to_string(i);
    const SimTime arrive_at = start + a.at;
    cluster.sim().schedule_at(
        arrive_at, "workload.arrival",
        [&cluster, protocol = protocol_, path, a, arrive_at, result,
         pending] {
          metrics::global_registry().gauge("workload.jobs_in_flight").add(1.0);
          cluster.upload(
              path, a.size, protocol,
              [&cluster, result, pending, arrive_at,
               size = a.size](const hdfs::StreamStats& s) {
                --*pending;
                metrics::Registry& reg = metrics::global_registry();
                reg.gauge("workload.jobs_in_flight").add(-1.0);
                if (s.failed) {
                  ++result->failed;
                  result->failures.push_back(s);
                  reg.counter("workload.jobs_failed").add();
                } else {
                  ++result->completed;
                  reg.counter("workload.jobs_completed").add();
                  result->bytes_completed += size;
                  result->latencies_s.push_back(
                      to_seconds(cluster.sim().now() - arrive_at));
                }
              },
              a.client_index);
        });
  }

  // Open loop: the run ends when every job reports, or at the stuck deadline
  // — a job with no terminal callback by then is stuck (the failure mode the
  // admission-control acceptance forbids), not a reason to wedge the run.
  const SimTime deadline = start + config_.duration + config_.stuck_grace;
  cluster.sim().run_until_done([&pending] { return *pending <= 0; },
                               deadline);
  result->stuck = *pending;
  result->finished_at = cluster.sim().now();
  if (result->stuck > 0) {
    SMARTH_WARN("openloop") << result->stuck << " of " << result->jobs
                            << " uploads produced no terminal status by the "
                               "stuck deadline";
  }
  return *result;
}

}  // namespace smarth::workload
