// Ablation A3 — the local optimizer's exploration threshold. Paper Alg. 2
// fixes it at 0.8 (i.e. swap the pipeline head with probability 0.2 to
// refresh stale speed records). Two scenarios:
//   static  — two nodes are permanently slow: every exploratory block is a
//             pure cost, so less exploration is better;
//   dynamic — WHICH two nodes are slow rotates every 20 s (contention moves
//             around, as §V-B2 argues it does in real clusters): without
//             exploration the client keeps trusting stale records.
// The paper's 0.8 is a compromise between the two regimes.
#include "bench_common.hpp"
#include "common/table.hpp"

using namespace smarth;

namespace {

double run(double threshold, bool dynamic, Bytes file_size) {
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.local_opt_threshold = threshold;
  cluster::Cluster cluster(spec);
  const Bandwidth slow = Bandwidth::mbps(50);

  if (!dynamic) {
    cluster.throttle_datanode(0, slow);
    cluster.throttle_datanode(1, slow);
  } else {
    // Rotate the contended pair every 20 s across the nine datanodes.
    const Bandwidth full = cluster::small_instance().network;
    auto rotate = std::make_shared<std::function<void(std::size_t)>>();
    *rotate = [&cluster, slow, full, rotate](std::size_t round) {
      const std::size_t n = cluster.datanode_count();
      for (std::size_t i = 0; i < n; ++i) {
        cluster.throttle_datanode(i, full);
      }
      cluster.throttle_datanode((2 * round) % n, slow);
      cluster.throttle_datanode((2 * round + 1) % n, slow);
      cluster.sim().schedule_after(
          seconds(20), "bench.rotate_slow",
          [rotate, round] { (*rotate)(round + 1); });
    };
    (*rotate)(0);
  }

  const auto stats =
      cluster.run_upload("/f", file_size, cluster::Protocol::kSmarth);
  return stats.failed ? -1.0 : to_seconds(stats.elapsed());
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — local-optimizer exploration threshold (small cluster, 2 "
      "slow nodes @ 50 Mbps, 8 GB)",
      "Swap probability is 1 - threshold; the paper uses threshold = 0.8. "
      "static: the same nodes stay slow; dynamic: the slow pair rotates "
      "every 20 s.");

  const Bytes file_size = bench::bench_file_size();
  TextTable table({"threshold", "swap prob", "static (s)", "dynamic (s)"});
  for (double threshold : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    table.add_row({TextTable::num(threshold, 1),
                   TextTable::num(1.0 - threshold, 1),
                   TextTable::num(run(threshold, false, file_size)),
                   TextTable::num(run(threshold, true, file_size))});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
