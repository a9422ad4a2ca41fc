// Conservation and accounting properties of the network/storage substrate
// under randomized traffic: every byte sent is eventually received exactly
// once, link busy-time never exceeds elapsed time, and after an upload the
// cluster-wide byte ledger (client sent vs datanode received vs disk
// written) is consistent.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "net/cross_traffic.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace smarth {
namespace {

TEST(NetworkConservation, RandomTrafficDeliversEveryMessageOnce) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    sim::Simulation sim(seed);
    net::Network net(sim);
    std::vector<NodeId> nodes;
    for (int i = 0; i < 6; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      nodes.push_back(net.add_node(name, i % 2 ? "/r0" : "/r1",
                                   Bandwidth::mbps(100)));
    }
    net.set_cross_rack_throttle(Bandwidth::mbps(20));
    Rng rng(seed);
    const int messages = 500;
    int delivered = 0;
    Bytes bytes_sent = 0;
    for (int m = 0; m < messages; ++m) {
      const NodeId src = nodes[rng.index(nodes.size())];
      NodeId dst = nodes[rng.index(nodes.size())];
      while (dst == src) dst = nodes[rng.index(nodes.size())];
      const Bytes size = rng.uniform_int(1, 64 * kKiB);
      bytes_sent += size;
      const auto priority = rng.uniform() < 0.3
                                ? net::LinkPriority::kControl
                                : net::LinkPriority::kBulk;
      net.send(src, dst, size, [&delivered] { ++delivered; }, priority,
               static_cast<net::FlowKey>(rng.uniform_int(0, 7)));
    }
    sim.run();
    EXPECT_EQ(delivered, messages) << "seed " << seed;
    EXPECT_EQ(net.messages_delivered(), static_cast<std::uint64_t>(messages));
    // Egress bytes across all nodes equal the bytes handed to send().
    Bytes egress_total = 0;
    for (NodeId n : nodes) egress_total += net.bytes_sent(n);
    EXPECT_EQ(egress_total, bytes_sent);
  }
}

TEST(NetworkConservation, LinkBusyTimeBoundedByElapsed) {
  sim::Simulation sim(9);
  net::Network net(sim);
  const NodeId a = net.add_node("a", "/r0", Bandwidth::mbps(50));
  const NodeId b = net.add_node("b", "/r0", Bandwidth::mbps(50));
  for (int i = 0; i < 100; ++i) net.send(a, b, 64 * kKiB, [] {});
  sim.run();
  EXPECT_LE(net.egress_link(a).busy_time(), sim.now());
  // A saturated sender should be busy nearly the whole run.
  EXPECT_GT(net.egress_link(a).busy_time(), sim.now() * 9 / 10);
}

TEST(NetworkConservation, UploadByteLedgerConsistent) {
  // After a full upload: client egress carries payload + per-packet headers
  // + control traffic; datanode disks hold exactly replication × file bytes.
  cluster::ClusterSpec spec = cluster::small_cluster(5);
  spec.hdfs.block_size = 4 * kMiB;
  cluster::Cluster cluster(spec);
  const Bytes file_size = 12 * kMiB;
  const auto stats =
      cluster.run_upload("/f", file_size, cluster::Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(3));

  // Disk ledger: every replica byte was written exactly once.
  Bytes disk_written = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    disk_written += cluster.datanode(i).disk().bytes_written();
  }
  EXPECT_EQ(disk_written, 3 * file_size);

  // Client egress: at least the payload plus headers, at most +5% control.
  const Bytes client_sent = cluster.network().bytes_sent(cluster.client_node());
  const Bytes payload_with_headers =
      file_size +
      stats.packets * cluster.config().packet_header_wire;
  EXPECT_GE(client_sent, payload_with_headers);
  EXPECT_LE(client_sent, payload_with_headers * 105 / 100);

  // Dropped messages only exist under partitions.
  EXPECT_EQ(cluster.network().messages_dropped(), 0u);
}

TEST(NetworkConservation, ReplicationAmplifiesNetworkBytesCorrectly) {
  // Total datanode ingress ≈ replication × file bytes (each replica crosses
  // the wire once: client->DN1, DN1->DN2, DN2->DN3) plus control traffic.
  cluster::ClusterSpec spec = cluster::small_cluster(6);
  spec.hdfs.block_size = 4 * kMiB;
  cluster::Cluster cluster(spec);
  const Bytes file_size = 8 * kMiB;
  const auto stats =
      cluster.run_upload("/f", file_size, cluster::Protocol::kHdfs);
  ASSERT_FALSE(stats.failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(3));
  Bytes dn_ingress = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    dn_ingress += cluster.network().bytes_received(cluster.datanode_id(i));
  }
  const Bytes data_floor = 3 * file_size;
  EXPECT_GE(dn_ingress, data_floor);
  EXPECT_LE(dn_ingress, data_floor * 108 / 100);  // headers + control
}

TEST(NetworkConservation, CrossTrafficDoesNotLeakIntoLedger) {
  // Background traffic and an upload account separately: disk bytes stay
  // exactly replication × file bytes regardless of cross traffic.
  cluster::ClusterSpec spec = cluster::small_cluster(7);
  spec.hdfs.block_size = 4 * kMiB;
  cluster::Cluster cluster(spec);
  net::CrossTraffic traffic(cluster.network(), cluster.datanode_id(0),
                            cluster.datanode_id(5));
  traffic.start();
  const auto stats =
      cluster.run_upload("/f", 8 * kMiB, cluster::Protocol::kSmarth);
  traffic.stop();
  ASSERT_FALSE(stats.failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(3));
  Bytes disk_written = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    disk_written += cluster.datanode(i).disk().bytes_written();
  }
  EXPECT_EQ(disk_written, 3 * 8 * kMiB);
  EXPECT_GT(traffic.bytes_sent(), 0);
}

}  // namespace
}  // namespace smarth
