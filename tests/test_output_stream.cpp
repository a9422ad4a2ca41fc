// Unit-level checks of the client write stream through a live cluster handle:
// block/packet geometry for awkward sizes, packet counting, complete() calls,
// and HDFS's degenerate schedule (stop-and-wait, one pipeline per block).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "smarth/smarth_stream.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec spec_with(Bytes block, Bytes packet,
                               std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = block;
  spec.hdfs.packet_payload = packet;
  return spec;
}

/// Starts an upload and returns the live stream handle (simulation paused
/// right after create() resolves).
core::SmarthOutputStream* start_stream(Cluster& cluster, Bytes size) {
  cluster.upload("/f", size, Protocol::kHdfs, [](const hdfs::StreamStats&) {});
  cluster.sim().run_until(cluster.sim().now() + milliseconds(50));
  return cluster.latest_stream();
}

TEST(StreamGeometry, ExactMultiples) {
  Cluster cluster(spec_with(4 * kMiB, 64 * kKiB));
  core::SmarthOutputStream* stream = start_stream(cluster, 8 * kMiB);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->total_blocks(), 2);
  EXPECT_EQ(stream->block_bytes(0), 4 * kMiB);
  EXPECT_EQ(stream->block_bytes(1), 4 * kMiB);
  EXPECT_EQ(stream->packets_in_block(0), 64);
  EXPECT_EQ(stream->packet_payload(0, 0), 64 * kKiB);
  EXPECT_EQ(stream->packet_payload(0, 63), 64 * kKiB);
}

TEST(StreamGeometry, PartialLastBlockAndPacket) {
  Cluster cluster(spec_with(4 * kMiB, 64 * kKiB));
  const Bytes size = 4 * kMiB + 100 * kKiB + 17;
  core::SmarthOutputStream* stream = start_stream(cluster, size);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->total_blocks(), 2);
  EXPECT_EQ(stream->block_bytes(1), 100 * kKiB + 17);
  EXPECT_EQ(stream->packets_in_block(1), 2);  // 64 KiB + (36 KiB + 17 B)
  EXPECT_EQ(stream->packet_payload(1, 0), 64 * kKiB);
  EXPECT_EQ(stream->packet_payload(1, 1), 36 * kKiB + 17);
}

TEST(StreamGeometry, TinyFileSinglePacket) {
  Cluster cluster(spec_with(4 * kMiB, 64 * kKiB));
  core::SmarthOutputStream* stream = start_stream(cluster, 1);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->total_blocks(), 1);
  EXPECT_EQ(stream->packets_in_block(0), 1);
  EXPECT_EQ(stream->packet_payload(0, 0), 1);
}

TEST(StreamGeometry, NonPowerOfTwoPacketSize) {
  Cluster cluster(spec_with(1000 * kKiB, 48 * kKiB));
  core::SmarthOutputStream* stream = start_stream(cluster, 1000 * kKiB);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->packets_in_block(0), (1000 + 47) / 48);
  EXPECT_EQ(stream->packet_payload(0, 20), 1000 * kKiB - 20 * 48 * kKiB);
}

TEST(StreamGeometry, PacketCountInStats) {
  Cluster cluster(spec_with(4 * kMiB, 64 * kKiB));
  const Bytes size = 9 * kMiB + 1;
  const auto stats = cluster.run_upload("/g", size, Protocol::kHdfs);
  ASSERT_FALSE(stats.failed);
  // ceil(4MiB/64KiB)*2 + ceil((1MiB+1)/64KiB) = 64 + 64 + 17.
  EXPECT_EQ(stats.packets, 64 + 64 + 17);
}

TEST(StreamGeometry, EmptyUploadRejected) {
  Cluster cluster(spec_with(4 * kMiB, 64 * kKiB));
  EXPECT_THROW(cluster.run_upload("/e", 0, Protocol::kHdfs),
               std::logic_error);
}

TEST(StreamCompletion, OneCompleteCallPerFaultFreeUpload) {
  // complete() is a namenode RPC; a fault-free upload whose blocks are
  // already reported needs exactly one, whatever the protocol.
  for (Protocol protocol : {Protocol::kHdfs, Protocol::kSmarth}) {
    metrics::global_registry().reset();
    Cluster cluster(spec_with(4 * kMiB, 64 * kKiB));
    const auto stats = cluster.run_upload("/f", 16 * kMiB, protocol);
    ASSERT_FALSE(stats.failed);
    const metrics::Counter* calls =
        metrics::global_registry().find_counter("namenode.complete_calls");
    ASSERT_NE(calls, nullptr);
    EXPECT_EQ(calls->value(), 1u) << cluster::protocol_name(protocol);
  }
}

TEST(BaselineStream, StopAndWaitNeverOverlapsBlocks) {
  // At any sampling instant, the baseline stream has at most one pipeline,
  // and the namenode has at most (completed_blocks + 1) block records.
  Cluster cluster(spec_with(2 * kMiB, 64 * kKiB));
  cluster.throttle_cross_rack(Bandwidth::mbps(30));
  bool done = false;
  cluster.upload("/f", 12 * kMiB, Protocol::kHdfs,
                 [&](const hdfs::StreamStats&) { done = true; });
  while (!done) {
    ASSERT_TRUE(
        cluster.sim().run_until(cluster.sim().now() + milliseconds(100)));
    core::SmarthOutputStream* stream = cluster.latest_stream();
    if (stream != nullptr && !stream->finished()) {
      EXPECT_LE(stream->active_pipeline_count(), 1u);
    }
    ASSERT_LT(cluster.sim().now(), seconds(10'000));
  }
}

TEST(BaselineStream, DegenerateScheduleOnePipelinePerBlock) {
  // HDFS runs on the write engine without FNFA: no FNFA and no slot waits,
  // one pipeline at a time, and exactly one per block on a fault-free upload.
  Cluster cluster(spec_with(4 * kMiB, 64 * kKiB));
  cluster.throttle_cross_rack(Bandwidth::mbps(30));
  const auto stats = cluster.run_upload("/f", 24 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(stats.failed);
  const core::SmarthOutputStream* stream = cluster.latest_stream();
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->fnfa_received(), 0u);
  EXPECT_EQ(stream->slot_waits(), 0u);
  EXPECT_EQ(stats.max_concurrent_pipelines, 1);
  EXPECT_EQ(stats.blocks, 6);
  EXPECT_EQ(stats.pipelines_created, stats.blocks);
}

TEST(BaselineStream, WindowBoundsOutstandingPackets) {
  // The dataQueue+ackQueue cap (80 packets) bounds how far production runs
  // ahead: stats_.packets grows roughly with acked progress, never the whole
  // file at once. Observe indirectly: early in the upload, produced packet
  // count is at most the window.
  cluster::ClusterSpec spec = spec_with(4 * kMiB, 64 * kKiB);
  Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(10));
  cluster.upload("/f", 16 * kMiB, Protocol::kHdfs,
                 [](const hdfs::StreamStats&) {});
  // The window bounds *outstanding* packets: total produced can reach
  // window + already-acked. After 1 s at a 10 Mbps bottleneck at most
  // ~19 packets have been acked, so production must sit near 80 + 19 —
  // far below the 256 packets of the whole file.
  cluster.sim().run_until(seconds(1));
  core::SmarthOutputStream* stream = cluster.latest_stream();
  ASSERT_NE(stream, nullptr);
  const auto acked_bound = static_cast<std::int64_t>(
      Bandwidth::mbps(10).bits_per_second() /
      static_cast<double>(64 * kKiB * 8)) + 2;
  EXPECT_LE(stream->stats().packets,
            spec.hdfs.max_outstanding_packets + acked_bound);
  EXPECT_LT(stream->stats().packets, 256);
}

}  // namespace
}  // namespace smarth
