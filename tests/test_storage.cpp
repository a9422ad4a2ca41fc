#include <gtest/gtest.h>

#include <cstdint>

#include "sim/simulation.hpp"
#include "storage/block_store.hpp"
#include "storage/crc32c.hpp"
#include "storage/disk.hpp"
#include "storage/staging_buffer.hpp"

namespace smarth::storage {
namespace {

// --- DiskDevice -------------------------------------------------------------

TEST(Disk, ServiceTimeIsOverheadPlusBandwidth) {
  sim::Simulation sim;
  DiskDevice disk(sim, "d", Bandwidth::mega_bytes_per_second(100),
                  microseconds(50));
  const SimDuration expected =
      microseconds(50) +
      Bandwidth::mega_bytes_per_second(100).transmit_time(64 * kKiB);
  EXPECT_EQ(disk.service_time(64 * kKiB), expected);
  SimTime done = -1;
  disk.write(64 * kKiB, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, expected);
}

TEST(Disk, FifoOrdering) {
  sim::Simulation sim;
  DiskDevice disk(sim, "d", Bandwidth::mega_bytes_per_second(10),
                  microseconds(10));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    disk.write(kKiB, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(disk.ops_completed(), 4u);
  EXPECT_EQ(disk.bytes_written(), 4 * kKiB);
}

TEST(Disk, QueueDepthVisible) {
  sim::Simulation sim;
  DiskDevice disk(sim, "d", Bandwidth::mega_bytes_per_second(1),
                  milliseconds(1));
  disk.write(kMiB, [] {});
  disk.write(kMiB, [] {});
  disk.write(kMiB, [] {});
  EXPECT_TRUE(disk.busy());
  EXPECT_EQ(disk.queue_depth(), 2u);  // one in service
  sim.run();
  EXPECT_EQ(disk.queue_depth(), 0u);
  EXPECT_FALSE(disk.busy());
}

TEST(Disk, BusyTimeAccumulates) {
  sim::Simulation sim;
  DiskDevice disk(sim, "d", Bandwidth::mega_bytes_per_second(100),
                  microseconds(0));
  disk.write(kMiB, [] {});
  sim.run();
  EXPECT_EQ(disk.busy_time(),
            Bandwidth::mega_bytes_per_second(100).transmit_time(kMiB));
}

TEST(Disk, WriteFromCompletionCallback) {
  sim::Simulation sim;
  DiskDevice disk(sim, "d", Bandwidth::mega_bytes_per_second(100),
                  microseconds(10));
  int writes = 0;
  disk.write(kKiB, [&] {
    ++writes;
    disk.write(kKiB, [&] { ++writes; });
  });
  sim.run();
  EXPECT_EQ(writes, 2);
}

// --- BlockStore ---------------------------------------------------------------

TEST(BlockStore, CreateAppendFinalize) {
  BlockStore store;
  const BlockId b{1};
  ASSERT_TRUE(store.create_replica(b).ok());
  ASSERT_TRUE(store.append(b, 100).ok());
  ASSERT_TRUE(store.append(b, 28).ok());
  const auto info = store.replica(b);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().bytes, 128);
  EXPECT_EQ(info.value().state, ReplicaState::kBeingWritten);
  const auto len = store.finalize(b);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 128);
  EXPECT_EQ(store.finalized_count(), 1u);
}

TEST(BlockStore, DuplicateCreateFails) {
  BlockStore store;
  const BlockId b{1};
  ASSERT_TRUE(store.create_replica(b).ok());
  EXPECT_FALSE(store.create_replica(b).ok());
}

TEST(BlockStore, AppendToFinalizedFails) {
  BlockStore store;
  const BlockId b{1};
  ASSERT_TRUE(store.create_replica(b).ok());
  ASSERT_TRUE(store.finalize(b).ok());
  EXPECT_FALSE(store.append(b, 10).ok());
}

TEST(BlockStore, AppendToMissingFails) {
  BlockStore store;
  EXPECT_FALSE(store.append(BlockId{9}, 10).ok());
  EXPECT_FALSE(store.finalize(BlockId{9}).ok());
}

TEST(BlockStore, TruncateToSyncPoint) {
  BlockStore store;
  const BlockId b{1};
  ASSERT_TRUE(store.create_replica(b).ok());
  ASSERT_TRUE(store.append(b, 1000).ok());
  ASSERT_TRUE(store.truncate(b, 600).ok());
  EXPECT_EQ(store.replica(b).value().bytes, 600);
  EXPECT_FALSE(store.truncate(b, 700).ok());  // cannot extend
  EXPECT_FALSE(store.truncate(b, -1).ok());
}

TEST(BlockStore, TruncateReopensFinalizedReplica) {
  BlockStore store;
  const BlockId b{1};
  ASSERT_TRUE(store.create_replica(b).ok());
  ASSERT_TRUE(store.append(b, 1000).ok());
  ASSERT_TRUE(store.finalize(b).ok());
  ASSERT_TRUE(store.truncate(b, 500).ok());
  EXPECT_EQ(store.replica(b).value().state, ReplicaState::kBeingWritten);
  ASSERT_TRUE(store.append(b, 500).ok());  // writable again
}

TEST(BlockStore, TruncateWithBadLengthLeavesReplicaUntouched) {
  BlockStore store;
  const BlockId b{1};
  ASSERT_TRUE(store.create_replica(b).ok());
  ASSERT_TRUE(store.append(b, 1000).ok());
  ASSERT_TRUE(store.finalize(b).ok());
  const std::uint64_t version = store.version();
  EXPECT_FALSE(store.truncate(b, 1500).ok());
  EXPECT_FALSE(store.truncate(b, -1).ok());
  // Still finalized at its full length: a failed truncate reopens nothing.
  EXPECT_EQ(store.replica(b).value().state, ReplicaState::kFinalized);
  EXPECT_EQ(store.replica(b).value().bytes, 1000);
  EXPECT_EQ(store.version(), version);
}

TEST(BlockStore, VersionMovesWithTheFinalizedList) {
  BlockStore store;
  const BlockId b{1};
  std::uint64_t version = store.version();
  const auto moved = [&] {
    const bool changed = store.version() != version;
    version = store.version();
    return changed;
  };
  ASSERT_TRUE(store.create_replica(b).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(store.append(b, 1000).ok());
  EXPECT_FALSE(moved());  // open replicas are not in the list
  ASSERT_TRUE(store.finalize(b).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(store.rot_chunk(b, 0).ok());
  EXPECT_FALSE(moved());
  EXPECT_FALSE(store.create_replica(b).ok());
  EXPECT_FALSE(moved());
  ASSERT_TRUE(store.truncate(b, 500).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(store.remove(b).ok());
  EXPECT_TRUE(moved());
  EXPECT_FALSE(store.remove(b).ok());
  EXPECT_FALSE(moved());
}

TEST(BlockStore, RemoveReplica) {
  BlockStore store;
  const BlockId b{1};
  ASSERT_TRUE(store.create_replica(b).ok());
  ASSERT_TRUE(store.remove(b).ok());
  EXPECT_FALSE(store.has_replica(b));
  EXPECT_FALSE(store.remove(b).ok());
}

TEST(BlockStore, Totals) {
  BlockStore store;
  ASSERT_TRUE(store.create_replica(BlockId{1}).ok());
  ASSERT_TRUE(store.create_replica(BlockId{2}).ok());
  ASSERT_TRUE(store.append(BlockId{1}, 100).ok());
  ASSERT_TRUE(store.append(BlockId{2}, 50).ok());
  EXPECT_EQ(store.total_bytes(), 150);
  EXPECT_EQ(store.replica_count(), 2u);
  EXPECT_EQ(store.all_replicas().size(), 2u);
}

// --- StagingBuffer -------------------------------------------------------------

TEST(StagingBuffer, ReserveRelease) {
  StagingBuffer buf(1000);
  EXPECT_TRUE(buf.reserve(600));
  EXPECT_EQ(buf.used(), 600);
  EXPECT_EQ(buf.free(), 400);
  buf.release(200);
  EXPECT_EQ(buf.used(), 400);
}

TEST(StagingBuffer, OverflowRefusedAndCounted) {
  StagingBuffer buf(1000);
  EXPECT_TRUE(buf.reserve(900));
  EXPECT_FALSE(buf.reserve(200));
  EXPECT_EQ(buf.overflow_events(), 1u);
  EXPECT_EQ(buf.used(), 900);  // refused reservation does not change usage
}

TEST(StagingBuffer, ForcedReserveRecordsOverflow) {
  StagingBuffer buf(1000);
  buf.reserve_forced(1500);
  EXPECT_EQ(buf.used(), 1500);
  EXPECT_EQ(buf.overflow_events(), 1u);
  EXPECT_EQ(buf.high_water(), 1500);
}

TEST(StagingBuffer, HighWaterTracksPeak) {
  StagingBuffer buf(1000);
  EXPECT_TRUE(buf.reserve(800));
  buf.release(600);
  EXPECT_TRUE(buf.reserve(100));
  EXPECT_EQ(buf.high_water(), 800);
}

TEST(StagingBuffer, OverReleaseThrows) {
  StagingBuffer buf(1000);
  EXPECT_TRUE(buf.reserve(100));
  EXPECT_THROW(buf.release(200), std::logic_error);
}

// --- CRC32C -------------------------------------------------------------------

TEST(Crc32c, CastagnoliCheckValue) {
  // The standard check value: CRC-32C of the ASCII digits "123456789".
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Crc32c, SeedChainsIncrementalComputation) {
  EXPECT_EQ(crc32c("6789", 4, crc32c("12345", 5)), crc32c("123456789", 9));
}

TEST(Crc32c, OfU64IsCrcOfLittleEndianBytes) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x0123456789ABCDEF},
        std::uint64_t{0xFEDCBA9876543210}, ~std::uint64_t{0}}) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    EXPECT_EQ(crc32c_of_u64(v), crc32c(bytes, sizeof bytes)) << v;
  }
  // Byte order matters: 1 and 1 << 56 differ only in where the set byte is.
  EXPECT_NE(crc32c_of_u64(1), crc32c_of_u64(std::uint64_t{1} << 56));
}

}  // namespace
}  // namespace smarth::storage
