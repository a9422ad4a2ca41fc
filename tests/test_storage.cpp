#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
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

TEST(Disk, ReadRateIsTheWriteRateTimesTheReadRatio) {
  sim::Simulation sim;
  DiskDevice disk(sim, "d", Bandwidth::mega_bytes_per_second(100),
                  microseconds(50));
  EXPECT_DOUBLE_EQ(disk.read_bandwidth().bytes_per_second(), 120e6);
  const SimDuration first =
      microseconds(50) + disk.read_bandwidth().transmit_time(kMiB);
  EXPECT_LT(first, disk.service_time(kMiB));  // reads outpace writes
  SimTime done = -1;
  disk.read(kMiB, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, first);
  EXPECT_EQ(disk.bytes_read(), kMiB);

  // A fail-slow window throttles the write rate; the read rate follows.
  disk.set_write_bandwidth(Bandwidth::mega_bytes_per_second(50));
  EXPECT_DOUBLE_EQ(disk.read_bandwidth().bytes_per_second(), 60e6);
  const SimDuration second =
      microseconds(50) + disk.read_bandwidth().transmit_time(kMiB);
  EXPECT_GT(second, first);
  disk.read(kMiB, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, first + second);
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
  const auto list = store.finalized_list();
  EXPECT_FALSE(store.truncate(b, 1500).ok());
  EXPECT_FALSE(store.truncate(b, -1).ok());
  // Still finalized at its full length: a failed truncate reopens nothing.
  EXPECT_EQ(store.replica(b).value().state, ReplicaState::kFinalized);
  EXPECT_EQ(store.replica(b).value().bytes, 1000);
  EXPECT_EQ(store.finalized_list(), list);
}

// finalized_list() hands out the same list while nothing that may alter it
// changes, and a new one after each change (the held one keeps reading the
// store as it was).
TEST(BlockStore, FinalizedListIsSharedUntilAChange) {
  BlockStore store;
  const BlockId b{1};
  auto list = store.finalized_list();
  const auto moved = [&] {
    const auto now = store.finalized_list();
    const bool changed = now != list;
    list = now;
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

// --- BlockStore vs. a per-chunk reference model ------------------------------

/// The store as it kept its chunks before it tracked only rotted ones: one
/// {fingerprint, CRC recorded at write time} record per chunk of every
/// replica. It is the specification the store's chunk-integrity answers
/// must match.
class ReferenceStore {
 public:
  explicit ReferenceStore(Bytes chunk_size) : chunk_size_(chunk_size) {}

  bool create(BlockId block) {
    return replicas_.try_emplace(block).second;
  }
  bool append(BlockId block, Bytes bytes) {
    auto it = replicas_.find(block);
    if (it == replicas_.end() || it->second.finalized || bytes < 0) {
      return false;
    }
    it->second.bytes += bytes;
    for (std::size_t i = it->second.chunks.size(); i < count(it->second);
         ++i) {
      it->second.chunks.push_back(written(block, i));
    }
    return true;
  }
  bool finalize(BlockId block) {
    auto it = replicas_.find(block);
    if (it == replicas_.end()) return false;
    it->second.finalized = true;
    return true;
  }
  bool remove(BlockId block) { return replicas_.erase(block) == 1; }
  bool truncate(BlockId block, Bytes length) {
    auto it = replicas_.find(block);
    if (it == replicas_.end() || length < 0 || length > it->second.bytes) {
      return false;
    }
    it->second.finalized = false;
    it->second.bytes = length;
    it->second.chunks.resize(count(it->second));
    if (!it->second.chunks.empty()) {
      const std::size_t tail = it->second.chunks.size() - 1;
      it->second.chunks[tail] = written(block, tail);
    }
    return true;
  }
  bool rot(BlockId block, std::size_t chunk) {
    auto it = replicas_.find(block);
    if (it == replicas_.end() || chunk >= it->second.chunks.size()) {
      return false;
    }
    Chunk& c = it->second.chunks[chunk];
    if (crc32c_of_u64(c.data) == c.crc) ++chunks_rotted_;
    c.data = ~c.data;
    return true;
  }

  std::size_t chunk_count(BlockId block) const {
    auto it = replicas_.find(block);
    return it == replicas_.end() ? 0 : it->second.chunks.size();
  }
  Bytes chunk_bytes(BlockId block, std::size_t chunk) const {
    if (chunk >= chunk_count(block)) return 0;
    const Bytes rest = replicas_.at(block).bytes -
                       static_cast<Bytes>(chunk) * chunk_size_;
    return rest < chunk_size_ ? rest : chunk_size_;
  }
  bool chunk_ok(BlockId block, std::size_t chunk) const {
    if (chunk >= chunk_count(block)) return false;
    const Chunk& c = replicas_.at(block).chunks[chunk];
    return crc32c_of_u64(c.data) == c.crc;
  }
  bool verify_range(BlockId block, Bytes offset, Bytes length) const {
    auto it = replicas_.find(block);
    if (it == replicas_.end() || offset < 0 || length < 0 ||
        offset + length > it->second.bytes) {
      return false;
    }
    for (Bytes at = offset; at < offset + length; ++at) {
      if (!chunk_ok(block, static_cast<std::size_t>(at / chunk_size_))) {
        return false;
      }
    }
    return true;
  }
  std::vector<std::size_t> corrupt_chunks(BlockId block) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < chunk_count(block); ++i) {
      if (!chunk_ok(block, i)) out.push_back(i);
    }
    return out;
  }
  std::uint64_t chunks_rotted() const { return chunks_rotted_; }
  Bytes bytes(BlockId block) const {
    auto it = replicas_.find(block);
    return it == replicas_.end() ? 0 : it->second.bytes;
  }

 private:
  struct Chunk {
    std::uint64_t data = 0;  // synthetic payload fingerprint
    std::uint32_t crc = 0;   // CRC32C recorded at write time
  };
  struct Replica {
    Bytes bytes = 0;
    bool finalized = false;
    std::vector<Chunk> chunks;
  };

  std::size_t count(const Replica& r) const {
    return static_cast<std::size_t>((r.bytes + chunk_size_ - 1) /
                                    chunk_size_);
  }
  static Chunk written(BlockId block, std::size_t chunk) {
    // Any deterministic contents do: rot flips every bit, and the CRC of a
    // 64-bit value never survives that.
    const std::uint64_t data =
        (static_cast<std::uint64_t>(block.value()) << 32) ^ (chunk * 0x9E37u);
    return Chunk{data, crc32c_of_u64(data)};
  }

  Bytes chunk_size_;
  std::uint64_t chunks_rotted_ = 0;
  std::map<BlockId, Replica> replicas_;
};

// Seeded random op sequences drive the store and the reference model; after
// every op, every chunk-level answer must agree.
TEST(BlockStore, ChunkIntegrityMatchesThePerChunkReference) {
  constexpr Bytes kChunk = 64;
  constexpr std::int64_t kBlocks = 5;
  std::uint64_t rotted_tails_truncated = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    BlockStore store(kChunk);
    ReferenceStore ref(kChunk);
    BlockId last_rot;
    std::size_t last_rot_chunk = 0;
    for (int step = 0; step < 800; ++step) {
      const BlockId b{rng.uniform_int(1, kBlocks)};
      const Bytes bytes = ref.bytes(b);
      const std::size_t chunks = ref.chunk_count(b);
      const auto truncate = [&](Bytes length) {
        EXPECT_EQ(store.truncate(b, length).ok(), ref.truncate(b, length));
      };
      const auto rot = [&](BlockId block, std::size_t chunk) {
        EXPECT_EQ(store.rot_chunk(block, chunk).ok(), ref.rot(block, chunk));
        last_rot = block;
        last_rot_chunk = chunk;
      };
      std::string op;
      switch (rng.uniform_int(0, 10)) {
        case 0:
          op = "create";
          EXPECT_EQ(store.create_replica(b).ok(), ref.create(b));
          break;
        case 1:
        case 2: {
          op = "append";
          const Bytes n = rng.uniform_int(0, 5 * kChunk);
          EXPECT_EQ(store.append(b, n).ok(), ref.append(b, n));
          break;
        }
        case 3:
          op = "finalize";
          EXPECT_EQ(store.finalize(b).ok(), ref.finalize(b));
          break;
        case 4:
          op = "remove";
          EXPECT_EQ(store.remove(b).ok(), ref.remove(b));
          break;
        case 5:
          op = "truncate to 0";
          truncate(0);
          break;
        case 6:
          op = "truncate to a chunk boundary";
          truncate(kChunk * rng.uniform_int(0, bytes / kChunk));
          break;
        case 7:
          op = "truncate mid-chunk";
          truncate(bytes == 0 ? 0
                              : std::min(bytes, rng.uniform_int(0, bytes - 1) /
                                                        kChunk * kChunk +
                                                    rng.uniform_int(1, kChunk - 1)));
          break;
        case 8:
          op = "rot";
          rot(b, rng.index(chunks + 1));  // one past the end must fail
          break;
        case 9:
          op = "rot the same chunk again";
          if (last_rot.valid()) rot(last_rot, last_rot_chunk);
          break;
        case 10:
          op = "rot the tail chunk, then truncate into it";
          if (chunks > 0) {
            rot(b, chunks - 1);
            const Bytes tail_start = static_cast<Bytes>(chunks - 1) * kChunk;
            truncate(rng.uniform_int(tail_start + 1, bytes));
            ++rotted_tails_truncated;
          }
          break;
      }
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " step " << step
                                 << " (" << op << ")";
      for (std::int64_t id = 1; id <= kBlocks; ++id) {
        const BlockId block{id};
        const std::size_t n = ref.chunk_count(block);
        ASSERT_EQ(store.chunk_count(block), n);
        for (std::size_t i = 0; i <= n; ++i) {
          ASSERT_EQ(store.chunk_bytes(block, i), ref.chunk_bytes(block, i));
          ASSERT_EQ(store.chunk_ok(block, i), ref.chunk_ok(block, i))
              << "seed " << seed << " step " << step << " (" << op
              << ") block " << id << " chunk " << i;
        }
        for (int span = 0; span < 4; ++span) {
          const Bytes offset = rng.uniform_int(-1, ref.bytes(block) + 1);
          const Bytes length = rng.uniform_int(-1, 3 * kChunk);
          ASSERT_EQ(store.verify_range(block, offset, length),
                    ref.verify_range(block, offset, length))
              << "block " << id << " [" << offset << ", +" << length << ")";
        }
        ASSERT_EQ(store.corrupt_chunks(block), ref.corrupt_chunks(block))
            << "seed " << seed << " step " << step << " (" << op << ")";
      }
      ASSERT_EQ(store.chunks_rotted(), ref.chunks_rotted());
    }
  }
  EXPECT_GT(rotted_tails_truncated, 100u);
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
