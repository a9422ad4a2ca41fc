// Per-datanode replica catalogue: which blocks this node holds, how many
// bytes of each have been durably written, and whether the replica has been
// finalized. Integration tests use it to verify that every byte uploaded by a
// client ends up in `replication` finalized replicas.
//
// Since PR 4 the store also models at-rest data integrity: every replica
// carries one synthetic 64-bit fingerprint plus a CRC32C per fixed-size
// chunk (HDFS keeps a CRC per 512-byte chunk in the replica's .meta file;
// we use one CRC per simulated chunk). Bit-rot flips the stored fingerprint
// without updating the CRC, so any later verification — streaming reads,
// the background scanner, or re-replication source checks — detects the
// mismatch exactly the way a real checksum verifier would.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace smarth::storage {

enum class ReplicaState { kBeingWritten, kFinalized };

struct ReplicaInfo {
  BlockId block;
  Bytes bytes = 0;
  ReplicaState state = ReplicaState::kBeingWritten;
};

class BlockStore {
 public:
  explicit BlockStore(Bytes chunk_size = 64 * kKiB);

  /// Starts a replica in kBeingWritten state; fails if it already exists.
  Status create_replica(BlockId block);

  /// Sizes `block`'s chunk table for a replica of `length` bytes, so appends
  /// up to that length never reallocate it. No-op for an unknown block.
  void reserve(BlockId block, Bytes length);

  /// Appends durably written bytes to an open replica.
  Status append(BlockId block, Bytes bytes);

  /// Marks the replica complete; returns its final length.
  Result<Bytes> finalize(BlockId block);

  /// Drops a replica (recovery discards partial replicas on failed nodes).
  Status remove(BlockId block);

  /// Truncates a replica to `length` (pipeline recovery syncs all survivors
  /// to the minimum acked length) and reopens it if it was finalized. A
  /// length outside [0, current] fails and leaves the replica untouched.
  Status truncate(BlockId block, Bytes length);

  bool has_replica(BlockId block) const;
  Result<ReplicaInfo> replica(BlockId block) const;
  /// The replica's info, or null when this store has none. Unlike
  /// replica(), a miss builds no Error.
  const ReplicaInfo* find(BlockId block) const;

  std::size_t replica_count() const { return replicas_.size(); }
  std::size_t finalized_count() const;
  Bytes total_bytes() const;
  std::vector<ReplicaInfo> all_replicas() const;

  /// Bumped by every change that may alter the finalized replicas, their
  /// lengths or all_replicas()' order: create, remove, finalize, truncate.
  /// A caller holding a list derived from all_replicas() may reuse it while
  /// the version is unchanged.
  std::uint64_t version() const { return version_; }

  // --- chunk-level integrity -----------------------------------------------

  Bytes chunk_size() const { return chunk_size_; }

  /// Number of checksummed chunks the replica currently spans
  /// (ceil(bytes / chunk_size)); 0 for an unknown block.
  std::size_t chunk_count(BlockId block) const;

  /// Bytes covered by chunk `chunk` of `block` (the tail chunk may be short).
  Bytes chunk_bytes(BlockId block, std::size_t chunk) const;

  /// Simulates bit-rot at rest: flips the stored payload fingerprint of one
  /// chunk while leaving its recorded CRC untouched, so every subsequent
  /// verification of that chunk fails.
  Status rot_chunk(BlockId block, std::size_t chunk);

  /// True when the chunk's stored fingerprint still matches its CRC.
  bool chunk_ok(BlockId block, std::size_t chunk) const;

  /// Verifies every chunk overlapping [offset, offset + length); true only
  /// when all of them check out. Unknown blocks / out-of-range spans fail.
  bool verify_range(BlockId block, Bytes offset, Bytes length) const;

  /// Sorted indices of chunks whose verification currently fails.
  std::vector<std::size_t> corrupt_chunks(BlockId block) const;

  /// Total rot_chunk() calls that flipped a clean chunk.
  std::uint64_t chunks_rotted() const { return chunks_rotted_; }

 private:
  struct Chunk {
    std::uint64_t data = 0;  // synthetic payload fingerprint
    std::uint32_t crc = 0;   // CRC32C recorded at write time
  };

  struct ReplicaEntry {
    ReplicaInfo info;
    std::vector<Chunk> chunks;
  };

  // Deterministic synthetic contents for chunk `chunk` of `block`; rewriting
  // a chunk (e.g. after truncate + re-append) regenerates the same clean
  // fingerprint.
  static std::uint64_t chunk_fingerprint(BlockId block, std::size_t chunk);

  void resize_chunks(ReplicaEntry& entry, Bytes new_length);

  Bytes chunk_size_;
  std::uint64_t chunks_rotted_ = 0;
  std::uint64_t version_ = 0;
  std::unordered_map<BlockId, ReplicaEntry> replicas_;
};

}  // namespace smarth::storage
