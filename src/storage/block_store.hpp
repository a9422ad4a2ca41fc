// Per-datanode replica catalogue: which blocks this node holds, how many
// bytes of each have been durably written, and whether the replica has been
// finalized. Integration tests use it to verify that every byte uploaded by a
// client ends up in `replication` finalized replicas.
//
// The store also models at-rest integrity with a CRC32C per fixed-size chunk
// (HDFS keeps one per 512-byte chunk in the .meta file). A clean chunk's
// synthetic 64-bit fingerprint and its write-time CRC are pure functions of
// (block, chunk), so a replica keeps only the chunks bit-rot flipped, usually
// none. Streaming reads, the scanner and re-replication source checks compare
// a chunk's stored fingerprint's CRC with the write-time CRC, exactly the way
// a real checksum verifier detects rot.
//
// finalized_list() hands heartbeat block reports the finalized replicas,
// filled only when read or just before the store next changes.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
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

class BlockStore;

/// Every finalized replica of one store, (block, length) in the store's
/// iteration order, as of when BlockStore::finalized_list() handed it out.
/// It points back at its store until filled; the store fills it before it
/// changes or is destroyed while the list is still shared.
class FinalizedList {
 public:
  using Entry = std::pair<BlockId, Bytes>;

  explicit FinalizedList(const BlockStore& store) : store_(&store) {}

  /// The entries, filled from the store on the first call.
  const std::vector<Entry>& entries() const;

 private:
  mutable const BlockStore* store_;  ///< null once filled
  mutable std::vector<Entry> entries_;
};

class BlockStore {
 public:
  explicit BlockStore(Bytes chunk_size = 64 * kKiB);
  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Starts a replica in kBeingWritten state; fails if it already exists.
  Status create_replica(BlockId block);

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

  /// The finalized replicas as of now, unfilled. The same list is handed
  /// out until the next change that may alter the finalized replicas, their
  /// lengths or all_replicas()' order: create, remove, finalize, truncate.
  std::shared_ptr<const FinalizedList> finalized_list() const;

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

  /// True when the CRC of the chunk's stored fingerprint matches the CRC
  /// recorded when it was written.
  bool chunk_ok(BlockId block, std::size_t chunk) const;

  /// Verifies every chunk overlapping [offset, offset + length); true only
  /// when all of them check out. Unknown blocks / out-of-range spans fail.
  bool verify_range(BlockId block, Bytes offset, Bytes length) const;

  /// Sorted indices of chunks whose verification currently fails.
  std::vector<std::size_t> corrupt_chunks(BlockId block) const;

  /// Total rot_chunk() calls that flipped a clean chunk.
  std::uint64_t chunks_rotted() const { return chunks_rotted_; }

 private:
  /// A chunk whose stored fingerprint rot flipped.
  struct RottedChunk {
    std::size_t chunk;
    std::uint64_t stored;
  };

  struct ReplicaEntry {
    ReplicaInfo info;
    std::vector<RottedChunk> rotted;  ///< sorted by chunk
  };

  // Deterministic synthetic contents for chunk `chunk` of `block`; rewriting
  // a chunk (e.g. after truncate + re-append) regenerates the same clean
  // fingerprint.
  static std::uint64_t chunk_fingerprint(BlockId block, std::size_t chunk);

  static bool rotted_ok(BlockId block, const RottedChunk& c);

  /// Called before every change that may alter the finalized list: fills
  /// the current list if a report still holds it, and drops it.
  void changing();

  Bytes chunk_size_;
  std::uint64_t chunks_rotted_ = 0;
  std::unordered_map<BlockId, ReplicaEntry> replicas_;
  mutable std::shared_ptr<FinalizedList> list_;
};

}  // namespace smarth::storage
