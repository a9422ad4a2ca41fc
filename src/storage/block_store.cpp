#include "storage/block_store.hpp"

#include "storage/crc32c.hpp"

namespace smarth::storage {
namespace {

// SplitMix64 finalizer — cheap, well-mixed hash for synthetic chunk payloads.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

BlockStore::BlockStore(Bytes chunk_size) : chunk_size_(chunk_size) {}

std::uint64_t BlockStore::chunk_fingerprint(BlockId block, std::size_t chunk) {
  return mix64(static_cast<std::uint64_t>(block.value()) ^
               mix64(static_cast<std::uint64_t>(chunk)));
}

void BlockStore::resize_chunks(ReplicaEntry& entry, Bytes new_length) {
  const auto needed = static_cast<std::size_t>(
      (new_length + chunk_size_ - 1) / chunk_size_);
  const std::size_t old = entry.chunks.size();
  entry.chunks.resize(needed);
  for (std::size_t i = old; i < needed; ++i) {
    entry.chunks[i].data = chunk_fingerprint(entry.info.block, i);
    entry.chunks[i].crc = crc32c_of_u64(entry.chunks[i].data);
  }
}

Status BlockStore::create_replica(BlockId block) {
  auto [it, inserted] = replicas_.try_emplace(block);
  if (!inserted) {
    return make_error("replica_exists",
                      "replica already present: " + block.to_string());
  }
  it->second.info.block = block;
  ++version_;
  return Status::ok_status();
}

void BlockStore::reserve(BlockId block, Bytes length) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) return;
  it->second.chunks.reserve(
      static_cast<std::size_t>((length + chunk_size_ - 1) / chunk_size_));
}

Status BlockStore::append(BlockId block, Bytes bytes) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    return make_error("replica_missing", "no replica " + block.to_string());
  }
  if (it->second.info.state != ReplicaState::kBeingWritten) {
    return make_error("replica_finalized",
                      "append to finalized replica " + block.to_string());
  }
  if (bytes < 0) {
    return make_error("bad_length", "negative append length");
  }
  it->second.info.bytes += bytes;
  resize_chunks(it->second, it->second.info.bytes);
  return Status::ok_status();
}

Result<Bytes> BlockStore::finalize(BlockId block) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    return Error{"replica_missing", "no replica " + block.to_string()};
  }
  it->second.info.state = ReplicaState::kFinalized;
  ++version_;
  return it->second.info.bytes;
}

Status BlockStore::remove(BlockId block) {
  if (replicas_.erase(block) == 0) {
    return make_error("replica_missing", "no replica " + block.to_string());
  }
  ++version_;
  return Status::ok_status();
}

Status BlockStore::truncate(BlockId block, Bytes length) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    return make_error("replica_missing", "no replica " + block.to_string());
  }
  if (length < 0 || length > it->second.info.bytes) {
    return make_error("bad_length",
                      "truncate length outside [0, current] for " +
                          block.to_string());
  }
  // Pipeline recovery may reopen a replica a fast node already finalized;
  // it returns to the being-written state until the rebuilt pipeline
  // finalizes it again (HDFS block recovery does the same).
  it->second.info.state = ReplicaState::kBeingWritten;
  ++version_;
  it->second.info.bytes = length;
  // Drop chunks past the new tail and rewrite the (now partial) tail chunk:
  // recovery re-syncs from a good source, so the tail comes back clean even
  // if it had rotted.
  it->second.chunks.resize(static_cast<std::size_t>(
      (length + chunk_size_ - 1) / chunk_size_));
  if (!it->second.chunks.empty()) {
    const std::size_t tail = it->second.chunks.size() - 1;
    it->second.chunks[tail].data = chunk_fingerprint(block, tail);
    it->second.chunks[tail].crc = crc32c_of_u64(it->second.chunks[tail].data);
  }
  return Status::ok_status();
}

bool BlockStore::has_replica(BlockId block) const {
  return find(block) != nullptr;
}

Result<ReplicaInfo> BlockStore::replica(BlockId block) const {
  const ReplicaInfo* info = find(block);
  if (info == nullptr) {
    return Error{"replica_missing", "no replica " + block.to_string()};
  }
  return *info;
}

const ReplicaInfo* BlockStore::find(BlockId block) const {
  auto it = replicas_.find(block);
  return it == replicas_.end() ? nullptr : &it->second.info;
}

std::size_t BlockStore::finalized_count() const {
  std::size_t n = 0;
  for (const auto& [id, entry] : replicas_) {
    if (entry.info.state == ReplicaState::kFinalized) ++n;
  }
  return n;
}

Bytes BlockStore::total_bytes() const {
  Bytes total = 0;
  for (const auto& [id, entry] : replicas_) total += entry.info.bytes;
  return total;
}

std::vector<ReplicaInfo> BlockStore::all_replicas() const {
  std::vector<ReplicaInfo> out;
  out.reserve(replicas_.size());
  for (const auto& [id, entry] : replicas_) out.push_back(entry.info);
  return out;
}

std::size_t BlockStore::chunk_count(BlockId block) const {
  auto it = replicas_.find(block);
  return it == replicas_.end() ? 0 : it->second.chunks.size();
}

Bytes BlockStore::chunk_bytes(BlockId block, std::size_t chunk) const {
  auto it = replicas_.find(block);
  if (it == replicas_.end() || chunk >= it->second.chunks.size()) return 0;
  const Bytes start = static_cast<Bytes>(chunk) * chunk_size_;
  const Bytes remaining = it->second.info.bytes - start;
  return remaining < chunk_size_ ? remaining : chunk_size_;
}

Status BlockStore::rot_chunk(BlockId block, std::size_t chunk) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    return make_error("replica_missing", "no replica " + block.to_string());
  }
  if (chunk >= it->second.chunks.size()) {
    return make_error("bad_chunk", "chunk index out of range for " +
                                       block.to_string());
  }
  Chunk& c = it->second.chunks[chunk];
  const bool was_clean = crc32c_of_u64(c.data) == c.crc;
  // Flip every bit of the stored fingerprint; the recorded CRC no longer
  // matches, which is exactly what a decayed sector looks like to a verifier.
  c.data = ~c.data;
  if (was_clean) ++chunks_rotted_;
  return Status::ok_status();
}

bool BlockStore::chunk_ok(BlockId block, std::size_t chunk) const {
  auto it = replicas_.find(block);
  if (it == replicas_.end() || chunk >= it->second.chunks.size()) return false;
  const Chunk& c = it->second.chunks[chunk];
  return crc32c_of_u64(c.data) == c.crc;
}

bool BlockStore::verify_range(BlockId block, Bytes offset, Bytes length) const {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) return false;
  if (offset < 0 || length < 0 || offset + length > it->second.info.bytes) {
    return false;
  }
  if (length == 0) return true;
  const auto first = static_cast<std::size_t>(offset / chunk_size_);
  const auto last =
      static_cast<std::size_t>((offset + length - 1) / chunk_size_);
  for (std::size_t i = first; i <= last; ++i) {
    const Chunk& c = it->second.chunks[i];
    if (crc32c_of_u64(c.data) != c.crc) return false;
  }
  return true;
}

std::vector<std::size_t> BlockStore::corrupt_chunks(BlockId block) const {
  std::vector<std::size_t> out;
  auto it = replicas_.find(block);
  if (it == replicas_.end()) return out;
  for (std::size_t i = 0; i < it->second.chunks.size(); ++i) {
    const Chunk& c = it->second.chunks[i];
    if (crc32c_of_u64(c.data) != c.crc) out.push_back(i);
  }
  return out;
}

}  // namespace smarth::storage
