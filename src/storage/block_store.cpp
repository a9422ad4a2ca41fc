#include "storage/block_store.hpp"

#include <algorithm>

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

const std::vector<FinalizedList::Entry>& FinalizedList::entries() const {
  if (store_ != nullptr) {
    for (const auto& replica : store_->all_replicas()) {
      if (replica.state == ReplicaState::kFinalized) {
        entries_.emplace_back(replica.block, replica.bytes);
      }
    }
    store_ = nullptr;
  }
  return entries_;
}

BlockStore::BlockStore(Bytes chunk_size) : chunk_size_(chunk_size) {}

BlockStore::~BlockStore() { changing(); }

std::uint64_t BlockStore::chunk_fingerprint(BlockId block, std::size_t chunk) {
  return mix64(static_cast<std::uint64_t>(block.value()) ^
               mix64(static_cast<std::uint64_t>(chunk)));
}

bool BlockStore::rotted_ok(BlockId block, const RottedChunk& c) {
  return crc32c_of_u64(c.stored) ==
         crc32c_of_u64(chunk_fingerprint(block, c.chunk));
}

std::shared_ptr<const FinalizedList> BlockStore::finalized_list() const {
  if (list_ == nullptr) list_ = std::make_shared<FinalizedList>(*this);
  return list_;
}

void BlockStore::changing() {
  // A report still holds the current list: fill it as the store reads now.
  if (list_.use_count() > 1) list_->entries();
  list_.reset();
}

Status BlockStore::create_replica(BlockId block) {
  if (has_replica(block)) {
    return make_error("replica_exists",
                      "replica already present: " + block.to_string());
  }
  // Before the insert: it may rehash, which reorders iteration.
  changing();
  replicas_[block].info.block = block;
  return Status::ok_status();
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
  return Status::ok_status();
}

Result<Bytes> BlockStore::finalize(BlockId block) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    return Error{"replica_missing", "no replica " + block.to_string()};
  }
  changing();
  it->second.info.state = ReplicaState::kFinalized;
  return it->second.info.bytes;
}

Status BlockStore::remove(BlockId block) {
  if (!has_replica(block)) {
    return make_error("replica_missing", "no replica " + block.to_string());
  }
  changing();
  replicas_.erase(block);
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
  changing();
  it->second.info.state = ReplicaState::kBeingWritten;
  it->second.info.bytes = length;
  // Drop chunks past the new tail and rewrite the (now partial) tail chunk:
  // recovery re-syncs from a good source, so the tail comes back clean even
  // if it had rotted.
  const auto tail = static_cast<std::size_t>(
      length == 0 ? 0 : (length - 1) / chunk_size_);
  auto& rotted = it->second.rotted;
  rotted.erase(std::find_if(rotted.begin(), rotted.end(),
                            [tail](const RottedChunk& c) {
                              return c.chunk >= tail;
                            }),
               rotted.end());
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
  const ReplicaInfo* info = find(block);
  return info == nullptr ? 0
                         : static_cast<std::size_t>(
                               (info->bytes + chunk_size_ - 1) / chunk_size_);
}

Bytes BlockStore::chunk_bytes(BlockId block, std::size_t chunk) const {
  if (chunk >= chunk_count(block)) return 0;
  const Bytes start = static_cast<Bytes>(chunk) * chunk_size_;
  const Bytes remaining = find(block)->bytes - start;
  return remaining < chunk_size_ ? remaining : chunk_size_;
}

Status BlockStore::rot_chunk(BlockId block, std::size_t chunk) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    return make_error("replica_missing", "no replica " + block.to_string());
  }
  if (chunk >= chunk_count(block)) {
    return make_error("bad_chunk", "chunk index out of range for " +
                                       block.to_string());
  }
  auto& rotted = it->second.rotted;
  auto c = std::find_if(rotted.begin(), rotted.end(),
                        [chunk](const RottedChunk& r) {
                          return r.chunk >= chunk;
                        });
  if (c == rotted.end() || c->chunk != chunk) {
    c = rotted.insert(c, RottedChunk{chunk, chunk_fingerprint(block, chunk)});
  }
  const bool was_clean = rotted_ok(block, *c);
  // Flip every bit of the stored fingerprint; its CRC no longer matches the
  // one recorded at write time, which is exactly what a decayed sector looks
  // like to a verifier.
  c->stored = ~c->stored;
  if (was_clean) ++chunks_rotted_;
  return Status::ok_status();
}

bool BlockStore::chunk_ok(BlockId block, std::size_t chunk) const {
  return chunk < chunk_count(block) &&
         verify_range(block, static_cast<Bytes>(chunk) * chunk_size_, 1);
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
  for (const RottedChunk& c : it->second.rotted) {
    if (c.chunk >= first && c.chunk <= last && !rotted_ok(block, c)) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> BlockStore::corrupt_chunks(BlockId block) const {
  std::vector<std::size_t> out;
  auto it = replicas_.find(block);
  if (it == replicas_.end()) return out;
  for (const RottedChunk& c : it->second.rotted) {
    if (!rotted_ok(block, c)) out.push_back(c.chunk);
  }
  return out;
}

}  // namespace smarth::storage
