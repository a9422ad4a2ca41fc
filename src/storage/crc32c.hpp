// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum HDFS stores per 512-byte chunk in replica .meta files. The block
// store computes it only when verifying a rotted chunk; a clean chunk's CRC
// is implied by (block, chunk), so rot is detectable without a stored table.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smarth::storage {

/// One-shot CRC32C over `len` bytes. `seed` chains incremental computations
/// (pass a previous return value to continue).
std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Convenience for the simulator's synthetic chunk contents: CRC32C of one
/// little-endian 64-bit fingerprint.
std::uint32_t crc32c_of_u64(std::uint64_t value);

}  // namespace smarth::storage
