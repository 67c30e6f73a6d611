// 64-bit FNV-1a: the one hash behind the transport frame checksum, the
// routed-view fingerprint and every aggregate result digest.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qnetp {

/// The FNV-1a offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// Fold `len` bytes at `data`, in memory order, into the running hash.
inline void fnv1a(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

/// Fold the eight bytes of `v`, least significant first (the same on
/// every host, unlike folding its memory).
inline void fnv1a_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (8 * i));
    h *= 1099511628211ull;
  }
}

}  // namespace qnetp
