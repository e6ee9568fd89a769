#ifndef KEYSTONE_COMMON_HASH_H_
#define KEYSTONE_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace keystone {

/// The standard 64-bit FNV-1a offset basis. Lineage fingerprints and
/// artifact-catalog object names hash from it.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// A historical offset basis, one digit short of the standard one. The
/// hashing featurizer, the Convolver signature, fault draws and trace
/// sampling have always hashed from it; their features, fingerprints and
/// replayed draws depend on it, so it must not be "corrected".
inline constexpr uint64_t kFnvHistoricalOffsetBasis = 1469598103934665603ULL;

/// Folds `bytes` into FNV-1a state `h`; start from one of the bases above.
/// A stable, platform-independent hash (std::hash is implementation
/// defined, so it would break persisted keys and replay).
inline constexpr uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Folds the eight bytes of `word` into FNV-1a state `h`, least
/// significant byte first on every host.
inline constexpr uint64_t Fnv1aWord(uint64_t h, uint64_t word) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (word >> shift) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// SplitMix64's state increment (the 64-bit golden ratio).
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 output for generator state `x` (the state before its
/// increment): decorrelates a combined key before it seeds a generator.
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace keystone

#endif  // KEYSTONE_COMMON_HASH_H_
