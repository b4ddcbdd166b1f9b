// Deterministic content hashing for the artifact store.
//
// Every artifact key (and the serve request key) is the digest of a salt
// plus the canonical serde encoding of the inputs: store::artifact_key in
// store/format.hpp streams a ByteWriter's bytes straight into a Hasher, so a
// type's field list lives only in its serde::put. Keys are therefore a pure
// function of the bytes fed in: no pointers, no timestamps, no thread
// counts. Doubles enter by their IEEE-754 bit pattern (so +0.0 and -0.0
// differ, and a key is exactly as strict as the bitwise-identity guarantee
// the runtime layer makes). The digest is 128 bits built from two
// independent FNV-1a streams — not cryptographic, but collision-safe at
// cache scale and dependency-free.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ind::store {

/// 128-bit content digest; formats as 32 lowercase hex digits.
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest&) const = default;
  std::string hex() const;
};

/// Incremental FNV-1a over two lanes with distinct offset bases.
class Hasher {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < n; ++k) {
      a_ = (a_ ^ p[k]) * kPrime;
      b_ = (b_ ^ p[k]) * kPrime;
      b_ ^= b_ >> 29;  // decorrelate the lanes
    }
  }

  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Length-prefixed, so "ab","c" never collides with "a","bc".
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }

  Digest digest() const { return {a_, b_}; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t a_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t b_ = 0x6c62272e07bb0142ULL;  // FNV-0 basis of the 128-bit form
};

}  // namespace ind::store
