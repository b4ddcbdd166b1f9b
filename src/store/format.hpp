// Versioned binary artifact format.
//
// File layout (all integers little-endian; the endianness tag rejects
// foreign-endian files instead of byte-swapping — cache artifacts are
// machine-local by design):
//
//   offset  size  field
//   0       8     magic "INDART\x00\x01"
//   8       4     format version (u32, kFormatVersion)
//   12      1     endianness tag (0x01 = little)
//   13      1     reserved (0)
//   14      2     kind length (u16) followed by the kind string
//   ..      16    fingerprint echo (Digest hi, lo) — lets a reader verify
//                 the file really is the artifact its name claims
//   ..      8     payload size (u64); the payload ends the file
//   ..      8     FNV-1a-64 checksum of the payload (u64)
//   ..      *     payload bytes
//
// Truncation is distinguishable from bit rot (Truncated vs
// ChecksumMismatch), and bytes past the declared payload are Malformed.
// Readers are strict: any malformed header raises StoreError with a
// machine-readable code; the cache converts that into a
// recompute-and-rewrite, never a crash.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "store/hash.hpp"

namespace ind::store {

inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr unsigned char kMagic[8] = {'I', 'N', 'D', 'A',
                                            'R', 'T', 0x00, 0x01};
inline constexpr std::uint8_t kLittleEndianTag = 0x01;

/// Machine-readable failure modes, each distinguishable by callers/tests.
enum class StoreErrc {
  IoError,           ///< open/read/write/rename failed
  BadMagic,          ///< not an artifact file at all
  VersionMismatch,   ///< produced by a different format version
  EndianMismatch,    ///< produced on a foreign-endian machine
  Truncated,         ///< file ends before a declared payload does
  ChecksumMismatch,  ///< the payload does not match its checksum
  FingerprintMismatch,  ///< file content is a different artifact
  Malformed,         ///< structurally invalid payload during decode
};

const char* to_string(StoreErrc code);

class StoreError : public std::runtime_error {
 public:
  StoreError(StoreErrc code, const std::string& what)
      : std::runtime_error(std::string(to_string(code)) + ": " + what),
        code_(code) {}
  StoreErrc code() const { return code_; }

 private:
  StoreErrc code_;
};

/// Append-only little-endian byte buffer used by every serializer. A writer
/// built over a Hasher streams the same bytes into the digest instead and
/// keeps its own buffer empty.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Hasher& sink) : sink_(&sink) {}

  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }

  /// Bulk append (used for large contiguous payloads, e.g. matrix data).
  void raw(const void* p, std::size_t n) {
    if (sink_ != nullptr) {
      sink_->bytes(p, n);
      return;
    }
    if (n == 0) return;  // an empty vector's data() may be null: no memcpy
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
  Hasher* sink_ = nullptr;
};

/// Cache key of an artifact: the digest of the store salt ("ind-artifact",
/// kFormatVersion, `kind`) followed by the canonical serde bytes that
/// `put_inputs(ByteWriter&)` writes for the inputs. The bytes stream into
/// the hasher unbuffered, so keying an n x n matrix holds no extra copy.
/// Bumping kFormatVersion invalidates every old key; bumping a kind's
/// suffix, that kind's.
template <typename PutInputs>
Digest artifact_key(std::string_view kind, PutInputs&& put_inputs) {
  Hasher h;
  ByteWriter w(h);
  w.str("ind-artifact");
  w.u32(kFormatVersion);
  w.str(kind);
  put_inputs(w);
  return h.digest();
}

/// Bounds-checked cursor over a decoded payload; every overrun throws
/// StoreError(Truncated) instead of reading garbage.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { std::uint8_t v; raw(&v, 1); return v; }
  std::uint16_t u16() { std::uint16_t v; raw(&v, sizeof v); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::int32_t i32() { std::int32_t v; raw(&v, sizeof v); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); return v; }
  bool boolean() { return u8() != 0; }
  /// One-byte enum whose enumerators run from 0 to `last`; any other byte
  /// throws StoreError(Malformed) rather than yielding an unnamed value.
  template <typename E>
  E enum8(E last) {
    const std::uint8_t v = u8();
    if (v > static_cast<std::uint8_t>(last))
      throw StoreError(StoreErrc::Malformed,
                       "enum byte " + std::to_string(v) + " out of range");
    return static_cast<E>(v);
  }
  double f64() { double v; raw(&v, sizeof v); return v; }
  std::string str() {
    const std::uint64_t n = count(u64(), 1);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  std::vector<double> f64s() {
    const std::uint64_t n = count(u64(), sizeof(double));
    std::vector<double> v(n);
    raw(v.data(), n * sizeof(double));
    return v;
  }

  /// Validates that a decoded element count fits in the remaining bytes
  /// (cheap armor against decoding garbage as a huge allocation).
  std::uint64_t count(std::uint64_t n, std::size_t elem_size) const {
    if (elem_size != 0 && n > remaining() / elem_size)
      throw StoreError(StoreErrc::Truncated,
                       "declared count exceeds remaining bytes");
    return n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

  /// Bulk extract; throws Truncated past the end like every other getter.
  void raw(void* out, std::size_t n) {
    if (n > remaining())
      throw StoreError(StoreErrc::Truncated, "read past end of payload");
    if (n == 0) return;  // an empty vector's data() may be null: no memcpy
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// An artifact in memory: a kind tag, the fingerprint it was stored under,
/// and the serde bytes of the stored value.
struct Artifact {
  std::string kind;
  Digest fingerprint;
  std::vector<std::uint8_t> payload;
};

/// Encodes an artifact to the full file image (header + payload).
std::vector<std::uint8_t> encode_artifact(const Artifact& a);

/// Decodes and validates a file image. `expect` (when non-null) must match
/// the embedded fingerprint. Throws StoreError on any malformation.
Artifact decode_artifact(const std::vector<std::uint8_t>& image,
                         const Digest* expect = nullptr);

/// Crash-safe file write: encodes under the store.write timer, writes
/// `path + ".tmp<pid>"` and atomically renames it, so readers never observe
/// a half-written artifact.
void write_artifact(const std::string& path, const Artifact& a);

}  // namespace ind::store
