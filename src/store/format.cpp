#include "store/format.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"

namespace ind::store {
namespace {

std::uint64_t fnv64(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t k = 0; k < n; ++k) h = (h ^ p[k]) * 0x100000001b3ULL;
  return h;
}

}  // namespace

const char* to_string(StoreErrc code) {
  switch (code) {
    case StoreErrc::IoError: return "io_error";
    case StoreErrc::BadMagic: return "bad_magic";
    case StoreErrc::VersionMismatch: return "version_mismatch";
    case StoreErrc::EndianMismatch: return "endian_mismatch";
    case StoreErrc::Truncated: return "truncated";
    case StoreErrc::ChecksumMismatch: return "checksum_mismatch";
    case StoreErrc::FingerprintMismatch: return "fingerprint_mismatch";
    case StoreErrc::Malformed: return "malformed";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_artifact(const Artifact& a) {
  ByteWriter w;
  for (unsigned char m : kMagic) w.u8(m);
  w.u32(kFormatVersion);
  w.u8(std::endian::native == std::endian::little ? kLittleEndianTag : 0x02);
  w.u8(0);  // reserved
  if (a.kind.size() > 0xffff)
    throw StoreError(StoreErrc::Malformed, "kind string too long");
  w.u16(static_cast<std::uint16_t>(a.kind.size()));
  w.raw(a.kind.data(), a.kind.size());
  w.u64(a.fingerprint.hi);
  w.u64(a.fingerprint.lo);
  w.u64(a.payload.size());
  w.u64(fnv64(a.payload.data(), a.payload.size()));
  w.raw(a.payload.data(), a.payload.size());
  return w.take();
}

Artifact decode_artifact(const std::vector<std::uint8_t>& image,
                         const Digest* expect) {
  // A file shorter than the magic is indistinguishable from random bytes,
  // which callers should see as BadMagic, not Truncated.
  if (image.size() < sizeof kMagic)
    throw StoreError(StoreErrc::BadMagic, "file shorter than magic");
  if (std::memcmp(image.data(), kMagic, sizeof kMagic) != 0)
    throw StoreError(StoreErrc::BadMagic, "magic bytes do not match");

  ByteReader r(image.data() + sizeof kMagic, image.size() - sizeof kMagic);
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    throw StoreError(StoreErrc::VersionMismatch,
                     "artifact version " + std::to_string(version) +
                         ", reader expects " + std::to_string(kFormatVersion));
  const std::uint8_t endian = r.u8();
  const std::uint8_t native =
      std::endian::native == std::endian::little ? kLittleEndianTag : 0x02;
  if (endian != native)
    throw StoreError(StoreErrc::EndianMismatch,
                     "artifact written on a foreign-endian machine");
  r.u8();  // reserved

  Artifact a;
  a.kind.resize(r.count(r.u16(), 1));
  r.raw(a.kind.data(), a.kind.size());
  a.fingerprint.hi = r.u64();
  a.fingerprint.lo = r.u64();
  if (expect != nullptr && !(a.fingerprint == *expect))
    throw StoreError(StoreErrc::FingerprintMismatch,
                     "expected " + expect->hex() + ", file holds " +
                         a.fingerprint.hex());

  const std::uint64_t size = r.u64();
  const std::uint64_t checksum = r.u64();
  if (size > r.remaining())
    throw StoreError(StoreErrc::Truncated, "payload cut short");
  if (size < r.remaining())
    throw StoreError(StoreErrc::Malformed, "bytes past the payload");
  a.payload.resize(size);
  r.raw(a.payload.data(), size);
  if (fnv64(a.payload.data(), a.payload.size()) != checksum)
    throw StoreError(StoreErrc::ChecksumMismatch, "payload failed its checksum");
  return a;
}

void write_artifact(const std::string& path, const Artifact& a) {
  runtime::ScopedTimer t("store.write");
  const std::vector<std::uint8_t> image = encode_artifact(a);
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());

  // Crash-safe commit: write + fsync the temp file, rename over the final
  // name, then fsync the directory so the rename itself is durable. A crash
  // at any point leaves either the old state or a `.tmp` orphan — never a
  // half-written `.art` — and the next ArtifactCache::configure() removes
  // an orphan whose writer is gone.
  //
  // Deterministic chaos hook: a fired store_write commits only half the
  // image to the temp file and aborts before the rename — exactly the
  // on-disk state a kill -9 mid-write leaves behind.
  const bool torn = robust::fault::fire(robust::fault::Site::StoreWrite);
  const std::size_t commit_bytes = torn ? image.size() / 2 : image.size();

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0)
    throw StoreError(StoreErrc::IoError, "cannot open '" + tmp + "': " +
                                             std::strerror(errno));
  std::size_t written = 0;
  while (written < commit_bytes) {
    const ssize_t r =
        ::write(fd, image.data() + written, commit_bytes - written);
    if (r < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      ::close(fd);
      std::error_code ec;
      fs::remove(tmp, ec);
      throw StoreError(StoreErrc::IoError,
                       "short write to '" + tmp + "': " + why);
    }
    written += static_cast<std::size_t>(r);
  }
  if (torn) {
    ::close(fd);  // leave the partial .tmp behind, like a crashed writer
    throw StoreError(StoreErrc::IoError,
                     "store_write fault injected: torn write left at '" + tmp +
                         "'");
  }
  if (::fsync(fd) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    std::error_code ec;
    fs::remove(tmp, ec);
    throw StoreError(StoreErrc::IoError, "fsync '" + tmp + "': " + why);
  }
  ::close(fd);

  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw StoreError(StoreErrc::IoError, "rename to '" + path + "' failed");
  }
  // fsync the parent directory: the rename is not durable until the
  // directory metadata reaches disk. Best-effort — some filesystems refuse
  // O_RDONLY directory fsyncs; the tmp+rename ordering above already
  // guarantees we can never observe a torn final file.
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  runtime::MetricsRegistry::instance().add_count(
      "store.write_bytes", static_cast<std::int64_t>(image.size()));
}

}  // namespace ind::store
